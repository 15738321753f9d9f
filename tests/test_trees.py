import copy
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_key_matches_dominates,
    assert_stats_ledger,
    bounded,
    enumerate_levels,
)

from frontier_search import EngineConfig, IdentityDominance, Mode, solve
from frontier_search.cli import gen_graph
from frontier_search.oracles import mst_ref, shortest_path_ref
from frontier_search.problems import (
    Graph,
    KruskalSpanningTree,
    PrimSpanningTree,
    ShortestPathTree,
    TreeDescriptor,
    is_spanning_tree,
    tree_distances,
)
from frontier_search.problems.graphs import GraphDisconnected, InvalidNode
from frontier_search.problems.trees import _components
from frontier_search.theory import ProblemTheory

GREEDY = EngineConfig(mode=Mode.GREEDY)


def the_tree(result):
    assert len(result.optima) == 1
    return next(iter(result.optima))


# -- shortest-path tree -------------------------------------------------------


def test_sssp_triangle(triangle):
    th = ShortestPathTree(triangle, 0)
    result = solve(th, GREEDY)
    tree = the_tree(result)
    assert tree == frozenset((0, 1))
    assert tree_distances(triangle, tree, 0) == {0: 0, 1: 1, 2: 2}
    assert result.optimal_cost == 3  # sum of root-path costs
    assert_stats_ledger(result.stats)


def test_sssp_single_node_spans_at_level_zero():
    th = ShortestPathTree(Graph(1, ()), 0)
    result = solve(th, GREEDY)
    assert result.optimal_cost == 0 and the_tree(result) == frozenset()


def test_sssp_star_unit_weights():
    g = Graph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    th = ShortestPathTree(g, 0)
    result = solve(th, GREEDY)
    tree = the_tree(result)
    assert tree == frozenset((0, 1, 2))
    assert tree_distances(g, tree, 0) == {0: 0, 1: 1, 2: 1, 3: 1}


def test_sssp_matches_reference_distances():
    g = Graph(
        6,
        (
            (0, 1, 4), (0, 2, 1), (2, 1, 2), (1, 3, 1),
            (2, 3, 5), (3, 4, 3), (4, 5, 0), (2, 5, 9),
        ),
    )
    th = ShortestPathTree(g, 0)
    tree = the_tree(solve(th, GREEDY))
    assert tree_distances(g, tree, 0) == shortest_path_ref(g, 0)


def test_tree_distances_hold_only_the_sources_component():
    # Edge 2 joins nodes 3 and 4, which no edge of the set joins to node 0;
    # with edge 2 alone no edge touches the source.
    g = Graph(5, ((0, 1, 2), (1, 2, 3), (3, 4, 1), (2, 3, 4)))
    assert tree_distances(g, (0, 1, 2), 0) == {0: 0, 1: 2, 2: 5}
    assert tree_distances(g, (2,), 0) == {0: 0}


def test_sssp_cost_recomputes_independently(triangle):
    th = ShortestPathTree(triangle, 0)
    assert th.cost(frozenset((0, 1))) == 3
    assert th.cost(frozenset((0, 2))) == 4  # direct edge tree is worse


def test_sssp_greedy_width_one_per_level():
    g = Graph(5, ((0, 1, 2), (0, 2, 2), (1, 2, 0), (2, 3, 1), (1, 3, 1), (3, 4, 7)))
    result = solve(ShortestPathTree(g, 0), GREEDY)
    assert all(undom == 1 for _, undom in result.stats.per_level_width)
    assert result.stats.levels == 4


# -- minimum spanning tree ----------------------------------------------------


def test_prim_triangle(weighted_triangle):
    result = solve(PrimSpanningTree(weighted_triangle, 0), GREEDY)
    assert result.optimal_cost == 3
    assert the_tree(result) == frozenset((0, 1))


def test_prim_path_graph_takes_every_edge():
    g = Graph(4, ((0, 1, 5), (1, 2, 7), (2, 3, 2)))
    result = solve(PrimSpanningTree(g, 0), GREEDY)
    assert the_tree(result) == frozenset((0, 1, 2))
    assert result.optimal_cost == 14


def test_prim_four_cycle_drops_heaviest():
    g = Graph(4, ((0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)))
    result = solve(PrimSpanningTree(g, 0), GREEDY)
    assert result.optimal_cost == 6
    assert the_tree(result) == frozenset((0, 1, 2))


def test_prim_root_choice_does_not_change_cost(weighted_triangle):
    costs = {
        solve(PrimSpanningTree(weighted_triangle, root), GREEDY).optimal_cost
        for root in range(3)
    }
    assert costs == {3}


def test_kruskal_triangle(weighted_triangle):
    result = solve(KruskalSpanningTree(weighted_triangle), GREEDY)
    assert result.optimal_cost == 3
    assert the_tree(result) == frozenset((0, 1))


def test_kruskal_tree_input_absorbs_all_edges():
    g = Graph(4, ((0, 1, 5), (1, 2, 7), (2, 3, 2)))
    result = solve(KruskalSpanningTree(g), GREEDY)
    assert the_tree(result) == frozenset((0, 1, 2))


def test_kruskal_duplicate_weights_tie_broken_by_index():
    g = Graph(4, ((0, 1, 1), (2, 3, 1), (1, 2, 1), (0, 3, 9)))
    result = solve(KruskalSpanningTree(g), GREEDY)
    assert result.optimal_cost == 3 == mst_ref(g)
    assert the_tree(result) == frozenset((0, 1, 2))


def test_mst_options_agree(weighted_triangle):
    g4 = Graph(4, ((0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)))
    for g in (weighted_triangle, g4):
        prim = solve(PrimSpanningTree(g, 0), GREEDY).optimal_cost
        kruskal = solve(KruskalSpanningTree(g), GREEDY).optimal_cost
        assert prim == kruskal == mst_ref(g)


def test_disconnected_inputs_rejected():
    g = Graph(4, ((0, 1, 1), (2, 3, 1)))
    with pytest.raises(GraphDisconnected):
        PrimSpanningTree(g, 0)
    with pytest.raises(GraphDisconnected):
        KruskalSpanningTree(g)
    with pytest.raises(GraphDisconnected):
        ShortestPathTree(g, 0)


@pytest.mark.parametrize("make", [PrimSpanningTree, ShortestPathTree])
def test_out_of_range_root_rejected(make, weighted_triangle):
    for root in (-1, 3):
        with pytest.raises(InvalidNode, match="root"):
            make(weighted_triangle, root)


def test_zero_weight_edges_everywhere():
    g = Graph(3, ((0, 1, 0), (1, 2, 0), (0, 2, 0)))
    assert solve(PrimSpanningTree(g, 0), GREEDY).optimal_cost == 0 == mst_ref(g)
    assert solve(KruskalSpanningTree(g), GREEDY).optimal_cost == 0


@pytest.mark.parametrize("make", [PrimSpanningTree, ShortestPathTree])
def test_rooted_dominance_needs_a_common_parent(make, weighted_triangle):
    th = make(weighted_triangle, 0)

    def grow(*moves):
        y = th.initial()
        for move in moves:
            y = th.apply_move(y, move)
        return y

    # a and b share only edge 1 (1-2), which misses the root, so they have
    # no common parent; each shares a rooted edge with c.
    a, b, c = grow(0, 1), grow(2, 1), grow(0, 2)
    assert not th.dominates(a, b) and not th.dominates(b, a)
    for y in (a, b):
        assert th.dominates(y, c) != th.dominates(c, y)


# -- descriptor invariants ----------------------------------------------------


def test_split_children_satisfy_tree_invariants():
    # Descriptors store only the edge set; node sets, root-path costs and
    # the partial cost are derived from ``serial`` and must agree with it.
    g = Graph(4, ((0, 1, 3), (0, 2, 1), (1, 2, 1), (1, 3, 2), (2, 3, 4)))
    th = ShortestPathTree(g, 0)
    for layer in enumerate_levels(th, 3):
        for y in layer:
            nodes = {0}
            for ei in y.serial:
                a, b, _ = g.edges[ei]
                nodes.update((a, b))
            assert all(a < b for a, b in zip(y.serial, y.serial[1:]))
            dist = tree_distances(g, frozenset(y.serial), 0)
            assert set(dist) == nodes and len(nodes) == len(y.serial) + 1
            assert th.partial_cost(y) == sum(d for v, d in dist.items())
            crossing = [
                ei for ei, (a, b, _) in enumerate(g.edges) if (a in nodes) != (b in nodes)
            ]
            assert [ei for _, ei in th.child_moves(y)] == crossing
            for inc, ei in th.child_moves(y):
                a, b, w = g.edges[ei]
                assert inc == dist[a if a in nodes else b] + w
                assert th.partial_cost(th.apply_move(y, ei)) == th.partial_cost(y) + inc


def test_forest_component_cache_coherent():
    # Components are derived from ``serial``; the joining edges and
    # semi-congruence must follow the partition replayed here.
    g = Graph(4, ((0, 1, 3), (0, 2, 1), (1, 2, 1), (1, 3, 2), (2, 3, 4)))
    th = KruskalSpanningTree(g)
    for layer in enumerate_levels(th, 3):
        comps = []
        for y in layer:
            comp = list(range(4))
            assert all(a < b for a, b in zip(y.serial, y.serial[1:]))
            for ei in y.serial:
                a, b = g.edges[ei][0], g.edges[ei][1]
                ca, cb = comp[a], comp[b]
                lo, hi = min(ca, cb), max(ca, cb)
                comp = [lo if c == hi else c for c in comp]
            assert th.partial_cost(y) == sum(g.edges[ei][2] for ei in y.serial)
            joining = [
                (w, ei) for ei, (a, b, w) in enumerate(g.edges) if comp[a] != comp[b]
            ]
            assert th.child_moves(y) == joining
            comps.append(comp)
        for y, cy in zip(layer, comps):
            for o, co in zip(layer, comps):
                assert th.semi_congruent(y, o) == (cy == co)


def test_is_spanning_tree():
    g = Graph(4, ((0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)))
    assert is_spanning_tree(g, frozenset((0, 1, 2)))
    assert not is_spanning_tree(g, frozenset((0, 1)))  # too small
    assert not is_spanning_tree(g, frozenset((0, 1, 2, 3)))  # too big
    g2 = Graph(4, ((0, 1, 1), (1, 2, 2), (0, 2, 3), (3, 0, 4)))
    assert not is_spanning_tree(g2, frozenset((0, 1, 2)))  # cycle, misses node 3


@pytest.mark.parametrize("g", [
    Graph(1, ()),
    Graph(2, ((0, 1, 3), (1, 0, 3), (0, 1, 0))),
    Graph(4, ((0, 1, 1), (1, 0, 1), (1, 2, 2), (2, 3, 0), (3, 1, 5), (0, 3, 2))),
    Graph(5, ((0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 2), (4, 3, 2), (1, 0, 4))),
    Graph(6, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, 1),
              (2, 3, 7), (0, 3, 2))),
])
def test_is_spanning_tree_matches_the_component_definition(g):
    # Every subset of the edge indices and the two just out of range, on
    # multigraphs whose parallel edges close two-edge cycles (the 5-node one
    # is disconnected).
    for k in range(g.m + 3):
        for z in map(frozenset, combinations(range(-1, g.m + 1), k)):
            spans = (
                len(z) == g.n - 1
                and all(0 <= ei < g.m for ei in z)
                and max(_components(g, z)) == 0
            )
            assert is_spanning_tree(g, z) == spans, z


# -- greedy walk ---------------------------------------------------------------

TREE_THEORIES = {
    "sssp": ShortestPathTree,
    "prim": PrimSpanningTree,
    "kruskal": KruskalSpanningTree,
}


def walk_variants(problem, g):
    """The theory with its own walk, with the interface's default walk, with
    the keyed pipeline in place of any walk, and with the pairwise pipeline."""
    cls = TREE_THEORIES[problem]
    default = type("DefaultWalk", (cls,), {"greedy_walk": ProblemTheory.greedy_walk})
    keyed = type("Keyed", (cls,), {"strictly_ranked": False})
    pairwise = type("Pairwise", (keyed,), {"equivalence_key": None})
    args = (g,) if cls is KruskalSpanningTree else (g, 0)
    return tuple(c(*args) for c in (cls, default, keyed, pairwise))


@st.composite
def tied_multigraphs(draw):
    """Connected graphs of 1-7 nodes crowded with parallel, zero-weight and
    equal-weight edges, in shuffled order and orientation."""
    n = draw(st.integers(1, 7))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        pairs += draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]),
            max_size=10,
        ))
    pairs = draw(st.permutations(pairs))
    edges = tuple(
        (b, a, w) if flip else (a, b, w)
        for (a, b), w, flip in zip(
            pairs,
            draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs))),
            draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))),
        )
    )
    return Graph(n, edges)


@given(
    tied_multigraphs(),
    st.sampled_from(sorted(TREE_THEORIES)),
    st.sampled_from([None, 0, 1, "n-2"]),
    st.sampled_from(list(Mode)),
)
@settings(max_examples=300, deadline=None)
def test_greedy_walk_equals_default_walk_and_generic_pipeline(g, problem, depth, mode):
    depth_bound = max(g.n - 2, 0) if depth == "n-2" else depth
    theories = walk_variants(problem, g)
    fast, default, keyed, pairwise = (
        solve(bounded(th, depth_bound), EngineConfig(mode=mode)) for th in theories)
    assert fast == default == keyed == pairwise
    assert_stats_ledger(fast.stats)
    # Past the spanning tree both walks stop at a level without moves.
    walk_depth = g.n + 1 if depth_bound is None else depth_bound
    (counts, last), (default_counts, default_last) = (
        bounded(th, walk_depth).greedy_walk() for th in theories[:2])
    assert counts == default_counts and last == default_last


@pytest.mark.parametrize("problem", ["sssp", "prim"])
def test_rooted_walk_pushes_an_edge_that_ties_the_lowest_increment(problem):
    # Node 1 joins before node 2, each along a weight-1 edge.  Node 2's
    # edge 0 into node 3 then ties node 1's edge 2 (increment 5 under SSSP,
    # 4 under Prim), and the smaller index must win.
    g = Graph(4, ((2, 3, 4), (0, 1, 1), (1, 3, 4), (0, 2, 1)))
    fast, default = walk_variants(problem, g)[:2]
    expected = ([2, 2, 2], TreeDescriptor((0, 1, 3)))
    assert fast.greedy_walk() == default.greedy_walk() == expected


@pytest.mark.parametrize("problem", sorted(TREE_THEORIES))
def test_greedy_walk_matches_default_walk_at_scale(problem):
    # Sparse graphs, and one dense graph whose merges join multi-node
    # components along many edges.
    for n, density, seed in (
        (300, 0.05, 1), (500, 0.02, 2), (800, 0.008, 3), (150, 0.5, 4)
    ):
        fast, default = walk_variants(problem, gen_graph(n, density, 50, seed))[:2]
        result = solve(fast, GREEDY)
        assert result == solve(default, GREEDY)
        assert result.stats.levels == n - 1


@pytest.mark.parametrize("problem", sorted(TREE_THEORIES))
def test_one_theory_walks_the_same_every_time(problem):
    # The walks read tables each theory builds once; none may consume them.
    th = walk_variants(problem, gen_graph(60, 0.2, 50, 2))[0]
    assert solve(th, GREEDY) == solve(th, GREEDY)
    assert th.greedy_walk() == th.greedy_walk()


@pytest.mark.parametrize("problem", sorted(TREE_THEORIES))
def test_greedy_walk_matches_keyed_pipeline_at_sixty_nodes(problem):
    # The keyed sweep makes the pipeline practical at a size where testing
    # every pair of siblings was not.
    fast, _, keyed, _ = walk_variants(problem, gen_graph(60, 0.2, 50, 2))
    assert solve(fast, GREEDY) == solve(keyed, GREEDY)


@given(tied_multigraphs(), st.sampled_from(sorted(TREE_THEORIES)), st.data())
@settings(max_examples=200, deadline=None)
def test_equivalence_key_order_equals_dominates_on_siblings(g, problem, data):
    # Along a random path, every pair of one parent's children.
    th = walk_variants(problem, g)[0]
    y = th.initial()
    while children := th.split(y):
        for a in children:
            for b in children:
                assert_key_matches_dominates(th, a, b)
        y = data.draw(st.sampled_from(children))


def identity_keyed_and_pairwise(problem, g):
    """``IdentityDominance`` of the keyed tree pipeline, and its copy
    without an ``equivalence_key``."""
    keyed = IdentityDominance(walk_variants(problem, g)[2])
    pairwise = copy.copy(keyed)
    pairwise.equivalence_key = None
    return keyed, pairwise


@given(tied_multigraphs().filter(lambda g: g.m <= 9), st.sampled_from(sorted(TREE_THEORIES)))
@settings(max_examples=100, deadline=None)
def test_keyed_duplicate_count_equals_pairwise_under_identity_dominance(g, problem):
    # An edge set reached in several orders is a run of equal keys whose
    # members share one serial: all duplicates, none merged.
    keyed, pairwise = identity_keyed_and_pairwise(problem, g)
    assert solve(keyed) == solve(pairwise)


@pytest.mark.parametrize("problem", sorted(TREE_THEORIES))
def test_identity_dominance_counts_each_repeated_edge_set_as_a_duplicate(
    problem, weighted_triangle
):
    keyed, pairwise = identity_keyed_and_pairwise(problem, weighted_triangle)
    result = solve(keyed)
    assert result == solve(pairwise)
    assert result.stats.duplicates_removed > 0
    assert result.stats.equivalence_merged == result.stats.dominated_pruned == 0


@pytest.mark.parametrize("problem", sorted(TREE_THEORIES))
def test_one_node_graph_counts_its_level_zero_local_once(problem):
    for th in walk_variants(problem, Graph(1, ())):
        stats = solve(th, GREEDY).stats
        assert stats.locals_found == 1
        assert stats.levels == 0 and stats.per_level_width == ()
