import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FullPath,
    IncumbentPath,
    assert_stats_ledger,
    multigraphs,
    one_pass_swept,
    pairwise_solve,
    two_pass_swept,
)

from frontier_search import EngineConfig, Mode, GreedyViolation, solve
from frontier_search.cli import gen_graph
from frontier_search.oracles import brute_force, shortest_path_ref
from frontier_search.problems import Graph, PathDescriptor, SinglePairShortestPath
from frontier_search.problems.graphs import InvalidNode


def theory(g, s=0, t=2):
    return SinglePairShortestPath(g, s, t)


def test_initial_is_empty_path(triangle):
    th = theory(triangle)
    root = th.initial()
    assert root == PathDescriptor(serial=(), end=0, cost=0)


def test_split_from_source(triangle):
    # The direct edge 2 (weight 3) costs more than the incumbent, the detour
    # over node 1 (weight 2), so only the unbounded split keeps it.
    th = theory(triangle)
    assert [c.serial for c in th.split(th.initial())] == [(0,)]
    full = FullPath(triangle, 0, 2)
    assert [c.serial for c in full.split(full.initial())] == [(0,), (2,)]


def test_incumbent_sweeps_below_the_fewest_edge_price(triangle):
    # The source discovers node 2 along the direct edge at 3, its fewest-edge
    # cost; node 1 then lowers it through the detour.
    th = theory(triangle)
    assert th._swept == two_pass_swept(th) == [0, 1, 2]
    assert th.incumbent == 2


def test_second_sweep_follows_a_back_edge():
    # Node 2 is swept after node 1, so it lowers node 1 to 2 too late for the
    # first sweep to carry that on to node 3, which it leaves at the
    # fewest-edge cost 11 (``one_pass_swept``).  The second sweep carries it
    # on: the incumbent is the optimum 0-2-1-3, of cost 3.
    g = Graph(4, ((0, 1, 10), (0, 2, 1), (1, 2, 1), (1, 3, 1)))
    th = theory(g, 0, 3)
    assert one_pass_swept(th) == [0, 2, 1, 11]
    assert th._swept == two_pass_swept(th) == [0, 2, 1, 3]
    assert th.incumbent == 3
    result = solve(th)
    assert result.optimal_cost == 3
    assert result.optima == {(1, 2, 3)}


def test_incumbent_misses_a_back_edge_but_solve_does_not():
    # The optimum 0-3-2-1-4 steps back against the breadth-first order
    # 0, 1, 2, 3, 4 twice.  The first sweep lowers node 2 to 2 through node
    # 3, the second lowers node 1 to 3 through node 2, and neither carries
    # node 1's cost on to node 4: the incumbent stays the fewest-edge cost 11,
    # while the optimum costs 4.  The swept cut still builds only the edge to
    # node 3 from the source.
    g = Graph(5, ((0, 1, 10), (0, 2, 10), (0, 3, 1), (2, 3, 1), (1, 2, 1), (1, 4, 1)))
    th = theory(g, 0, 4)
    assert one_pass_swept(th) == [0, 10, 2, 1, 11]
    assert th._swept == two_pass_swept(th) == [0, 3, 2, 1, 11]
    assert th.incumbent == 11
    assert [c.serial for c in th.split(th.initial())] == [(2,)]
    result = solve(th)
    assert result.optimal_cost == 4
    assert result.optima == {(2, 3, 4, 5)}


def test_move_tables_drop_the_heavier_parallel_edge():
    # 0-4-1 reaches node 1 over the zero-weight edge 2 at 0-1's cost, so
    # nodes 1, 2 and 4 are split twice and build their tables.  The heavier
    # of the parallel edges 3 and 4 between nodes 1 and 2 weighs more than
    # either node's limit, so neither table keeps it; the zero-weight edge
    # stays.  The source is split once and keeps no table.
    g = Graph(5, ((0, 1, 2), (0, 4, 2), (4, 1, 0), (1, 2, 5), (1, 2, 1), (2, 3, 1)))
    th = theory(g, 0, 3)
    assert th._limits == [0, 2, 3, 4, 2]
    result = solve(th)
    assert th._moves == [
        False, [(2, 4, 0), (4, 2, 1)], [(4, 1, 1), (5, 3, 1)], [(5, 2, 1)], [(2, 1, 0)]
    ]
    assert result.optimal_cost == 4
    assert result.optima == {(0, 4, 5), (1, 2, 4, 5)}
    assert solve(th) == result


def test_swept_cut_skips_a_child_within_the_incumbent_bound():
    # The direct edge to node 2 costs 3: within h's cap of 22 (the incumbent
    # 22 less the lightest edge at the target, 0) and equal to node 2's
    # fewest-edge cost, but above its swept cost of 2, so it is never built.
    g = Graph(5, ((0, 1, 1), (1, 2, 1), (0, 2, 3), (2, 4, 20), (4, 3, 0)))
    th, ref = theory(g, 0, 3), IncumbentPath(g, 0, 3)
    assert th._swept == two_pass_swept(th) == [0, 1, 2, 22, 22]
    assert [c.serial for c in th.split(th.initial())] == [(0,)]
    assert [c.serial for c in ref.split(ref.initial())] == [(0,), (2,)]
    cut, uncut = solve(th), solve(ref)
    assert cut.stats.per_level_width == ((1, 1),) * 4 + ((0, 0),)
    assert uncut.stats.per_level_width[0] == (2, 2)
    assert cut.optima == uncut.optima == {(0, 1, 3, 4)}
    assert cut.optimal_cost == uncut.optimal_cost == 22


def test_split_avoids_revisits(triangle):
    # From the path along edge 0 (0-1), only the edge to the unvisited node
    # extends; the direct 0-2 edge does not touch the end node.
    th = theory(triangle)
    y = th.apply_move(th.initial(), 0)
    children = th.split(y)
    assert [c.serial for c in children] == [(0, 1)]


def test_split_terminal_space_empty(triangle):
    th = theory(triangle)
    y = th.apply_move(th.apply_move(th.initial(), 0), 1)
    assert th.split(y) == []


def test_extract_only_at_target(triangle):
    th = theory(triangle)
    y = th.apply_move(th.initial(), 0)
    assert th.extract(y) is None
    z = th.apply_move(y, 1)
    assert th.extract(z) == (0, 1)


def test_feasible_checks_contiguous_simple_path(triangle):
    th = theory(triangle)
    assert th.feasible((0, 1))
    assert th.feasible((2,))
    assert not th.feasible((1,))  # does not start at the source
    assert not th.feasible((0,))  # ends short of the target
    assert not th.feasible((0, 1, 2))  # returns to the start node
    assert not th.feasible((0, 99))  # unknown edge index


def test_cost_sums_weights(triangle):
    th = theory(triangle)
    assert th.cost((0, 1)) == 2
    assert th.cost((2,)) == 3
    assert th.cost(()) == 0


def test_partial_cost(triangle):
    th = theory(triangle)
    assert th.partial_cost(th.initial()) == 0
    assert th.partial_cost(th.apply_move(th.initial(), 0)) == 1


def test_semi_congruence_requires_same_end_and_no_extra_visits(diamond):
    th = theory(diamond, 0, 3)
    via1 = th.apply_move(th.apply_move(th.initial(), 0), 2)  # 0-1-3
    via2 = th.apply_move(th.apply_move(th.initial(), 1), 3)  # 0-2-3
    prefix = th.apply_move(th.initial(), 0)  # 0-1
    assert th.semi_congruent(via1, via1)
    # Same end node but neither visited set contains the other's.
    assert not th.semi_congruent(via1, via2)
    assert not th.semi_congruent(prefix, via1)  # different end nodes


def test_dominates_same_end_and_cheaper():
    g = Graph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 5)))
    th = theory(g)
    cheap = th.apply_move(th.apply_move(th.initial(), 0), 1)
    dear = th.apply_move(th.initial(), 2)
    assert th.dominates(cheap, dear)
    assert not th.dominates(dear, cheap)
    assert th.dominates(cheap, cheap)


def test_dominance_key_is_end_node(triangle):
    th = theory(triangle)
    a = th.apply_move(th.initial(), 0)  # ends at 1
    b = th.apply_move(th.initial(), 2)  # ends at 2
    c = th.apply_move(a, 1)  # ends at 2
    assert th.dominance_key(b) == th.dominance_key(c) == 2
    assert th.dominance_key(a) != th.dominance_key(b)


def test_max_depth_is_edge_count():
    g = Graph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    assert theory(g, 0, 3).max_depth() == 4


def test_invalid_nodes_rejected(triangle):
    with pytest.raises(InvalidNode):
        SinglePairShortestPath(triangle, 0, 7)
    with pytest.raises(InvalidNode):
        SinglePairShortestPath(triangle, -1, 2)


def test_unreachable_target_yields_empty_optima():
    g = Graph(3, ((0, 1, 1),))  # node 2 is isolated
    result = solve(theory(g, 0, 2))
    assert result.optimal_cost is None and result.optima == frozenset()
    assert_stats_ledger(result.stats)


def test_two_equal_cost_routes(diamond):
    # Both unit routes cost 2; equal-cost merging keeps one representative,
    # so the result is a nonempty subset of the true optimum set.
    th = theory(diamond, 0, 3)
    result = solve(th)
    assert result.optimal_cost == 2
    assert result.optima <= {(0, 2), (1, 3)}
    assert len(result.optima) >= 1


def test_parallel_edges_supported():
    g = Graph(2, ((0, 1, 5), (0, 1, 2)))
    result = solve(theory(g, 0, 1))
    assert result.optimal_cost == 2 and result.optima == {(1,)}


def test_zero_weight_edges(triangle):
    g = Graph(3, ((0, 1, 0), (1, 2, 0), (0, 2, 3)))
    result = solve(theory(g))
    assert result.optimal_cost == 0 and result.optima == {(0, 1)}


def test_greedy_mode_fails_on_wide_frontier(diamond):
    th = theory(diamond, 0, 3)
    with pytest.raises(GreedyViolation):
        solve(th, EngineConfig(mode=Mode.GREEDY))


def test_greedy_mode_does_not_raise_when_the_frontier_empties():
    # The parallel edge makes m = 3; the third level has no children.  The
    # bound would cut the dearer parallel edge, so the unbounded reference
    # keeps the first level two wide.
    g = Graph(3, ((0, 1, 1), (0, 1, 3), (1, 2, 1)))
    result = solve(FullPath(g, 0, 2), EngineConfig(mode=Mode.GREEDY))
    assert result.optimal_cost == 2 and result.optima == {(0, 2)}
    assert result.stats.per_level_width == ((2, 1), (1, 1), (0, 0))


@given(multigraphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_matches_brute_force_on_multigraphs(g, data):
    th = theory(g, 0, data.draw(st.integers(0, g.n - 1)))
    result = solve(th)
    expected = brute_force(th).optimal_cost
    assert result.optimal_cost == expected
    assert bool(result.optima) == (expected is not None)
    for z in result.optima:
        assert th.feasible(z) and th.cost(z) == expected
    assert_stats_ledger(result.stats)


@pytest.mark.parametrize("keyed", [True, False])
def test_cross_level_ties_are_kept(keyed):
    # The level-2 path (1, 2) reaches node 2 at the cost of the level-1 path
    # (0,); dropping that tie would drop the optimum (1, 2).
    th = theory(Graph(3, ((0, 2, 0), (0, 1, 0), (1, 2, 0))))
    result = (solve if keyed else pairwise_solve)(th)
    assert result.optima == {(0,), (1, 2)}
    assert result.stats.dominated_pruned == 0
    assert_stats_ledger(result.stats)


@pytest.mark.parametrize("keyed", [True, False])
def test_cross_level_strictly_costlier_path_is_pruned(keyed):
    # At level 2, (1, 2) reaches node 2 at cost 1, after the level-1 path
    # (0,) reached it at cost 0; (0, 2) reaches node 1 at cost 0, below the
    # level-1 path (1,) at cost 1, and survives.  The bound would cut every
    # path dearer than the direct edge, so the search runs unbounded.
    th = FullPath(Graph(3, ((0, 2, 0), (0, 1, 1), (1, 2, 0))), 0, 2)
    result = (solve if keyed else pairwise_solve)(th)
    assert result.optima == {(0,)} and result.optimal_cost == 0
    assert result.stats.per_level_width == ((2, 2), (2, 1), (0, 0))
    assert result.stats.dominated_pruned == 1
    assert_stats_ledger(result.stats)


@pytest.mark.parametrize("keyed", [True, False])
def test_cross_level_equal_cost_paths_merge_before_the_prune(keyed):
    # At level 2, (1, 2) and (3, 4) both reach node 2 at cost 2, above the
    # level-1 path (0,) at cost 0.  They merge into (1, 2), which is then
    # pruned: one merge and one prune, not two prunes.  (0, 2) and (0, 4)
    # tie the level-1 costs of nodes 1 and 3 and survive.  The bound would
    # cut every path dearer than the direct edge, so the search runs unbounded.
    g = Graph(4, ((0, 2, 0), (0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 2, 1)))
    th = FullPath(g, 0, 2)
    result = (solve if keyed else pairwise_solve)(th)
    assert result.optima == {(0,)} and result.optimal_cost == 0
    assert result.stats.per_level_width == ((3, 3), (4, 2), (0, 0))
    assert result.stats.equivalence_merged == 1
    assert result.stats.dominated_pruned == 1
    assert_stats_ledger(result.stats)


@pytest.mark.parametrize("seed", [1, 2])
def test_solve_matches_dijkstra_at_scale(seed):
    g = gen_graph(1000, 0.01, 1000, seed)
    th = theory(g, 0, 999)
    result = solve(th)
    assert result.optimal_cost == shortest_path_ref(g, 0)[999]
    assert result.optima and all(th.feasible(z) for z in result.optima)
    assert_stats_ledger(result.stats)
