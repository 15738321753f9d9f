"""Algebraic and soundness properties of the dominance machinery.

Scope notes for the soundness suites:

* Replay soundness is asserted for ``semi_congruent`` exhaustively: every
  completing move sequence of the dominated space must replay legally on the
  dominating one and land on a feasible solution.

* Subtree-optimum soundness ("the dominator's reachable optimum is at least
  as good") is asserted for the relations that justify it pairwise: the
  knapsack relation on same-level pairs and the default
  semi-congruence-plus-cost combinator for paths and both spanning-tree
  variants.  The tree rankings and the shipped single-pair-path ``dominates``
  are ordering devices that are deliberately coarser than pairwise soundness
  allows; what the engine actually relies on is that the *surviving* member
  of each comparison group preserves the group's best reachable completion,
  which is asserted directly (and a concrete pairwise-violating path pair is
  pinned in ``test_spsp_pairwise_unsoundness_is_harmless_in_level_search``).
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FullKnapsack,
    FullPath,
    GreedyIncumbentKnapsack,
    IncumbentPath,
    ScanPath,
    assert_bound_is_the_scan,
    assert_key_matches_dominates,
    assert_stats_ledger,
    enumerate_levels,
    forced_fill_incumbent,
    multigraphs,
    one_pass_swept,
    pairwise_filter,
    pairwise_reduce,
    pairwise_solve,
    scan_fill,
    scan_split,
    sibling_families,
    two_pass_swept,
)

from frontier_search import IdentityDominance, solve
from frontier_search.cli import gen_graph, gen_knapsack
from frontier_search.engine import (
    expand,
    filter_dominated,
    opt_c,
    reduce_equivalent,
)
from frontier_search.oracles import brute_force, distances, enumerate_extensions
from frontier_search.problems import (
    Graph,
    Knapsack,
    KnapsackInstance,
    KruskalSpanningTree,
    PrimSpanningTree,
    ShortestPathTree,
    SinglePairShortestPath,
    is_connected,
)
from frontier_search.theory import Direction, ProblemTheory


def small_graphs(count, max_edges=8, seed=100):
    graphs = []
    k = 0
    while len(graphs) < count:
        rng = random.Random(seed + k)
        k += 1
        g = gen_graph(rng.randint(4, 5), rng.uniform(0.4, 0.9), 6, seed + k)
        if g.m <= max_edges:
            graphs.append(g)
    return graphs


def preorder_pools():
    """Per-problem theory pools large enough for the 1000-sample suites."""
    dense = [gen_graph(6, 0.85, 6, seed=500 + k) for k in range(4)]
    return {
        "spsp": [SinglePairShortestPath(g, 0, g.n - 1) for g in dense],
        "sssp": [ShortestPathTree(g, 0) for g in dense],
        "mst-prim": [PrimSpanningTree(g, 0) for g in dense],
        "mst-kruskal": [KruskalSpanningTree(g) for g in dense],
        "knapsack": [
            Knapsack(gen_knapsack(10, None, 6, 6, seed=600 + k)) for k in range(4)
        ],
    }


SIBLING_SCOPED = ("sssp", "mst-prim", "mst-kruskal")


def preorder_sample_counts():
    """Run reflexivity/transitivity checks; return samples tested per problem.

    Pairs are drawn within each relation's documented scope: same-level
    descriptors for paths and knapsack, same-parent children for the ranked
    tree theories.
    """
    counts: dict[str, int] = {}
    for name, pool in preorder_pools().items():
        rng = random.Random(hash(name) & 0xFFFF)
        checked = 0
        for theory in pool:
            if name in SIBLING_SCOPED:
                groups = sibling_families(theory)
            else:
                groups = [layer for layer in enumerate_levels(theory) if layer]
            for group in groups:
                for y in group:
                    assert theory.dominates(y, y)
                    checked += 1
            big = [g for g in groups if len(g) >= 3]
            for _ in range(2000):
                if not big:
                    break
                group = rng.choice(big)
                a, b, c = rng.choice(group), rng.choice(group), rng.choice(group)
                if theory.dominates(a, b) and theory.dominates(b, c):
                    assert theory.dominates(a, c)
                checked += 1
        counts[name] = checked
    return counts


def small_knapsacks(count, max_items=6, seed=300):
    return [
        gen_knapsack(random.Random(seed + k).randint(1, max_items), None, 6, 6, seed + k)
        for k in range(count)
    ]


def path_theories(count=6):
    return [SinglePairShortestPath(g, 0, g.n - 1) for g in small_graphs(count)]


def tree_theories(count=6):
    out = []
    for g in small_graphs(count):
        out.append(PrimSpanningTree(g, 0))
        out.append(KruskalSpanningTree(g))
        out.append(ShortestPathTree(g, 0))
    return out


def knapsack_theories(count=6):
    return [Knapsack(inst) for inst in small_knapsacks(count)]


def same_level_pairs(theory):
    for layer in enumerate_levels(theory):
        for y in layer:
            for other in layer:
                yield y, other


def best_completion(theory, y):
    costs = [
        c
        for _, _, c in enumerate_extensions(
            theory, y, theory.max_depth() - len(y.serial)
        )
    ]
    if not costs:
        return None
    return min(costs) if theory.direction is Direction.MINIMIZE else max(costs)


# -- preorder laws -------------------------------------------------------------


def test_preorder_laws_on_thousand_samples_per_problem():
    counts = preorder_sample_counts()
    assert set(counts) == {"spsp", "sssp", "mst-prim", "mst-kruskal", "knapsack"}
    for name, checked in counts.items():
        assert checked >= 1000, (name, checked)


# -- semi-congruence: extension replay is sound ---------------------------------


def replay_transfers(theory, y, completions):
    """Every move sequence must be legal from ``y`` and end feasible."""
    for moves, _, _ in completions:
        cur = y
        for mv in moves:
            if mv not in {m for _, m in theory.child_moves(cur)}:
                return False
            cur = theory.apply_move(cur, mv)
        z = theory.extract(cur)
        if z is None or not theory.feasible(z):
            return False
    return True


def assert_replay_soundness(theory):
    for layer in enumerate_levels(theory):
        completions = {
            y.serial: enumerate_extensions(
                theory, y, theory.max_depth() - len(y.serial)
            )
            for y in layer
        }
        for y in layer:
            for other in layer:
                if y is other or not theory.semi_congruent(y, other):
                    continue
                assert replay_transfers(theory, y, completions[other.serial]), (
                    y.serial,
                    other.serial,
                )


def test_semi_congruence_replay_soundness_exhaustive():
    for theory in path_theories() + tree_theories() + knapsack_theories():
        assert_replay_soundness(theory)


def test_semi_congruence_plus_cheaper_implies_dominance():
    # The immediate-dominance combinator, on theories whose cost is
    # compositional along replayed extensions.
    for theory in path_theories() + knapsack_theories():
        for y, other in same_level_pairs(theory):
            if theory.semi_congruent(y, other) and theory.direction.at_least_as_good(
                theory.partial_cost(y), theory.partial_cost(other)
            ):
                assert theory.dominates(y, other)


# -- dominance: subtree optima are preserved ------------------------------------


def test_knapsack_dominance_subtree_soundness():
    for theory in knapsack_theories():
        for y, other in same_level_pairs(theory):
            if y is other or not theory.dominates(y, other):
                continue
            best_other = best_completion(theory, other)
            if best_other is None:
                continue  # vacuous: nothing reachable to preserve
            assert best_completion(theory, y) >= best_other


def test_tree_ranking_survivor_preserves_family_optimum():
    # The undominated member of every sibling family (the ranking minimum)
    # must reach a completion at least as good as any sibling's: this is the
    # exchange-argument safety the greedy search rests on.  (Between two
    # non-minimal siblings the ranking carries no such guarantee.)
    for theory in tree_theories(4):
        for family in sibling_families(theory):
            survivor = min(family, key=lambda y: (theory.partial_cost(y), y.serial))
            assert all(
                theory.dominates(survivor, other) for other in family
            )
            best_of_family = min(
                (
                    b
                    for b in (best_completion(theory, y) for y in family)
                    if b is not None
                ),
                default=None,
            )
            if best_of_family is not None:
                assert best_completion(theory, survivor) == best_of_family


def test_default_combinator_subtree_soundness_for_paths_and_forests():
    # semi-congruent and cheaper: sound for simple paths (strict visited
    # containment) and for both spanning-tree variants (equal reached
    # nodes/components leave identical completions).
    theories = path_theories(4) + [
        th
        for g in small_graphs(3)
        for th in (PrimSpanningTree(g, 0), KruskalSpanningTree(g))
    ]
    checked = 0
    for theory in theories:
        for y, other in same_level_pairs(theory):
            if y is other:
                continue
            if not (
                theory.semi_congruent(y, other)
                and theory.partial_cost(y) <= theory.partial_cost(other)
            ):
                continue
            best_other = best_completion(theory, other)
            if best_other is None:
                continue
            assert best_completion(theory, y) <= best_other
            checked += 1
    assert checked > 50


def test_spsp_pairwise_unsoundness_is_harmless_in_level_search():
    # Same end node plus cheaper is NOT pairwise subtree-sound for simple
    # paths: the cheap prefix can block the only cheap completion.  The
    # frontier search, which compares paths within a level and drops a path
    # strictly costlier than one that reached its end node at an earlier
    # level, is still exact, because whenever that happens an equally cheap
    # route survives elsewhere in the tree.  The move bound would cut the
    # dear completion, so the unbounded reference runs here.
    g = Graph(
        6,
        (
            (0, 1, 0),  # s-a
            (1, 3, 0),  # a-c
            (0, 2, 1),  # s-b
            (2, 3, 1),  # b-c
            (1, 5, 0),  # a-t
            (3, 4, 9),  # c-d
            (4, 5, 9),  # d-t
        ),
    )
    th = FullPath(g, 0, 5)
    via_a = th.apply_move(th.apply_move(th.initial(), 0), 1)  # s-a-c, cost 0
    via_b = th.apply_move(th.apply_move(th.initial(), 2), 3)  # s-b-c, cost 2
    assert th.dominates(via_a, via_b)
    # ...yet the dominated space holds the cheaper completion:
    assert best_completion(th, via_a) == 18
    assert best_completion(th, via_b) == 2
    # The search as a whole is still exact.
    result = solve(th)
    assert result.optimal_cost == brute_force(th).optimal_cost == 0


# -- structural properties -------------------------------------------------------


def test_partial_cost_compositional_over_splits():
    # The parallel-edge graphs add parallel and zero-weight edges, and the
    # tree theories' ``partial_cost`` is their ``cost``, so each
    # increment is held to the cost of the child's edge set.
    theories = path_theories(3) + tree_theories(3) + knapsack_theories(3)
    for g in filter(is_connected, parallel_edge_graphs(8)):
        theories += [
            PrimSpanningTree(g, 0), ShortestPathTree(g, 0), KruskalSpanningTree(g)
        ]
    for theory in theories:
        for layer in enumerate_levels(theory):
            for y in layer:
                for inc, move in theory.child_moves(y):
                    child = theory.apply_move(y, move)
                    assert theory.partial_cost(child) == theory.partial_cost(y) + inc


def test_dominance_key_sound_partition():
    # An ``IdentityDominance`` copy keeps its base's ``dominance_key``, which
    # stays a sound partition for its serial-equality dominance.
    leveled = path_theories(3) + knapsack_theories(3)
    for theory in leveled + [IdentityDominance(th) for th in leveled]:
        for y, other in same_level_pairs(theory):
            if theory.dominates(y, other):
                assert theory.dominance_key(y) == theory.dominance_key(other)
    trees = tree_theories(3)
    for theory in trees + [IdentityDominance(th) for th in trees]:
        for family in sibling_families(theory):
            for y in family:
                for other in family:
                    if theory.dominates(y, other):
                        assert theory.dominance_key(y) == theory.dominance_key(other)


def test_level_increments_by_one_per_split():
    # A descriptor's level is ``len(serial)``: the root's serial is empty,
    # each split extends its parent's by one element, and a descriptor is an
    # immutable value whose serial cannot be assigned.
    for theory in path_theories(2) + tree_theories(2) + knapsack_theories(2):
        assert theory.initial().serial == ()
        for level, layer in enumerate(enumerate_levels(theory)):
            for y in layer:
                assert len(y.serial) == level
                with pytest.raises(AttributeError):
                    y.serial = y.serial
                for child in theory.split(y):
                    # One element inserted: appended for paths and knapsack,
                    # in sorted place for the trees' edge sets.
                    c = child.serial
                    assert y.serial in [c[:i] + c[i + 1 :] for i in range(len(c))]


def parallel_edge_graphs(count=4, seed=700):
    """Small graphs in which every edge has a parallel twin, ends swapped."""
    graphs = []
    for k in range(count):
        rng = random.Random(seed + k)
        n = rng.randint(4, 5)
        edges = []
        for _ in range(6):
            a, b = rng.sample(range(n), 2)
            edges += [(a, b, rng.randint(0, 2)), (b, a, rng.randint(0, 2))]
        graphs.append(Graph(n, tuple(edges)))
    return graphs


def test_split_equals_default_split():
    # An overriding ``split`` must build exactly what ``apply_move`` over
    # ``child_moves`` builds: same order, same type, same field values.
    # Knapsack and spsp read ``child_moves`` off their ``split``, so for them
    # this holds ``apply_move`` to the children ``split`` builds.
    theories = [th for pool in preorder_pools().values() for th in pool]
    theories += [SinglePairShortestPath(g, 0, g.n - 1) for g in parallel_edge_graphs()]
    for theory in theories + [IdentityDominance(th) for th in theories]:
        for layer in enumerate_levels(theory):
            for y in layer:
                fast = theory.split(y)
                default = ProblemTheory.split(theory, y)
                assert len(fast) == len(default), y
                for a, b in zip(fast, default):
                    assert type(a) is type(b) and a == b, (y, a, b)


def test_split_children_duplicate_free():
    for theory in path_theories(2) + tree_theories(2) + knapsack_theories(2):
        for layer in enumerate_levels(theory):
            for y in layer:
                serials = [c.serial for c in theory.split(y)]
                assert len(serials) == len(set(serials))
                assert serials == sorted(serials)


def test_path_descriptor_caches_coherent():
    # Unbounded, so that ``child_moves`` is every edge to an unvisited node.
    for theory in [FullPath(g, 0, g.n - 1) for g in small_graphs(3)]:
        g = theory.graph
        for layer in enumerate_levels(theory):
            for y in layer:
                cur, seen, cost = theory.source, {theory.source}, 0
                for ei in y.serial:
                    a, b, w = g.edges[ei]
                    cur = b if cur == a else a
                    seen.add(cur)
                    cost += w
                assert (y.end, y.cost) == (cur, cost)
                # The derived node set lets through exactly the edges from
                # the end node to a node the path has not visited.
                assert [ei for _, ei in theory.child_moves(y)] == [
                    ei
                    for ei, (a, b, _) in enumerate(g.edges)
                    if cur in (a, b) and (b if cur == a else a) not in seen
                ]


def test_knapsack_descriptor_caches_coherent():
    for theory in knapsack_theories(3):
        items, order = theory.instance.items, theory._ratio_order
        for layer in enumerate_levels(theory):
            for y in layer:
                # Bit k decides item ``order[k]``.
                chosen = [order[k] for k, bit in enumerate(y.serial) if bit]
                w = sum(items[i][0] for i in chosen)
                u = sum(items[i][1] for i in chosen)
                assert (y.weight, y.utility) == (w, u)
                assert y.weight <= theory.instance.capacity


def frontier_width_bound(theory):
    """The undominated frontier width per level that the theory documents."""
    if isinstance(theory, Knapsack):
        return theory.instance.capacity + 1  # one survivor per distinct weight
    if isinstance(theory, SinglePairShortestPath):
        return theory.graph.n  # one survivor per end node
    return 1  # the tree theories keep the greedy child alone


def test_pruning_conservativeness():
    # Disabling dominance entirely must not change the optimal cost, and
    # with it every level stays within the theory's width bound.  With
    # dominance off nothing merges or prunes, so on all five problems the
    # search keeps every optimum the unpruned oracle finds.
    for theory in path_theories(4) + tree_theories(3) + knapsack_theories(4):
        result = solve(theory)
        unpruned = solve(IdentityDominance(theory))
        oracle = brute_force(theory)
        assert result.optimal_cost == unpruned.optimal_cost == oracle.optimal_cost
        assert unpruned.stats.equivalence_merged == unpruned.stats.dominated_pruned == 0
        assert len(unpruned.optima) == oracle.witness_count
        assert_stats_ledger(unpruned.stats)
        bound = frontier_width_bound(theory)
        assert all(undom <= bound for _, undom in result.stats.per_level_width)


def test_spsp_frontier_width_bounded_by_node_count():
    for g in small_graphs(6) + [gen_graph(6, 0.9, 5, seed=9)]:
        th = SinglePairShortestPath(g, 0, g.n - 1)
        result = solve(th)
        assert all(undom <= g.n for _, undom in result.stats.per_level_width)
        assert_stats_ledger(result.stats)


def test_spsp_width_exceeds_node_count_without_dominance():
    g = gen_graph(6, 1.0, 5, seed=11)  # complete graph on 6 nodes
    th = FullPath(g, 0, 5)  # the move bound alone keeps this one narrow
    result = solve(IdentityDominance(th))
    assert max(undom for _, undom in result.stats.per_level_width) > g.n


# -- hypothesis spot checks ------------------------------------------------------


@given(
    st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)), max_size=30),
    st.sampled_from([Direction.MINIMIZE, Direction.MAXIMIZE]),
)
@settings(max_examples=120, deadline=None)
def test_opt_c_is_cost_extremal_subset(pairs, direction):
    candidates = [(f"z{i}", c) for i, (_, c) in enumerate(pairs)]
    cost, best = opt_c(candidates, direction)
    if not candidates:
        assert cost is None and best == frozenset()
        return
    costs = [c for _, c in candidates]
    assert cost == (min(costs) if direction is Direction.MINIMIZE else max(costs))
    assert best == {z for z, c in candidates if c == cost}


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_knapsack_engine_matches_subset_enumeration(seed):
    inst = gen_knapsack(random.Random(seed).randint(0, 7), None, 8, 8, seed)
    theory = Knapsack(inst)
    result = solve(theory)
    n = inst.n
    best = None
    for mask in range(1 << n):
        sel = [i for i in range(n) if mask >> i & 1]
        if sum(inst.items[i][0] for i in sel) <= inst.capacity:
            u = sum(inst.items[i][1] for i in sel)
            best = u if best is None else max(best, u)
    assert result.optimal_cost == best


@given(st.integers(0, 2**30), st.data())
@settings(max_examples=150, deadline=None)
def test_knapsack_equivalence_key_order_equals_dominates(seed, data):
    rng = random.Random(seed)
    theory = Knapsack(gen_knapsack(rng.randint(1, 6), None, 4, 4, seed))
    layer = data.draw(st.sampled_from(enumerate_levels(theory)[1:]))
    y, other = data.draw(st.sampled_from(layer)), data.draw(st.sampled_from(layer))
    assert_key_matches_dominates(theory, y, other)


@given(st.integers(0, 2**30), st.data())
@settings(max_examples=150, deadline=None)
def test_spsp_equivalence_key_order_equals_dominates(seed, data):
    rng = random.Random(seed)
    g = gen_graph(rng.randint(3, 5), rng.uniform(0.5, 1.0), 3, seed)
    theory = SinglePairShortestPath(g, 0, g.n - 1)
    pairs = [
        (y, other)
        for layer in enumerate_levels(theory)[1:]
        for y in layer
        for other in layer
        if y.end == other.end
    ]
    y, other = data.draw(st.sampled_from(pairs))
    assert_key_matches_dominates(theory, y, other)


def test_equivalence_key_states_dominates_on_every_pair():
    # The key is the engine's only view of dominance: the reduce and the
    # sweep read it within a level, and the history prune across levels.  So
    # every ordered pair of reachable descriptors, of one level or of two, is
    # held to ``dominates``: spsp bounded and unbounded, knapsack, and the
    # ``IdentityDominance`` copy of each.
    spsp = spsp_bound_pool()
    leveled = (
        spsp
        + [FullPath(th.graph, th.source, th.target) for th in spsp]
        + knapsack_theories(12)
        + preorder_pools()["knapsack"]
    )
    for theory in leveled + [IdentityDominance(th) for th in leveled]:
        reached = [y for layer in enumerate_levels(theory) for y in layer]
        for y, other in product(reached, repeat=2):
            assert_key_matches_dominates(theory, y, other)


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_keyed_solve_equals_pairwise_solve(seed):
    rng = random.Random(seed)
    inst = gen_knapsack(rng.randint(0, 20), None, rng.randint(1, 20), 20, seed)
    assert solve(Knapsack(inst)) == pairwise_solve(Knapsack(inst))
    g = gen_graph(rng.randint(2, 14), rng.uniform(0.0, 0.6), 5, seed)
    target = rng.randrange(g.n)
    assert solve(SinglePairShortestPath(g, 0, target)) == pairwise_solve(
        SinglePairShortestPath(g, 0, target)
    )


# -- knapsack bound ----------------------------------------------------------------

#: Small instances with capacity 0 and zero-weight items among them.
knapsack_instances = st.builds(
    KnapsackInstance,
    st.integers(0, 12),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=10).map(tuple),
)


@given(knapsack_instances)
@settings(max_examples=150, deadline=None)
def test_knapsack_bound_keeps_every_move_that_can_reach_the_incumbent(inst):
    # Completions are enumerated over the raw items, not through the theory.
    th, full = Knapsack(inst), FullKnapsack(inst)

    @lru_cache(maxsize=None)
    def best_rest(level, room):
        # The items not yet decided at ``level``: the rest of the ratio order.
        rest = [inst.items[i] for i in th._ratio_order[level:]]
        return max(
            sum(u for (_, u), bit in zip(rest, bits) if bit)
            for bits in product((0, 1), repeat=len(rest))
            if sum(w for (w, _), bit in zip(rest, bits) if bit) <= room
        )

    # The incumbent is a feasible solution's utility.
    assert th.incumbent <= best_rest(0, inst.capacity)
    for layer in enumerate_levels(full):
        for y in layer:
            kept = th.child_moves(y)
            assert th.split(y) == [th.apply_move(y, m) for _, m in kept]
            every = full.child_moves(y)
            assert kept == [m for m in every if m in kept]
            for inc, move in every:
                child = full.apply_move(y, move)
                room = inst.capacity - child.weight
                if child.utility + best_rest(len(child.serial), room) >= th.incumbent:
                    assert (inc, move) in kept, (y, move)


@given(knapsack_instances)
@settings(max_examples=150, deadline=None)
def test_knapsack_incumbent_is_a_feasible_fill_from_greedy_to_optimum(inst):
    # Subsets are enumerated over the raw items, not through the theory.
    th = Knapsack(inst)
    feasible = {
        sum(u for (_, u), bit in zip(inst.items, bits) if bit)
        for bits in product((0, 1), repeat=inst.n)
        if sum(w for (w, _), bit in zip(inst.items, bits) if bit) <= inst.capacity
    }
    assert th.greedy_fill in feasible and th.incumbent in feasible
    assert th.greedy_fill <= th.incumbent <= max(feasible)
    assert th.greedy_fill == scan_fill(th.decided, inst.capacity)
    assert th.incumbent == forced_fill_incumbent(th)
    # A lower incumbent prunes less, and no optimum depends on which.
    run, greedy_run = solve(th), solve(GreedyIncumbentKnapsack(inst))
    assert run.optima == greedy_run.optima
    assert run.optimal_cost == greedy_run.optimal_cost
    assert run.stats.generated <= greedy_run.stats.generated
    assert_stats_ledger(run.stats)


@given(
    st.builds(
        KnapsackInstance,
        st.integers(0, 40),
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=18
        ).map(tuple),
    )
)
@settings(max_examples=80, deadline=None)
def test_bounded_knapsack_solve_equals_full_knapsack_solve(inst):
    bounded_run, full_run = solve(Knapsack(inst)), solve(FullKnapsack(inst))
    assert bounded_run.optima == full_run.optima
    assert bounded_run.optimal_cost == full_run.optimal_cost
    assert bounded_run.stats.generated <= full_run.stats.generated
    assert_stats_ledger(bounded_run.stats)


def test_bounded_knapsack_levels_are_the_full_levels_the_bound_admits():
    # Each level's survivors are the unbounded search's survivors whose
    # bound reaches the incumbent, in the same order.
    for th in preorder_pools()["knapsack"] + knapsack_theories():
        full = FullKnapsack(th.instance)
        frontier, full_frontier = [th.initial()], [full.initial()]
        history, full_history = {}, {}
        while full_frontier:
            frontier = filter_dominated(
                th, reduce_equivalent(th, expand(th, frontier))[0], history
            )[0]
            full_frontier = filter_dominated(
                full, reduce_equivalent(full, expand(full, full_frontier))[0], full_history
            )[0]
            assert frontier == [
                y
                for y in full_frontier
                if th._reaches(len(y.serial), th.capacity - y.weight, y.utility)
            ]


def test_bisected_knapsack_bound_is_the_linear_scan_on_property_pools():
    for th in preorder_pools()["knapsack"] + knapsack_theories(12):
        assert_bound_is_the_scan(th)


def test_bounded_knapsack_equals_full_knapsack_on_property_pools():
    for th in preorder_pools()["knapsack"] + knapsack_theories(12):
        full = FullKnapsack(th.instance)
        for a, b in ((th, full), (IdentityDominance(th), IdentityDominance(full))):
            bounded_run, full_run = solve(a), solve(b)
            assert bounded_run.optima == full_run.optima
            assert bounded_run.optimal_cost == full_run.optimal_cost


# -- spsp bound ----------------------------------------------------------------


def simple_paths(g, start, target, seen):
    """``(edges, cost)`` of every simple path from ``start`` to ``target``
    that enters no node of ``seen``, walked over the raw edge list."""
    if start == target:
        return [(0, 0)]
    found = []
    for a, b, w in g.edges:
        if start in (a, b) and (other := b if start == a else a) not in seen:
            for k, c in simple_paths(g, other, target, seen | {other}):
                found.append((k + 1, c + w))
    return found


def path_nodes(g, source, serial):
    nodes = {source}
    for ei in serial:
        nodes.update(g.edges[ei][:2])
    return nodes


def fewest_edge_cost(paths):
    """The cheapest of the ``(edges, cost)`` paths with the fewest edges,
    ``None`` if there are none."""
    fewest = min((k for k, _ in paths), default=None)
    return min((c for k, c in paths if k == fewest), default=None)


@given(multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_spsp_bound_keeps_every_move_that_can_reach_the_incumbent(g, data):
    # Completions and fewest-edge costs are enumerated over the raw edges,
    # not through the theory.
    target = data.draw(st.integers(0, g.n - 1))
    th, full = SinglePairShortestPath(g, 0, target), FullPath(g, 0, target)
    # Each swept cost is the cost of one simple path to its node, between
    # Dijkstra's distance and the cheapest of its paths with the fewest
    # edges; the incumbent is the target's.
    dist = distances(g, 0)
    swept = th._swept
    for v in range(g.n):
        paths = simple_paths(g, 0, v, {0})
        if paths:
            assert swept[v] in {c for _, c in paths}
            assert dist[v] <= swept[v] <= fewest_edge_cost(paths)
        else:
            assert swept[v] == -1
    assert th.incumbent == (swept[target] if swept[target] >= 0 else None)
    for layer in enumerate_levels(full):
        for y in layer:
            kept = th.child_moves(y)
            assert th.split(y) == [th.apply_move(y, m) for _, m in kept]
            every = full.child_moves(y)
            assert kept == [m for m in every if m in kept]
            for inc, move in every:
                child = full.apply_move(y, move)
                seen = path_nodes(g, 0, child.serial)
                rest = simple_paths(g, child.end, target, seen)
                if (
                    rest
                    and child.cost + min(c for _, c in rest) <= th.incumbent
                    and child.cost <= swept[child.end]
                ):
                    assert (inc, move) in kept, (y, move)
                if (inc, move) in kept:
                    assert child.cost <= swept[child.end], (y, move)


@given(multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_bounded_spsp_solve_equals_full_path_solve(g, data):
    target = data.draw(st.integers(0, g.n - 1))
    th, full = SinglePairShortestPath(g, 0, target), FullPath(g, 0, target)
    dijkstra = distances(g, 0).get(target)
    for a, b in ((th, full), (IdentityDominance(th), IdentityDominance(full))):
        bounded_run, full_run = solve(a), solve(b)
        assert bounded_run.optima == full_run.optima
        assert bounded_run.optimal_cost == full_run.optimal_cost == dijkstra
        assert bounded_run.stats.generated <= full_run.stats.generated
        assert_stats_ledger(bounded_run.stats)


#: Node 3 is isolated.
UNREACHABLE = Graph(4, ((0, 1, 1), (1, 2, 0)))
#: Node 3 has only zero-weight edges; the direct edge 4 costs 0.
ZERO_AT_TARGET = Graph(4, ((0, 1, 0), (1, 3, 0), (0, 2, 1), (2, 3, 0), (0, 3, 0)))


def spsp_bound_pool():
    """The spsp property pools, the source as target, and the edge cases."""
    graphs = small_graphs(12) + parallel_edge_graphs()
    pool = [SinglePairShortestPath(g, 0, g.n - 1) for g in graphs]
    pool += [SinglePairShortestPath(g, 0, 0) for g in graphs[:4]]
    pool += preorder_pools()["spsp"]
    pool += [SinglePairShortestPath(g, 0, 3) for g in (UNREACHABLE, ZERO_AT_TARGET)]
    return pool


def test_spsp_bound_edge_cases():
    unreachable = SinglePairShortestPath(UNREACHABLE, 0, 3)
    assert unreachable.incumbent is None
    root = unreachable.initial()
    assert unreachable.child_moves(root) == unreachable.split(root) == []
    assert solve(unreachable).stats.per_level_width == ((0, 0),)
    at_source = SinglePairShortestPath(ZERO_AT_TARGET, 3, 3)
    assert at_source.incumbent == 0 and solve(at_source).optima == {()}
    # The lightest edge at the target weighs 0, so every node's limit is the
    # incumbent, and a path that ties it is kept.
    zero = SinglePairShortestPath(ZERO_AT_TARGET, 0, 3)
    assert zero.incumbent == 0
    assert solve(zero).optima == solve(FullPath(ZERO_AT_TARGET, 0, 3)).optima
    assert solve(zero).optima == {(4,), (0, 1)}


def test_second_sweep_lies_between_dijkstra_and_the_first():
    # The second sweep only lowers swept costs, never below Dijkstra's
    # distance, and reaches the nodes the first reaches; on these pools it
    # lowers some.  Skipping the nodes whose cost has not fallen leaves the
    # costs of the second sweep over every node.
    graphs = [gen_graph(100, 0.2, 1000, seed) for seed in (1, 2, 3)]
    pool = spsp_bound_pool() + [SinglePairShortestPath(g, 0, 99) for g in graphs]
    lowered = 0
    for th in pool:
        assert th._swept == two_pass_swept(th), th.graph
        dist, first = distances(th.graph, th.source), one_pass_swept(th)
        for v, swept in enumerate(th._swept):
            if v in dist:
                assert dist[v] <= swept <= first[v], (th.graph, v)
                lowered += swept < first[v]
            else:
                assert swept == first[v] == -1
    assert lowered


@given(multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_second_sweep_skips_only_nodes_that_lower_nothing(g, data):
    # Skipping a node whose cost has not fallen since the first sweep reached
    # it leaves every swept cost as the second sweep over every node sets it.
    th = SinglePairShortestPath(g, data.draw(st.integers(0, g.n - 1)), 0)
    assert th._swept == two_pass_swept(th)


def assert_split_is_the_scan(g, source, target):
    # Every simple path from the source, split three times by a new theory:
    # the first split of a node scans its adjacency, the second builds its
    # move table and the third reads it.  Each equals the full scan.
    paths = enumerate_levels(FullPath(g, source, target))
    for th in (SinglePairShortestPath(g, source, target), IncumbentPath(g, source, target)):
        for layer in paths:
            for y in layer:
                for _ in range(3):
                    assert th.split(y) == scan_split(th, y), (g, type(th), y)


def test_split_is_the_full_scan_on_property_pools():
    for th in spsp_bound_pool():
        assert_split_is_the_scan(th.graph, th.source, th.target)


@given(multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_split_is_the_full_scan(g, data):
    assert_split_is_the_scan(g, 0, data.draw(st.integers(0, g.n - 1)))


def test_spsp_theories_on_one_graph_keep_their_own_move_tables():
    # Two targets give two sets of limits, and so two sets of tables.  Solved
    # in turn, again and again, each theory returns the result of its search
    # without tables.
    graphs = [gen_graph(100, 0.2, 1000, seed) for seed in (1, 2, 3)]
    for g in graphs + [th.graph for th in spsp_bound_pool()]:
        targets = (g.n - 1, g.n // 2)
        solo = [solve(ScanPath(g, 0, t)) for t in targets]
        pair = [SinglePairShortestPath(g, 0, t) for t in targets]
        for _ in range(3):
            assert [solve(th) for th in pair] == solo, g


#: The engine's dominance stages and the tests' pairwise reference stages.
STAGES = ((reduce_equivalent, filter_dominated), (pairwise_reduce, pairwise_filter))


def test_bounded_spsp_levels_are_the_full_levels_the_bound_admits():
    # Under the incumbent bound alone, each level's survivors are the
    # unbounded search's survivors whose cost is within their end node's
    # limit, in the same order, keyed and pairwise: h is consistent.
    for base in spsp_bound_pool():
        g, source, target = base.graph, base.source, base.target
        for reduce, filter_ in STAGES:
            th, full = IncumbentPath(g, source, target), FullPath(g, source, target)
            frontier, full_frontier = [th.initial()], [full.initial()]
            history, full_history = {}, {}
            while full_frontier:
                frontier = filter_(th, reduce(th, expand(th, frontier))[0], history)[0]
                full_frontier = filter_(
                    full, reduce(full, expand(full, full_frontier))[0], full_history
                )[0]
                limits = th._limits
                assert frontier == [y for y in full_frontier if y.cost <= limits[y.end]]


def test_bounded_spsp_equals_full_path_on_property_pools():
    for th in spsp_bound_pool():
        full = FullPath(th.graph, th.source, th.target)
        dijkstra = distances(th.graph, th.source).get(th.target)
        for a, b in ((th, full), (IdentityDominance(th), IdentityDominance(full))):
            bounded_run, full_run = solve(a), solve(b)
            assert bounded_run.optima == full_run.optima
            assert bounded_run.optimal_cost == full_run.optimal_cost == dijkstra
            assert bounded_run.stats.generated <= full_run.stats.generated


# -- spsp swept cut ------------------------------------------------------------


def optimal_cost_members(th, dist, reduce=reduce_equivalent, filter_=filter_dominated):
    """Each level's survivors that cost Dijkstra's distance to their end
    node, stepping the given stages (the engine's by default) level by
    level."""
    frontier, history, levels = [th.initial()], {}, []
    while frontier:
        levels.append([y for y in frontier if y.cost == dist[y.end]])
        frontier = filter_(th, reduce(th, expand(th, frontier))[0], history)[0]
    return levels


def assert_swept_cut_keeps_the_optimal_cost_members(g, source, target):
    # The cut may change which costlier members a level keeps, but each level
    # keeps the same members that cost the distance to their end node, in
    # the same order, so the optima agree; it builds no more children.
    dist = distances(g, source)
    for run, stages in zip((solve, pairwise_solve), STAGES):
        th, ref = SinglePairShortestPath(g, source, target), IncumbentPath(g, source, target)
        cut, uncut = run(th), run(ref)
        assert cut.optima == uncut.optima
        assert cut.optimal_cost == uncut.optimal_cost
        assert cut.stats.generated <= uncut.stats.generated
        assert_stats_ledger(cut.stats)
        assert optimal_cost_members(th, dist, *stages) == optimal_cost_members(ref, dist, *stages)
    th, ref = SinglePairShortestPath(g, source, target), IncumbentPath(g, source, target)
    assert solve(IdentityDominance(th)).optima == solve(IdentityDominance(ref)).optima


def test_spsp_swept_cut_keeps_the_optimal_cost_members_on_property_pools():
    for th in spsp_bound_pool():
        assert_swept_cut_keeps_the_optimal_cost_members(th.graph, th.source, th.target)


@given(multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_spsp_swept_cut_keeps_the_optimal_cost_members(g, data):
    target = data.draw(st.integers(0, g.n - 1))
    assert_swept_cut_keeps_the_optimal_cost_members(g, 0, target)
