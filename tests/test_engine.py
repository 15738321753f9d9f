import copy

import pytest

from conftest import FullKnapsack, FullPath, assert_stats_ledger, bounded

from frontier_search import (
    EngineConfig,
    GreedyViolation,
    IdentityDominance,
    Mode,
    solve,
)
from frontier_search.cli import gen_graph, gen_knapsack
from frontier_search.engine import (
    collect_locals,
    dedupe,
    expand,
    filter_dominated,
    opt_c,
    reduce_equivalent,
)
from frontier_search.problems import (
    Graph,
    Knapsack,
    KnapsackInstance,
    KruskalSpanningTree,
    PrimSpanningTree,
    ShortestPathTree,
    SinglePairShortestPath,
    TreeDescriptor,
)
from frontier_search.theory import Direction


KNAPSACK3 = KnapsackInstance(5, ((2, 3), (3, 4), (4, 5)))


def knapsack3():
    return Knapsack(KNAPSACK3)


def full_knapsack3():
    # Without the bound, whose greedy incumbent of 7 is this instance's
    # optimum: the bounded theory keeps one child of the root only.
    return FullKnapsack(KNAPSACK3)


# -- expand -----------------------------------------------------------------


def test_expand_initial_frontier(triangle):
    th = FullPath(triangle, 0, 2)
    children = expand(th, [th.initial()])
    assert [c.serial for c in children] == [(0,), (2,)]


def test_expand_empty_frontier(triangle):
    th = SinglePairShortestPath(triangle, 0, 2)
    assert expand(th, []) == []


def test_expand_binary_split_width_two():
    th = full_knapsack3()
    level1 = th.split(th.initial())
    assert len(level1) == 2
    children = expand(th, level1)
    assert len(children) == 4


# -- dedupe -----------------------------------------------------------------


def test_dedupe_keeps_first_occurrence(weighted_triangle):
    th = full_knapsack3()
    a, b = th.split(th.initial())
    kept, removed = dedupe([a, a, b])
    assert [k.serial for k in kept] == [a.serial, b.serial]
    assert removed == 1
    # Serials out of lexicographic order, with a non-adjacent duplicate made
    # of two distinct objects: the input order stays and the first is kept.
    th = KruskalSpanningTree(weighted_triangle)
    root = th.initial()
    via_01 = th.apply_move(th.apply_move(root, 0), 1)
    via_10 = th.apply_move(th.apply_move(root, 1), 0)
    assert via_01 is not via_10 and via_01.serial == via_10.serial
    only_0, only_2 = th.apply_move(root, 0), th.apply_move(root, 2)
    kept, removed = dedupe([only_2, via_01, only_0, via_10])
    assert [k.serial for k in kept] == [(2,), (0, 1), (0,)]
    assert kept[1] is via_01 and removed == 1


def test_dedupe_disjoint_unchanged():
    th = knapsack3()
    children = th.split(th.initial())
    kept, removed = dedupe(children)
    assert kept == children and removed == 0


def test_dedupe_merges_tree_reached_by_both_orders(weighted_triangle):
    # The same two-edge set arises by adding its edges in either order.
    th = KruskalSpanningTree(weighted_triangle)
    root = th.initial()
    via_01 = th.apply_move(th.apply_move(root, 0), 1)
    via_10 = th.apply_move(th.apply_move(root, 1), 0)
    assert via_01.serial == via_10.serial
    kept, removed = dedupe([via_01, via_10])
    assert len(kept) == 1 and removed == 1


class InFirstKnapsack(Knapsack):
    """Knapsack listing the in-move before the out-move; ``child_moves`` is
    read off ``split``, so it follows."""

    def split(self, y):
        return super().split(y)[::-1]


@pytest.mark.parametrize("keyed", [True, False])
def test_first_generated_representative_survives_a_merge(keyed):
    # Items 0 and 1 are equal and only one fits, so "in, out" and "out, in"
    # merge at level 2.  In-first, "in, out" is generated first and kept,
    # although its serial (1, 0) sorts after (0, 1).
    th = InFirstKnapsack(KnapsackInstance(1, ((1, 1), (1, 1))))
    if not keyed:
        th.equivalence_key = None  # force the generic pairwise path
    result = solve(th)
    assert result.optima == {frozenset({0})}
    assert result.stats.equivalence_merged == 1
    assert_stats_ledger(result.stats)


# -- reduce_equivalent / filter_dominated ------------------------------------


def by_key(theory, spaces):
    """``spaces`` by ``equivalence_key``, as keyed ``reduce_equivalent`` returns them."""
    return {theory.equivalence_key(y): y for y in spaces}


def test_reduce_merges_equal_cost_paths_to_same_node(diamond):
    th = SinglePairShortestPath(diamond, 0, 3)
    left = th.apply_move(th.initial(), 0)
    right = th.apply_move(th.initial(), 1)
    reps, merged, duplicates = reduce_equivalent(th, [left, right])
    # Both end at different nodes: nothing merges.
    assert merged == 0 and len(reps) == 2 and duplicates == 0
    # One more level: both paths reach node 3 at cost 2 and merge.
    lchild = th.apply_move(left, 2)
    rchild = th.apply_move(right, 3)
    reps, merged, duplicates = reduce_equivalent(
        th, sorted([lchild, rchild], key=lambda y: y.serial))
    assert merged == 1 and duplicates == 0
    assert [r.serial for r in reps.values()] == [(0, 2)]  # first kept


def test_reduce_singleton_unchanged(triangle):
    th = SinglePairShortestPath(triangle, 0, 2)
    y = th.apply_move(th.initial(), 0)
    reps, merged, duplicates = reduce_equivalent(th, [y])
    assert list(reps.values()) == [y] and merged == 0 and duplicates == 0


def test_reduce_merges_equal_weight_equal_utility_prefixes():
    th = Knapsack(KnapsackInstance(4, ((1, 1), (1, 1))))
    a = th.apply_move(th.apply_move(th.initial(), 1), 0)  # select item 0
    b = th.apply_move(th.apply_move(th.initial(), 0), 1)  # select item 1
    assert th.dominates(a, b) and th.dominates(b, a)
    reps, merged, duplicates = reduce_equivalent(th, sorted([a, b], key=lambda y: y.serial))
    assert merged == 1 and [r.serial for r in reps.values()] == [(0, 1)]
    assert duplicates == 0


def test_reduce_pairwise_fallback_matches_keyed_path(diamond):
    th = SinglePairShortestPath(diamond, 0, 3)
    lchild = th.apply_move(th.apply_move(th.initial(), 0), 2)
    rchild = th.apply_move(th.apply_move(th.initial(), 1), 3)
    spaces = sorted([lchild, rchild], key=lambda y: y.serial)
    keyed = reduce_equivalent(th, spaces)
    th.equivalence_key = None  # force the generic pairwise path
    pairwise = reduce_equivalent(th, spaces)
    assert [y.serial for y in keyed[0].values()] == [y.serial for y in pairwise[0]]
    assert keyed[1:] == pairwise[1:]


def test_reduce_counts_a_repeated_serial_as_a_duplicate(weighted_triangle, diamond):
    # Under IdentityDominance equal keys are equal serials: the edge set
    # {0, 1} reached in either order is a duplicate, not a merge, and so is
    # a second copy of one object.
    th = IdentityDominance(KruskalSpanningTree(weighted_triangle))
    root = th.initial()
    via_01 = th.apply_move(th.apply_move(root, 0), 1)
    via_10 = th.apply_move(th.apply_move(root, 1), 0)
    via_02 = th.apply_move(th.apply_move(root, 0), 2)
    reps, merged, duplicates = reduce_equivalent(th, [via_01, via_02, via_10, via_01])
    assert list(reps.values()) == [via_01, via_02]
    assert merged == 0 and duplicates == 2
    # One run of equal keys holding another serial and a second copy of the
    # representative or of the merged member: one merge and one duplicate,
    # as on the pairwise path.
    th = SinglePairShortestPath(diamond, 0, 3)
    pairwise = copy.copy(th)
    pairwise.equivalence_key = None  # force the generic pairwise path
    left, right, left_again, right_again = (
        th.apply_move(th.apply_move(th.initial(), a), b)
        for a, b in ((0, 2), (1, 3), (0, 2), (1, 3)))
    for level in ([left, right, left_again], [left, right, right_again]):
        reps, merged, duplicates = reduce_equivalent(th, level)
        assert (list(reps.values()), merged, duplicates) == ([left], 1, 1)
        assert reduce_equivalent(pairwise, level) == ([left], 1, 1)


def test_reduce_level_with_two_tied_runs():
    # Two diamonds from node 0: level 2 reaches nodes 3 and 4 by two equal
    # paths each, and a copy of a merged path in each run is a duplicate.
    g = Graph(5, ((0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (1, 4, 1), (2, 4, 1)))
    th = FullPath(g, 0, 4)
    children = expand(th, th.split(th.initial()))
    assert [(y.serial, y.end) for y in children] == [
        ((0, 2), 3), ((0, 4), 4), ((1, 3), 3), ((1, 5), 4)]
    children += [copy.copy(children[2]), copy.copy(children[3])]
    reps, merged, duplicates = reduce_equivalent(th, children)
    assert (list(reps.values()), merged, duplicates) == (children[:2], 2, 2)
    th.equivalence_key = None  # force the generic pairwise path
    assert reduce_equivalent(th, children) == (children[:2], 2, 2)


def test_filter_keeps_cheapest_path_per_end_node():
    g = Graph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 5)))
    th = SinglePairShortestPath(g, 0, 2)
    cheap = th.apply_move(th.apply_move(th.initial(), 0), 1)  # cost 2 to node 2
    dear = th.apply_move(th.initial(), 2)  # cost 5 to node 2
    survivors, pruned = filter_dominated(th, by_key(th, [cheap, dear]), {})
    assert survivors == [cheap] and pruned == 1


def test_filter_incomparable_set_unchanged():
    th = full_knapsack3()
    out, inn = th.split(th.initial())  # (w0,u0) vs (w2,u3): incomparable
    survivors, pruned = filter_dominated(th, by_key(th, [out, inn]), {})
    assert survivors == [out, inn] and pruned == 0


def test_filter_sweep_matches_pairwise_on_knapsack_levels():
    th = Knapsack(gen_knapsack(14, None, 9, 9, 5))
    pairwise = Knapsack(th.instance)
    pairwise.equivalence_key = None  # force the generic pairwise path
    frontier = [th.initial()]
    while frontier:
        children = expand(th, frontier)
        reps, *counts = reduce_equivalent(th, children)
        pairwise_reps, *pairwise_counts = reduce_equivalent(pairwise, children)
        assert list(reps.values()) == pairwise_reps and counts == pairwise_counts
        swept = filter_dominated(th, reps, {})
        assert swept == filter_dominated(pairwise, pairwise_reps, {})
        frontier = swept[0]


def test_filter_sweep_keeps_input_order_across_groups():
    g = Graph(4, ((0, 1, 1), (0, 2, 5), (1, 2, 1), (1, 3, 1), (2, 3, 9)))
    th = SinglePairShortestPath(g, 0, 3)
    root = th.initial()
    cheap_3 = th.apply_move(th.apply_move(root, 0), 3)  # 0-1-3, cost 2
    dear_3 = th.apply_move(th.apply_move(root, 1), 4)  # 0-2-3, cost 14
    to_2 = th.apply_move(th.apply_move(root, 0), 2)  # 0-1-2, cost 2
    survivors, pruned = filter_dominated(th, by_key(th, [cheap_3, dear_3, to_2]), {})
    assert survivors == [cheap_3, to_2] and pruned == 1


def test_filter_mst_children_single_survivor(weighted_triangle):
    th = PrimSpanningTree(weighted_triangle, 0)
    children = th.split(th.initial())
    survivors, pruned = filter_dominated(th, by_key(th, children), {})
    assert len(survivors) == 1 and pruned == len(children) - 1
    assert survivors[0].serial == (0,)  # the weight-1 edge


# -- collect_locals / opt_c ------------------------------------------------


def test_collect_locals_incomplete_forests_empty(weighted_triangle):
    th = KruskalSpanningTree(weighted_triangle)
    assert collect_locals(th, th.split(th.initial())) == []


def test_collect_locals_path_at_target(triangle):
    th = SinglePairShortestPath(triangle, 0, 2)
    direct = th.apply_move(th.initial(), 2)
    found = collect_locals(th, [direct])
    assert found == [((2,), 3)]


def test_collect_locals_full_knapsack_level():
    th = full_knapsack3()
    level = [th.initial()]
    for _ in range(3):
        level = [c for y in level for c in th.split(y)]
    found = collect_locals(th, level)
    # Every complete prefix respects capacity by construction.
    assert len(found) == len(level)
    assert {c for _, c in found} == {0, 3, 4, 5, 7}


def test_opt_c_minimize():
    cost, best = opt_c([("z1", 2), ("z2", 5)], Direction.MINIMIZE)
    assert cost == 2 and best == {"z1"}


def test_opt_c_keeps_ties():
    cost, best = opt_c([("z1", 2), ("z2", 2)], Direction.MINIMIZE)
    assert cost == 2 and best == {"z1", "z2"}


def test_opt_c_empty():
    assert opt_c([], Direction.MAXIMIZE) == (None, frozenset())


def test_opt_c_maximize():
    cost, best = opt_c([("z1", 2), ("z2", 5)], Direction.MAXIMIZE)
    assert cost == 5 and best == {"z2"}


class StrictCostPrim(PrimSpanningTree):
    """Cut growth with strictly-cheaper dominance only: ties stay unresolved."""

    strictly_ranked = False
    equivalence_key = None

    def dominates(self, y, other):
        if y.serial == other.serial:
            return True
        mine, theirs = set(y.serial), set(other.serial)
        if len(mine - theirs) != 1 or len(theirs - mine) != 1:
            return False
        if not self._reachable(mine & theirs):
            return False
        return self.partial_cost(y) < self.partial_cost(other)


def equal_min_star():
    return Graph(3, ((0, 1, 1), (0, 2, 1)))


def test_greedy_violation_on_equal_minimum_cut_edges():
    th = StrictCostPrim(equal_min_star(), 0)
    with pytest.raises(GreedyViolation) as exc:
        solve(th, EngineConfig(mode=Mode.GREEDY))
    assert exc.value.width == 2 and exc.value.level == 1


def test_exhaustive_mode_solves_past_greedy_violation():
    th = StrictCostPrim(equal_min_star(), 0)
    result = solve(th, EngineConfig(mode=Mode.EXHAUSTIVE))
    assert result.optimal_cost == 2
    assert_stats_ledger(result.stats)


def test_canonical_tiebreak_avoids_violation():
    # The shipped theory breaks weight ties by edge index, so greedy holds.
    result = solve(PrimSpanningTree(equal_min_star(), 0), EngineConfig(mode=Mode.GREEDY))
    assert result.optimal_cost == 2


def test_mode_given_by_value_is_the_mode():
    # A valid string equals its enum, so ``"greedy"`` searches greedily.
    config = EngineConfig(mode="greedy")
    assert config == EngineConfig(mode=Mode.GREEDY) and config.mode is Mode.GREEDY
    with pytest.raises(GreedyViolation) as exc:
        solve(StrictCostPrim(equal_min_star(), 0), config)
    assert exc.value.width == 2 and exc.value.level == 1
    assert EngineConfig(mode="exhaustive").mode is Mode.EXHAUSTIVE


@pytest.mark.parametrize("mode", ["fast", "GREEDY", None, 1])
def test_mode_rejects_other_values(mode):
    with pytest.raises(ValueError):
        EngineConfig(mode=mode)


# -- solve -------------------------------------------------------------------


def test_solve_triangle(triangle):
    result = solve(SinglePairShortestPath(triangle, 0, 2))
    assert result.optimal_cost == 2
    assert result.optima == {(0, 1)}
    assert_stats_ledger(result.stats)


def test_solve_source_equals_target(triangle):
    result = solve(SinglePairShortestPath(triangle, 0, 0))
    assert result.optimal_cost == 0
    assert result.optima == {()}


def test_solve_knapsack():
    result = solve(knapsack3())
    assert result.optimal_cost == 7
    assert result.optima == {frozenset((0, 1))}


def test_solve_result_members_feasible_at_optimal_cost(diamond):
    th = SinglePairShortestPath(diamond, 0, 3)
    result = solve(th)
    assert result.optima
    for z in result.optima:
        assert th.feasible(z) and th.cost(z) == result.optimal_cost


def test_depth_bound_exhaustion_returns_empty():
    result = solve(bounded(knapsack3(), 1))
    assert result.optimal_cost is None and result.optima == frozenset()
    assert_stats_ledger(result.stats)


# Theory builders for the config sweep, and whether each solves greedily.
CONFIG_SWEEP_THEORIES = {
    "knapsack": (lambda g4, g3: FullKnapsack(gen_knapsack(12, None, 100, 100, 3)), False),
    # The bound leaves one child per level on this instance.
    "knapsack-bounded": (lambda g4, g3: Knapsack(gen_knapsack(12, None, 100, 100, 3)), True),
    "spsp": (lambda g4, g3: SinglePairShortestPath(g4, 0, 3), False),
    "sssp": (lambda g4, g3: ShortestPathTree(g3, 0), True),
    "prim": (lambda g4, g3: PrimSpanningTree(g3, 0), True),
    "kruskal": (lambda g4, g3: KruskalSpanningTree(g3), True),
}


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("depth_bound", [None, 0, 1, 3])
@pytest.mark.parametrize("problem", list(CONFIG_SWEEP_THEORIES))
def test_stats_identity_holds_under_every_config(
    mode, depth_bound, problem, diamond, weighted_triangle
):
    build, greedy_solvable = CONFIG_SWEEP_THEORIES[problem]
    th = bounded(build(diamond, weighted_triangle), depth_bound)
    config = EngineConfig(mode=mode)
    # Both non-greedy instances keep two spaces at level 1.
    raises = mode is Mode.GREEDY and not greedy_solvable and depth_bound != 0
    if raises:
        with pytest.raises(GreedyViolation) as exc:
            solve(th, config)
        assert exc.value.level == 1 and exc.value.width == 2
        return
    result = solve(th, config)
    assert_stats_ledger(result.stats)
    assert len(result.stats.per_level_width) == result.stats.levels


def test_determinism(diamond):
    th = SinglePairShortestPath(diamond, 0, 3)
    assert solve(th) == solve(th)


def test_stats_identity_holds_across_problems(triangle, diamond, weighted_triangle):
    theories = [
        SinglePairShortestPath(diamond, 0, 3),
        ShortestPathTree(triangle, 0),
        PrimSpanningTree(weighted_triangle, 0),
        KruskalSpanningTree(weighted_triangle),
        knapsack3(),
    ]
    for th in theories:
        assert_stats_ledger(solve(th).stats)


GREEDY_PATH_GRAPHS = [
    Graph(5, ((0, 1, 2), (0, 2, 2), (1, 2, 1), (1, 3, 4), (2, 3, 2), (3, 4, 0))),
    # Parallel edges, zero weights and ties in both orientations.
    Graph(4, ((1, 0, 1), (0, 1, 1), (2, 1, 0), (1, 2, 0), (3, 2, 1), (0, 3, 1), (2, 0, 0))),
    gen_graph(9, 0.6, 2, 7),
    gen_graph(14, 0.4, 3, 8),
]


@pytest.mark.parametrize("make", [
    lambda g: ShortestPathTree(g, 0),
    lambda g: PrimSpanningTree(g, 0),
    lambda g: KruskalSpanningTree(g),
])
def test_greedy_fast_path_matches_generic_pipeline(make):
    config = EngineConfig(mode=Mode.GREEDY)
    for g in GREEDY_PATH_GRAPHS:
        for depth_bound in (None, 0, 1):
            fast = solve(bounded(make(g), depth_bound), config)
            generic_theory = make(g)
            generic_theory.strictly_ranked = False
            generic = solve(bounded(generic_theory, depth_bound), config)
            assert fast == generic, (g, depth_bound)


class FixedCountsWalk(KruskalSpanningTree):
    """Kruskal on a 3-node path, with a walk that reports given move counts."""

    def __init__(self, counts):
        super().__init__(Graph(3, ((0, 1, 1), (1, 2, 2))))
        self.counts = counts

    def greedy_walk(self):
        return list(self.counts), TreeDescriptor((0, 1))


@pytest.mark.parametrize("counts, rows, pruned", [
    ([3, 2, 0], ((3, 1), (2, 1), (0, 0)), 3),
    ([3, 2], ((3, 1), (2, 1)), 3),
    ([0], ((0, 0),), 0),
    ([], (), 0),
])
def test_walk_books_one_survivor_per_level_but_none_at_a_final_empty_level(
    counts, rows, pruned
):
    result = solve(FixedCountsWalk(counts))
    stats = result.stats
    assert stats.per_level_width == rows and stats.levels == len(rows)
    assert stats.generated == sum(counts) and stats.dominated_pruned == pruned
    assert stats.duplicates_removed == stats.equivalence_merged == 0
    assert stats.locals_found == 1 and result.optimal_cost == 3
    assert_stats_ledger(stats)


def counting_key(theory):
    """A copy of ``theory`` whose ``equivalence_key`` counts its calls."""
    copied, calls, key = copy.copy(theory), [0], theory.equivalence_key

    def counted(y):
        calls[0] += 1
        return key(y)

    copied.equivalence_key = counted
    return copied, calls


def ranked_off(theory):
    copied = copy.copy(theory)
    copied.strictly_ranked = False
    return copied


KEY_CALL_THEORIES = {
    "knapsack": lambda: Knapsack(gen_knapsack(40, None, 100, 100, 4)),
    "spsp": lambda: SinglePairShortestPath(gen_graph(40, 0.2, 9, 4), 0, 39),
    "sssp": lambda: ranked_off(ShortestPathTree(gen_graph(25, 0.3, 9, 4), 0)),
    "prim": lambda: ranked_off(PrimSpanningTree(gen_graph(25, 0.3, 9, 4), 0)),
    "kruskal": lambda: ranked_off(KruskalSpanningTree(gen_graph(25, 0.3, 9, 4))),
    "identity-knapsack": lambda: IdentityDominance(FullKnapsack(gen_knapsack(9, None, 9, 9, 4))),
    "identity-kruskal": lambda: IdentityDominance(KruskalSpanningTree(gen_graph(6, 0.6, 3, 4))),
    "identity-sssp": lambda: IdentityDominance(ShortestPathTree(gen_graph(6, 0.6, 3, 4), 0)),
}


@pytest.mark.parametrize("problem", list(KEY_CALL_THEORIES))
def test_keyed_path_calls_equivalence_key_once_per_generated_child(problem):
    th, calls = counting_key(KEY_CALL_THEORIES[problem]())
    stats = solve(th).stats
    assert stats.generated > 0 and calls[0] == stats.generated
    if problem in ("identity-kruskal", "identity-sssp"):
        # Edge sets reached in either order: the tied children are duplicates.
        assert stats.duplicates_removed > 0


def test_no_dominance_wrapper_same_cost_more_width(diamond):
    th = SinglePairShortestPath(diamond, 0, 3)
    pruned = solve(th)
    unpruned = solve(IdentityDominance(th))
    assert pruned.optimal_cost == unpruned.optimal_cost == 2
    assert unpruned.stats.dominated_pruned == 0
    # Without merging, both optimal paths are reported.
    assert unpruned.optima == {(0, 2), (1, 3)}
    assert_stats_ledger(unpruned.stats)
