import pytest

from conftest import (
    FullKnapsack,
    GreedyIncumbentKnapsack,
    assert_bound_is_the_scan,
    assert_stats_ledger,
    forced_fill_incumbent,
    pairwise_solve,
)

from frontier_search import IdentityDominance, solve
from frontier_search.cli import gen_knapsack
from frontier_search.oracles import brute_force, knapsack_dp_ref
from frontier_search.problems import Knapsack, KnapsackDescriptor, KnapsackInstance
from frontier_search.theory import ProblemTheory


def three_items():
    return Knapsack(KnapsackInstance(5, ((2, 3), (3, 4), (4, 5))))


def prefix(th, bits):
    y = th.initial()
    for b in bits:
        y = th.apply_move(y, b)
    return y


def test_initial_prefix_empty():
    th = three_items()
    root = th.initial()
    assert root == KnapsackDescriptor(serial=(), weight=0, utility=0)


def test_split_is_binary_branch():
    th = FullKnapsack(three_items().instance)
    children = th.split(prefix(th, (1,)))
    assert [c.serial for c in children] == [(1, 0), (1, 1)]


def test_split_blocks_overweight_in_branch():
    th = three_items()
    y = prefix(th, (1, 1))  # weight 5 of 5
    children = th.split(y)
    assert [c.serial for c in children] == [(1, 1, 0)]


def test_split_terminal_when_all_decided():
    th = three_items()
    assert th.split(prefix(th, (0, 0, 0))) == []


def test_extract_complete_prefix_only():
    th = three_items()
    assert th.extract(prefix(th, (1, 1))) is None
    assert th.extract(prefix(th, (1, 1, 0))) == frozenset((0, 1))


def test_feasibility_and_cost():
    th = three_items()
    assert th.feasible(frozenset((0, 1)))
    assert not th.feasible(frozenset((1, 2)))  # weight 7 over capacity 5
    assert not th.feasible(frozenset((5,)))  # unknown item
    assert th.cost(frozenset((0, 1))) == 7
    assert th.cost(frozenset()) == 0


def test_partial_cost_is_selected_utility():
    th = three_items()
    assert th.partial_cost(prefix(th, (1, 1))) == 7
    assert th.partial_cost(th.initial()) == 0


def test_semi_congruence_lighter_prefix():
    th = Knapsack(KnapsackInstance(10, ((3, 5), (4, 4))))
    light = prefix(th, (1, 0))  # weight 3
    heavy = prefix(th, (0, 1))  # weight 4
    assert th.semi_congruent(light, heavy)
    assert not th.semi_congruent(heavy, light)
    assert not th.semi_congruent(prefix(th, (1,)), heavy)  # different lengths


def test_dominates_lighter_and_more_useful():
    th = Knapsack(KnapsackInstance(10, ((3, 5), (4, 4))))
    assert th.dominates(prefix(th, (1, 0)), prefix(th, (0, 1)))
    y = prefix(th, (1, 1))
    assert th.dominates(y, y)


def test_dominance_key_is_prefix_length():
    th = three_items()
    assert th.dominance_key(prefix(th, (1, 0, 1))) == 3
    assert th.dominance_key(prefix(th, (1, 0))) != th.dominance_key(prefix(th, (1, 0, 1)))


def test_max_depth_is_item_count():
    assert Knapsack(KnapsackInstance(5, ((1, 1),) * 5)).max_depth() == 5


def test_solve_three_items():
    result = solve(three_items())
    assert result.optimal_cost == 7
    assert result.optima == {frozenset((0, 1))}
    assert_stats_ledger(result.stats)


def test_solve_zero_capacity():
    result = solve(Knapsack(KnapsackInstance(0, ((2, 3), (1, 1)))))
    assert result.optimal_cost == 0
    assert result.optima == {frozenset()}


def test_solve_exact_fill():
    result = solve(Knapsack(KnapsackInstance(4, ((4, 9),))))
    assert result.optimal_cost == 9
    assert result.optima == {frozenset((0,))}


def test_zero_weight_items_selectable_at_zero_capacity():
    result = solve(Knapsack(KnapsackInstance(0, ((0, 2), (1, 5)))))
    assert result.optimal_cost == 2
    assert result.optima == {frozenset((0,))}


def test_invalid_instances_rejected():
    with pytest.raises(ValueError):
        KnapsackInstance(-1, ())
    with pytest.raises(ValueError):
        KnapsackInstance(3, ((-1, 2),))


@pytest.mark.parametrize("items", [40, 60, 100, 200])
@pytest.mark.parametrize("seed", [1, 2])
def test_solve_matches_dp_at_scale(items, seed):
    inst = gen_knapsack(items, None, 100, 100, seed)
    th = Knapsack(inst)
    result = solve(th)
    assert_stats_ledger(result.stats)
    assert result.optimal_cost == knapsack_dp_ref(inst)
    for z in result.optima:
        assert th.feasible(z) and th.cost(z) == result.optimal_cost


@pytest.mark.parametrize("items", [30, 100])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bounded_solve_equals_full_solve_at_scale(items, seed):
    inst = gen_knapsack(items, None, 100, 100, seed)
    bounded_run, full_run = solve(Knapsack(inst)), solve(FullKnapsack(inst))
    assert bounded_run.optima == full_run.optima
    assert bounded_run.optimal_cost == full_run.optimal_cost
    assert bounded_run.stats.generated < full_run.stats.generated


def test_incumbent_is_the_greedy_fill_in_ratio_order():
    # Zero weight first, then ratios 3, 2, 2 and 1, ties in index order.
    # The fill skips item 3 (weight 6 of 5 left) and goes on.
    th = Knapsack(KnapsackInstance(6, ((1, 1), (1, 3), (0, 6), (6, 12), (1, 2))))
    assert th._ratio_order == (2, 1, 3, 4, 0)
    assert th.greedy_fill == 6 + 3 + 2 + 1


def test_incumbent_is_the_optimum_where_the_greedy_fill_is_not():
    # On the instance above the greedy fill breaks at item 3 and ends at 12.
    # Skipping item 1, or taking item 3 first, reaches the optimum 6 + 12.
    inst = KnapsackInstance(6, ((1, 1), (1, 3), (0, 6), (6, 12), (1, 2)))
    th = Knapsack(inst)
    assert th.greedy_fill == 12
    assert th.incumbent == 18 == knapsack_dp_ref(inst)


def test_incumbent_skips_an_item_before_the_break_item():
    # Ratio order (1, 2), (2, 3), (4, 3): the greedy fill takes the first
    # two and breaks at (4, 3), 5 in all.  Taking (4, 3) first leaves room
    # for (1, 2) alone, 5 again.  Only the fill that skips (1, 2) reaches
    # the optimum 3 + 3.
    inst = KnapsackInstance(6, ((4, 3), (1, 2), (2, 3)))
    th = Knapsack(inst)
    assert th.greedy_fill == 5
    assert th.incumbent == 6 == knapsack_dp_ref(inst)


def test_incumbent_takes_an_item_after_the_break_item():
    # Ratio order (5, 10), (6, 11), (3, 5), (5, 8): the greedy fill takes
    # (5, 10), breaks at (6, 11) and adds (3, 5), 15 in all.  Only the fill
    # that takes (5, 8) first, and then (5, 10), reaches the optimum 18.
    inst = KnapsackInstance(10, ((3, 5), (5, 8), (5, 10), (6, 11)))
    th = Knapsack(inst)
    assert th.greedy_fill == 15
    assert th.incumbent == 18 == knapsack_dp_ref(inst)


@pytest.mark.parametrize("utility, fills", [(1, 0), (3, 2)])
def test_guard_skips_the_forced_fills_when_the_greedy_fill_meets_the_bound(
    monkeypatch, utility, fills
):
    # The greedy fill takes (4, 8) and (3, 5), 13 in all, and leaves room 1
    # for the break item (2, utility).  At utility 1 the floored Dantzig
    # bound is 13 too, so the greedy fill is optimal and no forced fill
    # runs.  At utility 3 the bound is 14, and the two window positions
    # whose gap to the break item's ratio leaves it above 13 are filled.
    inst = KnapsackInstance(8, ((3, 5), (2, utility), (4, 8)))
    th = Knapsack(inst)
    calls = []
    fill = Knapsack._fill
    monkeypatch.setattr(
        Knapsack, "_fill", lambda self, *a: calls.append(a) or fill(self, *a)
    )
    assert th.incumbent == th.greedy_fill == 13 == knapsack_dp_ref(inst)
    assert len(calls) == 1 + fills  # the greedy fill's own, and the forced


@pytest.mark.parametrize("items", [30, 200, 1000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forced_fills_keep_the_optima_with_no_more_work(items, seed):
    inst = gen_knapsack(items, None, 100, 100, seed)
    th, greedy = Knapsack(inst), GreedyIncumbentKnapsack(inst)
    run, greedy_run = solve(th), solve(greedy)
    assert run.optima == greedy_run.optima
    assert run.optimal_cost == greedy_run.optimal_cost
    assert run.stats.generated <= greedy_run.stats.generated
    assert greedy.incumbent <= th.incumbent <= run.optimal_cost
    assert th.incumbent == forced_fill_incumbent(th)


@pytest.mark.parametrize("items", [30, 100])
def test_incumbent_is_the_plain_forced_fills_on_many_instances(items):
    # Every window position's fill, unpruned, over 300 seeds per size.
    for seed in range(300):
        th = Knapsack(gen_knapsack(items, None, 100, 100, seed))
        assert th.incumbent == forced_fill_incumbent(th), seed


def test_levels_decide_items_in_ratio_order():
    # Bit k decides item ``_ratio_order[k]``; ``extract`` maps it back.
    th = Knapsack(KnapsackInstance(6, ((1, 1), (1, 3), (0, 6), (6, 12), (1, 2))))
    assert th.decided == ((0, 6), (1, 3), (6, 12), (1, 2), (1, 1))
    y = prefix(th, (1, 0, 0, 1, 1))
    assert (y.weight, y.utility) == (2, 9)
    assert th.extract(y) == frozenset((2, 4, 0))


@pytest.mark.parametrize(
    "inst",
    [
        KnapsackInstance(0, ()),
        KnapsackInstance(7, ()),
        KnapsackInstance(0, ((0, 2), (1, 5), (0, 0), (3, 3))),
        # Zero weights, an item heavier than the capacity, equal ratios.
        KnapsackInstance(10, ((0, 3), (4, 8), (2, 4), (11, 30), (3, 3), (0, 0))),
        KnapsackInstance(10, ((2, 2), (4, 4), (3, 3), (5, 5), (1, 1))),
        KnapsackInstance(9, ((10, 40), (3, 6), (3, 6), (0, 1), (4, 7))),
        KnapsackInstance(5, ((2, 3), (3, 4), (4, 5))),
    ],
)
def test_bisected_bound_is_the_linear_scan(inst):
    th = Knapsack(inst)
    assert_bound_is_the_scan(th)
    bounded_run, full_run = solve(th), solve(FullKnapsack(inst))
    assert bounded_run.optima == full_run.optima
    assert bounded_run.optimal_cost == full_run.optimal_cost


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ratio_order_keeps_200_item_searches_small(seed):
    # Work, not time: deciding items in the order the bound scans them
    # generated 368-2,323 children on these instances, where index order
    # generated 2,046-10,379; the forced fills' incumbent cuts it to
    # 368-1,267.
    inst = gen_knapsack(200, None, 100, 100, seed)
    result = solve(Knapsack(inst))
    assert result.optimal_cost == knapsack_dp_ref(inst)
    assert result.stats.generated <= 2_500


def test_identity_dominance_solves_sixteen_items_in_linear_stages():
    # Each serial is its own key group, so nothing merges or prunes and the
    # stages stay linear in the level width.
    inst = gen_knapsack(16, None, 20, 20, 1)
    result = solve(IdentityDominance(Knapsack(inst)))
    assert result.optimal_cost == knapsack_dp_ref(inst)
    assert result.stats.equivalence_merged == result.stats.dominated_pruned == 0
    assert_stats_ledger(result.stats)


class DefaultDominanceKnapsack(Knapsack):
    """Knapsack on ``ProblemTheory``'s default semi-congruence and one group.

    Only ``pairwise_solve`` reads those hooks, so it has no key."""

    semi_congruent = ProblemTheory.semi_congruent
    dominance_key = ProblemTheory.dominance_key
    equivalence_key = None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_default_dominance_hooks_keep_every_optimum(seed):
    # The default semi-congruence is canonical equality, so only equal
    # serials dominate each other and every optimum survives.
    th = DefaultDominanceKnapsack(gen_knapsack(8, None, 9, 3, seed))
    result = pairwise_solve(th)
    oracle = brute_force(th)
    assert result.optimal_cost == oracle.optimal_cost
    assert len(result.optima) == oracle.witness_count
    assert_stats_ledger(result.stats)
