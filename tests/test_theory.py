from frontier_search import Direction, IdentityDominance, solve
from frontier_search.problems import Knapsack, KnapsackInstance


def make_theory():
    return Knapsack(KnapsackInstance(10, ((3, 5), (4, 4), (2, 1))))


def descriptor(theory, bits):
    y = theory.initial()
    for b in bits:
        y = theory.apply_move(y, b)
    return y


def test_direction_comparisons():
    assert Direction.MINIMIZE.better(1, 2)
    assert not Direction.MINIMIZE.better(2, 2)
    assert Direction.MAXIMIZE.better(2, 1)
    assert Direction.MINIMIZE.at_least_as_good(2, 2)
    assert Direction.MAXIMIZE.at_least_as_good(3, 2)
    assert not Direction.MAXIMIZE.at_least_as_good(1, 2)


def test_default_dominance_is_semi_congruence_plus_cost():
    th = make_theory()
    a = descriptor(th, (1, 0))  # weight 3, utility 5
    b = descriptor(th, (0, 1))  # weight 4, utility 4
    assert th.semi_congruent(a, b)
    assert th.dominates(a, b)
    # semi-congruent the other way fails on weight, so no dominance.
    assert not th.semi_congruent(b, a)
    assert not th.dominates(b, a)


def test_identity_dominance_keeps_only_reflexive_pairs():
    th = make_theory()
    wrapped = IdentityDominance(th)
    a = descriptor(th, (1, 0))
    b = descriptor(th, (0, 1))
    assert wrapped.dominates(a, a)
    assert not wrapped.dominates(a, b)
    assert wrapped.direction is th.direction
    assert wrapped.partial_cost(a) == th.partial_cost(a)


def test_identity_dominance_reaches_same_optimum():
    th = make_theory()
    assert solve(IdentityDominance(th)).optimal_cost == solve(th).optimal_cost
