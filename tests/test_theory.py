from conftest import bounded

from frontier_search import Direction, IdentityDominance, solve
from frontier_search.cli import gen_graph
from frontier_search.problems import Knapsack, KnapsackInstance, SinglePairShortestPath


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


class SpyKnapsack(Knapsack):
    """Knapsack whose ``split`` records each parent's serial in ``calls``."""

    def __init__(self, instance, calls):
        super().__init__(instance)
        self.calls = calls

    def split(self, y):
        self.calls.append(y.serial)
        return super().split(y)


def test_identity_dominance_copy_runs_the_base_hooks():
    # The copy shares the base's ``calls`` list, so the base's own ``split``
    # must have seen every member the search expanded: the root and every
    # survivor of a level before the last.
    calls = []
    result = solve(IdentityDominance(SpyKnapsack(make_theory().instance, calls)))
    survivors = [undom for _, undom in result.stats.per_level_width]
    assert len(calls) == 1 + sum(survivors[:-1]) > 1
    # An instance-level ``max_depth`` (``bounded``) is the copy's bound.
    shallow = IdentityDominance(bounded(make_theory(), 1))
    assert shallow.max_depth() == 1
    assert solve(shallow).stats.levels == 1
    # Problem attributes and the base's dominance hooks come along.
    th = SinglePairShortestPath(gen_graph(5, 0.8, 5, seed=3), 0, 4)
    wrapped = IdentityDominance(th)
    assert (wrapped.graph, wrapped.source, wrapped.target) == (th.graph, 0, 4)
    y = th.split(th.initial())[0]
    assert wrapped.dominance_key(y) == th.dominance_key(y) == y.end
    assert wrapped.equivalence_key(y) == (y.serial, 0, 0) != th.equivalence_key(y)
