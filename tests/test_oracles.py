import pytest

from conftest import FullKnapsack, FullPath

from frontier_search.oracles import (
    CapExceeded,
    brute_force,
    distances,
    enumerate_extensions,
    knapsack_dp_ref,
    mst_ref,
    shortest_path_ref,
)
from frontier_search.problems import (
    Graph,
    Knapsack,
    KnapsackInstance,
    KruskalSpanningTree,
    PrimSpanningTree,
    ShortestPathTree,
    SinglePairShortestPath,
)
from frontier_search.problems.graphs import GraphDisconnected


def test_brute_force_triangle(triangle):
    th = SinglePairShortestPath(triangle, 0, 2)
    result = brute_force(th)
    assert result.optimal_cost == 2
    assert result.witness == (0, 1)
    assert result.witness_count == 1


def test_brute_force_infeasible():
    g = Graph(3, ((0, 1, 1),))
    result = brute_force(SinglePairShortestPath(g, 0, 2))
    assert result.optimal_cost is None
    assert result.witness is None and result.witness_count == 0


def test_brute_force_knapsack():
    th = Knapsack(KnapsackInstance(5, ((2, 3), (3, 4), (4, 5))))
    result = brute_force(th)
    assert result.optimal_cost == 7
    assert result.witness == frozenset((0, 1))


def test_brute_force_counts_equal_optima(diamond):
    result = brute_force(SinglePairShortestPath(diamond, 0, 3))
    assert result.optimal_cost == 2 and result.witness_count == 2


def test_brute_force_cap():
    # Unbounded: the bound would keep only the all-in path of 12 children.
    th = FullKnapsack(KnapsackInstance(100, ((1, 1),) * 12))
    with pytest.raises(CapExceeded):
        brute_force(th, expansion_cap=50)


def test_shortest_path_ref(triangle):
    assert shortest_path_ref(triangle, 0) == {0: 0, 1: 1, 2: 2}


def test_shortest_path_ref_single_node():
    assert shortest_path_ref(Graph(1, ()), 0) == {0: 0}


def test_shortest_path_ref_star():
    g = Graph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    assert shortest_path_ref(g, 0) == {0: 0, 1: 1, 2: 1, 3: 1}


def test_distances_cover_only_reached_nodes():
    g = Graph(5, ((0, 1, 2), (1, 2, 3), (3, 4, 1)))
    assert distances(g, 0) == {0: 0, 1: 2, 2: 5}
    assert distances(g, 4) == {4: 0, 3: 1}
    assert distances(Graph(1, ()), 0) == {0: 0}


def test_shortest_path_ref_rejects_disconnected():
    with pytest.raises(GraphDisconnected):
        shortest_path_ref(Graph(3, ((0, 1, 1),)), 0)


def test_mst_ref(weighted_triangle):
    assert mst_ref(weighted_triangle) == 3


def test_mst_ref_tree_input_sums_weights():
    assert mst_ref(Graph(4, ((0, 1, 5), (1, 2, 7), (2, 3, 2)))) == 14


def test_mst_ref_four_cycle():
    assert mst_ref(Graph(4, ((0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)))) == 6


def test_mst_ref_rejects_disconnected():
    with pytest.raises(GraphDisconnected):
        mst_ref(Graph(4, ((0, 1, 1), (2, 3, 1))))


def test_knapsack_dp_ref():
    assert knapsack_dp_ref(KnapsackInstance(5, ((2, 3), (3, 4), (4, 5)))) == 7
    assert knapsack_dp_ref(KnapsackInstance(0, ((2, 3),))) == 0
    assert knapsack_dp_ref(KnapsackInstance(1, ((2, 9),))) == 0


def test_knapsack_dp_cap():
    with pytest.raises(CapExceeded):
        knapsack_dp_ref(KnapsackInstance(10_000, ((1, 1),) * 10), cell_cap=100)


def test_enumerate_extensions_terminal(triangle):
    th = SinglePairShortestPath(triangle, 0, 2)
    y = th.apply_move(th.apply_move(th.initial(), 0), 1)
    exts = enumerate_extensions(th, y, 0)
    assert exts == [((), (0, 1), 2)]


def test_enumerate_extensions_from_root_matches_brute_force(triangle):
    th = FullPath(triangle, 0, 2)
    exts = enumerate_extensions(th, th.initial(), th.max_depth())
    oracle = brute_force(th)
    assert {z for _, z, _ in exts} == {(0, 1), (2,)}
    assert min(c for _, _, c in exts) == oracle.optimal_cost


def test_enumerate_extensions_midway(triangle):
    th = SinglePairShortestPath(triangle, 0, 2)
    y = th.apply_move(th.initial(), 0)
    exts = enumerate_extensions(th, y, th.max_depth() - 1)
    assert [(moves, z) for moves, z, _ in exts] == [((1,), (0, 1))]


def test_enumerate_extensions_cap(diamond):
    th = SinglePairShortestPath(diamond, 0, 3)
    with pytest.raises(CapExceeded):
        enumerate_extensions(th, th.initial(), 4, expansion_cap=2)


def test_cross_oracle_agreement():
    g = Graph(
        5,
        ((0, 1, 2), (0, 2, 7), (1, 2, 1), (1, 3, 4), (2, 3, 2), (3, 4, 3), (0, 4, 9)),
    )
    sssp = brute_force(ShortestPathTree(g, 0))
    assert sssp.optimal_cost == sum(shortest_path_ref(g, 0).values())
    prim = brute_force(PrimSpanningTree(g, 0))
    kruskal = brute_force(KruskalSpanningTree(g))
    assert prim.optimal_cost == kruskal.optimal_cost == mst_ref(g)
    inst = KnapsackInstance(7, ((2, 3), (3, 5), (4, 1), (1, 4)))
    assert brute_force(Knapsack(inst)).optimal_cost == knapsack_dp_ref(inst)
