"""The benchmark's seeded workloads: instances, theories and oracles.

Set-up goes through the library's CLI layer the way a user's files would:
each instance is generated with ``cli.gen_*``, rendered with ``cli.render_*``,
parsed back with ``cli.parse_*`` and turned into a theory with
``cli.build_theory``.  The workload seed only picks the random instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

from frontier_search import cli, oracles
from frontier_search.engine import EngineConfig, Mode
from frontier_search.problems import Graph, KnapsackInstance
from frontier_search.theory import ProblemTheory


@dataclass(frozen=True)
class Case:
    """One solve of a workload: a theory, the engine config and its oracle."""

    label: str
    theory: ProblemTheory
    config: EngineConfig
    #: Reference optimal cost from the classical algorithm in ``oracles``.
    oracle: Callable[[], int]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"knapsack"`` or ``"graph"``: which ``cli`` generator, renderer and
    #: parser the instances go through.
    kind: str
    #: ``cli`` problem names solved on every instance, in order.
    problems: tuple[str, ...]
    mode: Mode
    #: Instances generated at set-up; runs cycle through them.
    instances: int
    #: Leading cases that every run solves: the fingerprint and the traced
    #: batch.
    core: int
    #: Arguments of the ``cli`` generator, without the seed.
    params: tuple


def _knapsack(items: int) -> tuple:
    # gen_knapsack(items, capacity=None (half the total weight), max_weight,
    # max_utility)
    return (items, None, 100, 100)


def _graph(nodes: int, density: float) -> tuple:
    # gen_graph(nodes, density, max_weight)
    return (nodes, density, 1000)


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` shrinks them for the self-test."""
    tree = ("sssp", "mst-prim", "mst-kruskal")
    if tiny:
        specs = [
            Workload("knapsack-exhaustive", "knapsack", ("knapsack",), Mode.EXHAUSTIVE,
                     6, 3, _knapsack(12)),
            Workload("tree-greedy", "graph", tree, Mode.GREEDY, 3, 6, _graph(25, 0.3)),
            Workload("spsp-exhaustive", "graph", ("spsp",), Mode.EXHAUSTIVE,
                     6, 3, _graph(12, 0.3)),
        ]
    else:
        # One size per workload, so that a run's medians do not depend on
        # which sizes its seed or its length favours; knapsack takes the
        # smallest size of its 30-40 range so a run solves the most random
        # instances.  The tree graphs have about 10 edges per node.
        specs = [
            Workload("knapsack-exhaustive", "knapsack", ("knapsack",), Mode.EXHAUSTIVE,
                     300, 12, _knapsack(30)),
            Workload("tree-greedy", "graph", tree, Mode.GREEDY, 10, 12,
                     _graph(350, 20 / 349)),
            Workload("spsp-exhaustive", "graph", ("spsp",), Mode.EXHAUSTIVE,
                     60, 8, _graph(100, 0.2)),
        ]
    return {w.name: w for w in specs}


def _oracle(problem: str, instance, target: int) -> Callable[[], int]:
    if problem == "knapsack":
        return lambda: oracles.knapsack_dp_ref(instance)
    if problem == "sssp":
        return lambda: sum(oracles.shortest_path_ref(instance, 0).values())
    if problem == "spsp":
        return lambda: oracles.shortest_path_ref(instance, 0)[target]
    return lambda: oracles.mst_ref(instance)


@dataclass
class SetUp:
    cases: list[Case]
    #: Nanoseconds of each set-up part.
    ns: dict[str, int]
    #: Whether every instance survived the render/parse round trip unchanged.
    round_trip_ok: bool


def set_up(workload: Workload, seed: int) -> SetUp:
    """Generate, round-trip and construct the workload's cases, timing each part."""
    gen, render, parse = {
        "knapsack": (cli.gen_knapsack, cli.render_knapsack, cli.parse_knapsack),
        "graph": (cli.gen_graph, cli.render_graph, cli.parse_graph),
    }[workload.kind]
    rng = random.Random(seed)
    args = [workload.params + (rng.getrandbits(32),) for _ in range(workload.instances)]
    t0 = perf_counter_ns()
    generated: list[Graph | KnapsackInstance] = [gen(*a) for a in args]
    t1 = perf_counter_ns()
    texts = [render(inst) for inst in generated]
    t2 = perf_counter_ns()
    parsed = [parse(text) for text in texts]
    t3 = perf_counter_ns()
    cases = []
    for i, inst in enumerate(parsed):
        target = inst.n - 1
        for problem in workload.problems:
            cases.append(Case(
                f"{problem}#{i}",
                cli.build_theory(problem, inst, 0, target),
                EngineConfig(mode=workload.mode),
                _oracle(problem, inst, target),
            ))
    t4 = perf_counter_ns()
    ns = {"cli.gen": t1 - t0, "cli.render": t2 - t1, "cli.parse": t3 - t2,
          "problems.construct": t4 - t3}
    return SetUp(cases, ns, parsed == generated)
