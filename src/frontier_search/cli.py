"""Command-line harness: solve instances, compare against oracles, generate inputs.

Instance formats (whitespace-separated, 0-indexed nodes):

* graph file: first line ``n m``, then one ``a b w`` line per edge;
* knapsack file: first line ``n capacity``, then one ``weight utility`` line
  per item.

``compare`` checks the engine against a classical reference: Dijkstra for
spsp and sssp, union-find Kruskal for both spanning trees, and dynamic
programming for knapsack.

Exit codes: 0 success, 1 oracle disagreement, 2 parse or validation error,
3 greedy violation, 4 knapsack DP table cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Optional

from . import oracles
from .engine import (
    EngineConfig,
    GreedyViolation,
    Mode,
    SearchStats,
    SolveResult,
    solve,
)
from .problems import (
    Graph,
    Knapsack,
    KnapsackInstance,
    KruskalSpanningTree,
    PrimSpanningTree,
    ShortestPathTree,
    SinglePairShortestPath,
)
from .theory import ProblemTheory

PROBLEMS = ("spsp", "sssp", "mst-prim", "mst-kruskal", "knapsack")


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# instance text format
# ---------------------------------------------------------------------------


def _int_fields(text: str, expected: tuple[str, ...], line_no: int) -> list[int]:
    fields = text.split()
    if len(fields) != len(expected):
        raise ParseError(
            f"expected {len(expected)} fields ({', '.join(expected)}), got {len(fields)}",
            line_no,
        )
    values = []
    for name, field in zip(expected, fields):
        try:
            values.append(int(field))
        except ValueError:
            raise ParseError(f"{name} is not an integer: {field!r}", line_no) from None
    return values


def _read_rows(
    text: str, header: tuple[str, ...], count_at: int, noun: str, row: tuple[str, ...]
) -> tuple[list[int], list[list[int]]]:
    """The header's fields and each data line's fields, blank lines skipped.

    ``header[count_at]`` promises how many ``noun`` lines follow the header.
    """
    lines = [
        (i, line)
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise ParseError("empty input", 1)
    head_no, head = lines[0]
    fields = _int_fields(head, header, head_no)
    if len(lines) - 1 != fields[count_at]:
        raise ParseError(
            f"header promises {fields[count_at]} {noun}, found {len(lines) - 1}",
            head_no,
        )
    return fields, [_int_fields(line, row, line_no) for line_no, line in lines[1:]]


def parse_graph(text: str) -> Graph:
    (n, _), edges = _read_rows(text, ("n", "m"), 1, "edges", ("a", "b", "w"))
    return Graph(n, tuple(map(tuple, edges)))


def parse_knapsack(text: str) -> KnapsackInstance:
    (_, capacity), items = _read_rows(
        text, ("n", "capacity"), 0, "items", ("weight", "utility")
    )
    return KnapsackInstance(capacity, tuple(map(tuple, items)))


def render_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{a} {b} {w}" for a, b, w in g.edges)
    return "\n".join(lines) + "\n"


def render_knapsack(inst: KnapsackInstance) -> str:
    lines = [f"{inst.n} {inst.capacity}"]
    lines.extend(f"{w} {u}" for w, u in inst.items)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random instance generation
# ---------------------------------------------------------------------------


def gen_graph(nodes: int, density: float, max_weight: int, seed: int) -> Graph:
    """Connected random graph: a random spanning tree plus density-driven extras."""
    rng = random.Random(seed)
    edges: list[tuple[int, int, int]] = []
    order = list(range(nodes))
    rng.shuffle(order)
    # Pairs a < b are held as ints a * nodes + b: the list is O(nodes^2) long.
    present: set[int] = set()
    for i in range(1, nodes):
        a, b = order[rng.randrange(i)], order[i]
        edges.append((a, b, rng.randint(0, max_weight)))
        present.add(min(a, b) * nodes + max(a, b))
    target_m = max(nodes - 1, round(density * nodes * (nodes - 1) / 2))
    spare = [
        pair
        for a in range(nodes)
        for pair in range(a * nodes + a + 1, (a + 1) * nodes)
        if pair not in present
    ]
    rng.shuffle(spare)
    for pair in spare[: target_m - len(edges)]:
        a, b = divmod(pair, nodes)
        edges.append((a, b, rng.randint(0, max_weight)))
    return Graph(nodes, tuple(edges))


def gen_knapsack(
    items: int,
    capacity: Optional[int],
    max_weight: int,
    max_utility: int,
    seed: int,
) -> KnapsackInstance:
    rng = random.Random(seed)
    pairs = tuple(
        (rng.randint(0, max_weight), rng.randint(0, max_utility))
        for _ in range(items)
    )
    if capacity is None:
        capacity = max(1, sum(w for w, _ in pairs) // 2)
    return KnapsackInstance(capacity, pairs)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    problem: str
    instance: dict[str, int]
    mode: str
    optimal_cost: Optional[int]
    witness: Optional[list[int]]
    stats: SearchStats
    oracle_cost: Optional[int]
    oracle_ran: bool
    ms: float

    @property
    def agree(self) -> Optional[bool]:
        return self.optimal_cost == self.oracle_cost if self.oracle_ran else None

    def to_json(self) -> str:
        # Deterministic by construction: wall time is deliberately left out.
        payload: dict[str, Any] = {
            "problem": self.problem,
            "instance": self.instance,
            "mode": self.mode,
            "optimal_cost": self.optimal_cost,
            "witness": self.witness,
            "stats": asdict(self.stats),
        }
        if self.oracle_ran:
            payload["oracle_cost"] = self.oracle_cost
            payload["agree"] = self.agree
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        inst = " ".join(f"{k}={v}" for k, v in self.instance.items())
        lines = [
            f"problem: {self.problem} ({inst})  mode: {self.mode}",
            f"optimal cost: {self.optimal_cost}",
            f"witness: {self.witness}",
            f"levels: {self.stats.levels}  generated: {self.stats.generated}  "
            f"duplicates: {self.stats.duplicates_removed}  "
            f"merged: {self.stats.equivalence_merged}  "
            f"pruned: {self.stats.dominated_pruned}  "
            f"locals: {self.stats.locals_found}",
            "width per level: "
            + " ".join(f"{raw}/{undom}" for raw, undom in self.stats.per_level_width),
        ]
        if self.oracle_ran:
            lines.append(
                f"oracle cost: {self.oracle_cost}  "
                f"agree: {'yes' if self.agree else 'NO'}"
            )
        lines.append(f"wall ms: {self.ms:.2f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _load_instance(args) -> Graph | KnapsackInstance:
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    return parse_knapsack(text) if args.problem == "knapsack" else parse_graph(text)


def build_theory(
    problem: str,
    instance: Graph | KnapsackInstance,
    source: int = 0,
    target: Optional[int] = None,
) -> ProblemTheory:
    if problem == "spsp":
        if target is None:
            raise ValueError("spsp requires --target")
        return SinglePairShortestPath(instance, source, target)
    if problem == "sssp":
        return ShortestPathTree(instance, source)
    if problem == "mst-prim":
        return PrimSpanningTree(instance, source)
    if problem == "mst-kruskal":
        return KruskalSpanningTree(instance)
    if problem == "knapsack":
        return Knapsack(instance)
    raise ValueError(f"unknown problem {problem!r}")


def _oracle_cost(problem: str, theory: ProblemTheory, instance) -> Optional[int]:
    if problem == "spsp":
        return oracles.distances(instance, theory.source).get(theory.target)
    if problem == "sssp":
        return sum(oracles.shortest_path_ref(instance, theory.root).values())
    if problem in ("mst-prim", "mst-kruskal"):
        return oracles.mst_ref(instance)
    return oracles.knapsack_dp_ref(instance)


def _witness(result: SolveResult) -> Optional[list[int]]:
    if not result.optima:
        return None
    return list(min(map(oracles.canon, result.optima)))


def _instance_summary(problem: str, instance) -> dict[str, int]:
    if problem == "knapsack":
        return {"items": instance.n, "capacity": instance.capacity}
    return {"nodes": instance.n, "edges": instance.m}


def run_solve(args, with_oracle: bool) -> RunReport:
    instance = _load_instance(args)
    theory = build_theory(args.problem, instance, args.source, args.target)
    start = time.perf_counter()
    result = solve(theory, EngineConfig(mode=args.mode))
    ms = (time.perf_counter() - start) * 1000
    oracle_cost = _oracle_cost(args.problem, theory, instance) if with_oracle else None
    return RunReport(
        problem=args.problem,
        instance=_instance_summary(args.problem, instance),
        mode=args.mode,
        optimal_cost=result.optimal_cost,
        witness=_witness(result),
        stats=result.stats,
        oracle_cost=oracle_cost,
        oracle_ran=with_oracle,
        ms=ms,
    )


def _emit(report: RunReport, as_json: bool) -> None:
    sys.stdout.write(report.to_json() + "\n" if as_json else report.to_text())


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", required=True, choices=PROBLEMS)
    parser.add_argument("--input", required=True, help="instance file")
    parser.add_argument("--source", type=int, default=0, help="source/root node")
    parser.add_argument("--target", type=int, default=None, help="target node (spsp)")
    parser.add_argument(
        "--mode", choices=[m.value for m in Mode], default=Mode.EXHAUSTIVE.value
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frontier-search", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the engine and print a report")
    p_cmp = sub.add_parser(
        "compare", help="run engine and oracle; exit 1 on disagreement"
    )
    for p in (p_solve, p_cmp):
        _add_run_flags(p)
        p.add_argument("--json", action="store_true", dest="as_json")

    p_gen = sub.add_parser("gen", help="emit a random instance")
    p_gen.add_argument("--problem", required=True, choices=PROBLEMS)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--nodes", type=int, default=8)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--max-weight", type=int, default=10)
    p_gen.add_argument("--items", type=int, default=8)
    p_gen.add_argument("--capacity", type=int, default=None)
    p_gen.add_argument("--max-utility", type=int, default=10)

    p_stats = sub.add_parser("stats", help="print per-level frontier widths")
    _add_run_flags(p_stats)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen":
        if not 0.0 <= args.density <= 1.0:
            raise ValueError(f"--density must be within [0, 1], got {args.density}")
        for flag, value, least in (
            ("--nodes", args.nodes, 1),
            ("--items", args.items, 0),
            ("--capacity", args.capacity, 0),
            ("--max-weight", args.max_weight, 0),
            ("--max-utility", args.max_utility, 0),
        ):
            if value is not None and value < least:
                rule = "positive" if least else "non-negative"
                raise ValueError(f"{flag} must be {rule}, got {value}")
        if args.problem == "knapsack":
            text = render_knapsack(
                gen_knapsack(
                    args.items, args.capacity, args.max_weight, args.max_utility,
                    args.seed,
                )
            )
        else:
            text = render_graph(
                gen_graph(args.nodes, args.density, args.max_weight, args.seed)
            )
        sys.stdout.write(text)
        return 0

    report = run_solve(args, with_oracle=args.command == "compare")
    if args.command == "stats":
        sys.stdout.write("level raw undominated\n")
        for level, (raw, undom) in enumerate(report.stats.per_level_width, start=1):
            sys.stdout.write(f"{level} {raw} {undom}\n")
    else:
        _emit(report, args.as_json)
    return 1 if report.agree is False else 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return run(argv)
    except GreedyViolation as exc:
        print(f"greedy violation: {exc}", file=sys.stderr)
        return 3
    except oracles.CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
