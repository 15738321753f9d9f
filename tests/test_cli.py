import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontier_search import cli
from frontier_search.cli import (
    ParseError,
    gen_graph,
    gen_knapsack,
    main,
    parse_graph,
    parse_knapsack,
    render_graph,
    render_knapsack,
)
from frontier_search.problems import Graph, is_connected
from frontier_search.problems.graphs import GraphValidationError

from conftest import line_by_line_graph, line_by_line_knapsack

TRIANGLE_TEXT = "3 3\n0 1 1\n1 2 1\n0 2 3\n"
KNAP_TEXT = "3 5\n2 3\n3 4\n4 5\n"


# -- parsing ------------------------------------------------------------------


def test_parse_graph_triangle():
    g = parse_graph(TRIANGLE_TEXT)
    assert g.n == 3 and g.edges == ((0, 1, 1), (1, 2, 1), (0, 2, 3))


def test_parse_graph_single_node():
    g = parse_graph("1 0\n")
    assert g.n == 1 and g.edges == ()


def test_parse_graph_rejects_self_loop():
    with pytest.raises(GraphValidationError):
        parse_graph("2 1\n0 0 5\n")


def test_parse_graph_rejects_bad_node_id():
    with pytest.raises(GraphValidationError):
        parse_graph("2 1\n0 2 5\n")


@pytest.mark.parametrize(
    "n, edges, message",
    [(0, (), "node count must be positive"), (2, ((0, 1, -1),), "negative weight")],
)
def test_graph_rejects_no_nodes_and_negative_weights(n, edges, message):
    with pytest.raises(GraphValidationError, match=message):
        Graph(n, edges)


def test_parse_graph_diagnostics_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph("2 1\n0 1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_graph("2 x\n")
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("2 2\n0 1 1\n")  # header promises more edges


def test_parse_knapsack():
    inst = parse_knapsack(KNAP_TEXT)
    assert inst.capacity == 5 and inst.items == ((2, 3), (3, 4), (4, 5))


def test_parse_knapsack_zero_items():
    inst = parse_knapsack("0 10\n")
    assert inst.n == 0 and inst.capacity == 10


def test_parse_knapsack_missing_utility():
    with pytest.raises(ParseError) as exc:
        parse_knapsack("1 5\n2\n")
    assert exc.value.line == 2


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its instance, or its error's type,
    message and line."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


#: Whitespace that ``str.split`` and ``str.strip`` both count, and that
#: ``str.splitlines`` does or does not break lines at.
BLANKS = ("", " ", "\t", "\x0c", " \t\x0c ", "\r")


def _insert_blank(draw, lines):
    i = draw(st.integers(0, len(lines)))
    return lines[:i] + [draw(st.sampled_from(BLANKS))] + lines[i:]


def _respace(draw, lines):
    if not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    sep = draw(st.sampled_from(["  ", "\t", "\x0c", " \t "]))
    lines = list(lines)
    lines[i] = draw(st.sampled_from(BLANKS)) + sep.join(lines[i].split())
    return lines


def _retoken(draw, lines):
    """One field replaced by a variant that ``int`` takes or refuses."""
    if not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split()
    if not fields:
        return lines
    k = draw(st.integers(0, len(fields) - 1))
    token = fields[k]
    fields[k] = draw(st.sampled_from([
        "+" + token,
        token[:1] + "_" + token[1:] if len(token) > 1 else "1_000",
        token.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
        token.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
        "-" + token,
        token + "x",
        "1.5",
        "_1",
    ]))
    lines = list(lines)
    lines[i] = " ".join(fields)
    return lines


def _reshape_row(draw, lines):
    """A field dropped from or added to one line."""
    if not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split()
    fields = fields[:-1] if draw(st.booleans()) else fields + ["7"]
    lines = list(lines)
    lines[i] = " ".join(fields)
    return lines


def _miscount(draw, lines):
    """A header field, the promised count among them, off by one."""
    if not lines or len(lines[0].split()) != 2:
        return lines
    fields = lines[0].split()
    k = draw(st.integers(0, 1))
    try:
        fields[k] = str(int(fields[k]) + draw(st.sampled_from([-1, 1])))
    except ValueError:  # an earlier mutation made the field no integer
        return lines
    return [" ".join(fields)] + lines[1:]


def _truncate(draw, lines):
    """Empty input, or the header alone."""
    return lines[: draw(st.integers(0, 1))]


MUTATIONS = (_insert_blank, _respace, _retoken, _reshape_row, _miscount, _truncate)


@st.composite
def instance_texts(draw):
    """Rendered graphs and knapsacks, mutated and joined by LF or CRLF."""
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        text = render_graph(gen_graph(n, draw(st.floats(0.0, 1.0)), 12, seed))
    else:
        text = render_knapsack(gen_knapsack(draw(st.integers(0, 6)), None, 12, 12, seed))
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        lines = draw(st.sampled_from(MUTATIONS))(draw, lines)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@given(text=instance_texts())
@settings(max_examples=400, deadline=None)
def test_parsers_match_the_line_by_line_reference(text):
    # Each text goes to both parsers, so graph rows meet the knapsack
    # parser's widths and the other way round.
    for parse, reference in [
        (parse_graph, line_by_line_graph),
        (parse_knapsack, line_by_line_knapsack),
    ]:
        assert _outcome(parse, text) == _outcome(reference, text), text


def test_valid_text_needs_no_line_by_line_pass(monkeypatch):
    # Every spelling ``int`` takes, and every blank line and separator
    # ``str.split`` skips, is read by the whole-text passes alone.
    def no_diagnosis(*args):
        raise AssertionError("valid text reached _diagnose")

    monkeypatch.setattr(cli, "_diagnose", no_diagnosis)
    text = "\x0c\n2\t1\r\n \n+0  1 1_0\r\n\t\n"
    assert parse_graph(text) == Graph(2, ((0, 1, 10),)) == line_by_line_graph(text)
    text = "1 ٣\n\t０ +2"
    assert parse_knapsack(text) == line_by_line_knapsack(text)
    assert parse_knapsack(text).items == ((0, 2),)


def test_round_trip_fixed_instances():
    assert render_graph(parse_graph(TRIANGLE_TEXT)) == TRIANGLE_TEXT
    assert render_knapsack(parse_knapsack(KNAP_TEXT)) == KNAP_TEXT


@given(
    n=st.integers(1, 8),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_generated_graphs_round_trip_and_connect(n, density, seed):
    g = gen_graph(n, density, 9, seed)
    assert is_connected(g)
    assert parse_graph(render_graph(g)) == g


@given(items=st.integers(0, 10), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_generated_knapsacks_round_trip(items, seed):
    inst = gen_knapsack(items, None, 9, 9, seed)
    assert parse_knapsack(render_knapsack(inst)) == inst


def test_gen_deterministic_per_seed():
    a = gen_graph(8, 0.5, 10, seed=42)
    b = gen_graph(8, 0.5, 10, seed=42)
    c = gen_graph(8, 0.5, 10, seed=43)
    assert a == b
    assert a != c


def _gen_graph_with_tuple_pairs(nodes, density, max_weight, seed):
    """``gen_graph`` as it was when it held its spare pairs as tuples and
    drew through ``rng.shuffle`` and ``rng.randint``."""
    rng = random.Random(seed)
    edges = []
    order = list(range(nodes))
    rng.shuffle(order)
    present = set()
    for i in range(1, nodes):
        a, b = order[rng.randrange(i)], order[i]
        edges.append((a, b, rng.randint(0, max_weight)))
        present.add((min(a, b), max(a, b)))
    target_m = max(nodes - 1, round(density * nodes * (nodes - 1) / 2))
    spare = [
        (a, b)
        for a in range(nodes)
        for b in range(a + 1, nodes)
        if (a, b) not in present
    ]
    rng.shuffle(spare)
    for a, b in spare[: target_m - len(edges)]:
        edges.append((a, b, rng.randint(0, max_weight)))
    return Graph(nodes, tuple(edges))


def test_gen_graph_matches_tuple_pair_generator():
    # Packing pairs into ints changes no draw: ``shuffle`` consumes the RNG
    # by list length alone.  The shuffle and the extra weights, drawn from
    # ``getrandbits`` in place, make the draws ``Random`` makes, so every
    # graph comes out the same.  A ``max_weight`` of 2**40 takes more than
    # one 32-bit word per draw.
    cases = [
        (n, density, max_weight, seed)
        for n in (1, 2, 3, 5, 8, 13, 40)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0)
        for max_weight in (0, 1, 9, 1000, 2**40)
        for seed in range(12)
    ] + [
        (n, density, max_weight, seed)
        for n, density in ((100, 0.2), (350, 20 / 349))
        for max_weight in (0, 1000, 2**40)
        for seed in (1, 2, 3)
    ]
    for case in cases:
        assert gen_graph(*case) == _gen_graph_with_tuple_pairs(*case), case


#: sha256 of ``render_graph(gen_graph(nodes, density, 1000, seed))`` for the
#: spsp-exhaustive and tree-greedy benchmark shapes, taken from the generator
#: that drew through ``rng.shuffle`` and ``rng.randint``.
GRAPH_DIGESTS = {
    (100, 0.2, 1): "d019d1beb4dcf67d0e70b7ab20d5c306fae81e8c011c854bfaa26743665ca2ad",
    (100, 0.2, 2): "19d511b477073148be634d45fefc905ad5a9d87c52958296b5cf3c1a209118da",
    (100, 0.2, 3): "1d4400d252e404f8f180309f4489308ce83cd83617c172e665c76254d2782fb5",
    (350, 20 / 349, 1): "d2c7825dd9119936d230f9ebe4d1fb03da4dd4f385c8a1c15cc321df9e8dcaca",
    (350, 20 / 349, 2): "510a2beb729b2c828ff52b48a1b3b9e449a28d3556ab3e564172c47e975b56ab",
    (350, 20 / 349, 3): "de2bda905e7cc947e775565ad689a9722c330c2bb6ee35fbe0653e9f679ac38a",
}


@pytest.mark.parametrize("nodes, density, seed", sorted(GRAPH_DIGESTS))
def test_gen_graph_benchmark_shapes_are_pinned(nodes, density, seed):
    text = render_graph(gen_graph(nodes, density, 1000, seed))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GRAPH_DIGESTS[nodes, density, seed]


# -- command behavior ----------------------------------------------------------


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_theory_rejects_unknown_problem():
    with pytest.raises(ValueError, match="unknown problem"):
        cli.build_theory("nope", parse_graph(TRIANGLE_TEXT))


def test_gen_command_byte_identical(capsys):
    args = ["gen", "--problem", "mst-prim", "--nodes", "8", "--density", "0.5",
            "--seed", "42", "--max-weight", "10"]
    code1, out1, _ = run_main(capsys, args)
    code2, out2, _ = run_main(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    parse_graph(out1)


@pytest.mark.parametrize("flag, value", [
    ("--density", "1.7"),
    ("--density", "-0.5"),
    ("--density", "nan"),
    ("--items", "-1"),
    ("--max-weight", "-1"),
    ("--max-utility", "-1"),
    ("--nodes", "0"),
    ("--capacity", "-1"),
])
@pytest.mark.parametrize("problem", ["spsp", "knapsack"])
def test_gen_rejects_out_of_range_arguments(capsys, problem, flag, value):
    code, out, err = run_main(
        capsys, ["gen", "--problem", problem, "--seed", "1", flag, value]
    )
    assert code == 2 and out == ""
    assert flag in err and value in err


@pytest.mark.parametrize("flag, value", [
    ("--density", "0"), ("--density", "1"), ("--items", "0"),
    ("--max-weight", "0"), ("--max-utility", "0"), ("--nodes", "1"),
    ("--capacity", "0"),
])
def test_gen_accepts_range_boundaries(capsys, flag, value):
    # ``--nodes`` shapes only graphs, so it is tried on one.
    problem = "spsp" if flag == "--nodes" else "knapsack"
    code, out, _ = run_main(
        capsys, ["gen", "--problem", problem, "--seed", "1", flag, value]
    )
    assert code == 0 and out


def test_solve_text_report(tmp_path, capsys):
    path = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    code, out, _ = run_main(
        capsys,
        ["solve", "--problem", "spsp", "--input", path, "--source", "0", "--target", "2"],
    )
    assert code == 0
    assert "optimal cost: 2" in out
    assert "witness: [0, 1]" in out


def test_solve_json_report(tmp_path, capsys):
    path = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    code, out, _ = run_main(
        capsys,
        ["solve", "--problem", "sssp", "--input", path, "--mode", "greedy", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["problem"] == "sssp"
    assert payload["optimal_cost"] == 3
    assert payload["stats"]["per_level_width"] == [[2, 1], [2, 1]]
    assert "ms" not in payload  # wall time would break byte-for-byte determinism


def test_json_runs_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "k.txt", KNAP_TEXT)
    argv = ["solve", "--problem", "knapsack", "--input", path, "--json"]
    _, out1, _ = run_main(capsys, argv)
    _, out2, _ = run_main(capsys, argv)
    assert out1 == out2


def test_compare_agrees(tmp_path, capsys):
    for problem, text, extra in [
        ("spsp", TRIANGLE_TEXT, ["--target", "2"]),
        # Disconnected, but the target is reachable: no GraphDisconnected.
        ("spsp", "4 2\n0 1 1\n2 3 1\n", ["--target", "1"]),
        ("sssp", TRIANGLE_TEXT, []),
        ("mst-prim", TRIANGLE_TEXT, []),
        ("mst-kruskal", TRIANGLE_TEXT, []),
        ("knapsack", KNAP_TEXT, []),
    ]:
        path = write(tmp_path, "inst.txt", text)
        code, out, _ = run_main(
            capsys, ["compare", "--problem", problem, "--input", path] + extra
        )
        assert code == 0, (problem, out)
        assert "agree: yes" in out


def test_input_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # Editors on some systems save UTF-8 with a leading U+FEFF.
    for problem, text, extra in [
        ("spsp", TRIANGLE_TEXT, ["--target", "2"]),
        ("knapsack", KNAP_TEXT, []),
    ]:
        plain = write(tmp_path, "plain.txt", text)
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        argv = ["compare", "--problem", problem, "--json"] + extra
        code, out, err = run_main(capsys, argv + ["--input", str(marked)])
        assert code == 0 and err == "", err
        assert (code, out, err) == run_main(capsys, argv + ["--input", plain])


def test_compare_disagreement_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.oracles, "mst_ref", lambda g: 999)
    path = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    code, out, _ = run_main(
        capsys, ["compare", "--problem", "mst-kruskal", "--input", path]
    )
    assert code == 1
    assert "agree: NO" in out


RUN_COMMANDS = ("solve", "compare", "stats")


@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_parse_failure_exit_code(tmp_path, capsys, command):
    path = write(tmp_path, "bad.graph", "2 1\n0 0 5\n")
    code, out, err = run_main(
        capsys, [command, "--problem", "sssp", "--input", path]
    )
    assert code == 2 and "error" in err and out == ""


@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_missing_target_exit_code(tmp_path, capsys, command):
    path = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    code, out, err = run_main(capsys, [command, "--problem", "spsp", "--input", path])
    assert code == 2 and "--target" in err and out == ""


@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_greedy_violation_exit_code(tmp_path, capsys, command):
    # Two equally cheap routes make spsp non-greedy.
    path = write(tmp_path, "d.graph", "4 4\n0 1 1\n0 2 1\n1 3 1\n2 3 1\n")
    code, out, err = run_main(
        capsys,
        [command, "--problem", "spsp", "--input", path, "--target", "3",
         "--mode", "greedy"],
    )
    assert code == 3 and "greedy violation" in err and out == ""


def test_exhaustive_mode_recovers_from_greedy_violation(tmp_path, capsys):
    path = write(tmp_path, "d.graph", "4 4\n0 1 1\n0 2 1\n1 3 1\n2 3 1\n")
    code, out, _ = run_main(
        capsys,
        ["solve", "--problem", "spsp", "--input", path, "--target", "3",
         "--mode", "exhaustive"],
    )
    assert code == 0 and "optimal cost: 2" in out


def test_cap_exceeded_exit_code(tmp_path, capsys, monkeypatch):
    real = cli.oracles.knapsack_dp_ref
    monkeypatch.setattr(
        cli.oracles, "knapsack_dp_ref", lambda inst: real(inst, cell_cap=1)
    )
    path = write(tmp_path, "k.txt", KNAP_TEXT)
    code, _, err = run_main(capsys, ["compare", "--problem", "knapsack", "--input", path])
    assert code == 4 and "cap exceeded" in err


def test_stats_command_rows(tmp_path, capsys):
    path = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    code, out, _ = run_main(
        capsys, ["stats", "--problem", "mst-prim", "--input", path]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level raw undominated"
    assert lines[1].split() == ["1", "2", "1"]


def test_stats_rejects_json_flag(tmp_path, capsys):
    # ``stats`` has only a text form, so ``--json`` is a usage error.
    path = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--problem", "mst-prim", "--input", path, "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


def test_solve_rejects_compare_flag(tmp_path, capsys):
    # The oracle runs only under the ``compare`` command.
    path = write(tmp_path, "tri.graph", TRIANGLE_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "mst-prim", "--input", path, "--compare"])
    assert exc.value.code == 2
    assert "--compare" in capsys.readouterr().err


def test_compare_harness_100_seeds_per_problem(tmp_path, capsys):
    import random

    for problem in cli.PROBLEMS:
        for k in range(100):
            seed = 1000 * cli.PROBLEMS.index(problem) + k
            rng = random.Random(seed)
            if problem == "knapsack":
                text = render_knapsack(gen_knapsack(rng.randint(1, 10), None, 9, 9, seed))
                extra = []
            else:
                g = gen_graph(rng.randint(4, 8), rng.uniform(0.3, 0.8), 9, seed)
                text = render_graph(g)
                extra = ["--target", str(g.n - 1)] if problem == "spsp" else []
            path = tmp_path / "inst.txt"
            path.write_text(text)
            code = main(["compare", "--problem", problem, "--input", str(path)] + extra)
            capsys.readouterr()
            assert code == 0, (problem, seed)


def test_unreachable_target_reports_null_cost(tmp_path, capsys):
    path = write(tmp_path, "g.graph", "3 1\n0 1 1\n")
    code, out, _ = run_main(
        capsys,
        ["compare", "--problem", "spsp", "--input", path, "--target", "2", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal_cost"] is None and payload["agree"] is True


def test_compare_spsp_on_a_1000_node_graph(tmp_path, capsys):
    # Dijkstra is the reference, so compare scales as far as the engine does.
    path = write(tmp_path, "g.graph", render_graph(gen_graph(1000, 0.01, 1000, 1)))
    code, out, _ = run_main(
        capsys,
        ["compare", "--problem", "spsp", "--input", path, "--source", "0",
         "--target", "999"],
    )
    assert code == 0 and "agree: yes" in out


SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*args):
    """``python -m frontier_search.cli`` in a fresh process, on this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "frontier_search.cli", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_runs_gen_then_compare(tmp_path, capsys):
    # The ``__main__`` guard runs ``main`` and exits with its code.
    gen = run_module("gen", "--problem", "knapsack", "--seed", "4")
    assert gen.returncode == 0, gen.stderr
    assert main(["gen", "--problem", "knapsack", "--seed", "4"]) == 0
    assert gen.stdout == capsys.readouterr().out
    path = tmp_path / "inst.txt"
    path.write_text(gen.stdout)
    compare = run_module("compare", "--problem", "knapsack", "--input", str(path), "--json")
    assert compare.returncode == 0, compare.stderr
    assert json.loads(compare.stdout)["agree"] is True
    missing = run_module("compare", "--problem", "knapsack", "--input", str(tmp_path / "none"))
    assert missing.returncode == 2 and "error:" in missing.stderr
