"""The console-script checks of CI's tier-1 workflow, run in process.

Each check calls ``cli.main(argv)`` with the arguments the workflow passes to
the installed ``frontier-search`` script, and asserts on its exit code and
on the output line the workflow greps for.  A ``compare`` asserts
``agree: yes`` as well as exit code 0.  The generated inputs are written once
per module, by the ``gen`` command itself.  The workflow still runs the same
commands through the installed script; this module lets tier-1 hold them.
"""

from contextlib import redirect_stdout
from io import StringIO

import pytest

from frontier_search.cli import main

#: File name -> ``gen`` arguments, as in the workflow.
GENERATED = {
    "k.txt": ["--problem", "knapsack", "--items", "60", "--seed", "1"],
    "k200.txt": ["--problem", "knapsack", "--items", "200", "--seed", "1"],
    "k1000.txt": ["--problem", "knapsack", "--items", "1000", "--max-weight", "100",
                  "--max-utility", "100", "--seed", "1"],
    "kcap.txt": ["--problem", "knapsack", "--items", "4", "--max-weight", "100000000",
                 "--seed", "1"],
    "g300.txt": ["--problem", "sssp", "--nodes", "300", "--density", "0.03",
                 "--seed", "1"],
    "g350.txt": ["--problem", "sssp", "--nodes", "350", "--density", "0.0573",
                 "--max-weight", "1000", "--seed", "1"],
    "g100.txt": ["--problem", "spsp", "--nodes", "100", "--density", "0.2",
                 "--max-weight", "1000", "--seed", "1"],
    "g1000.txt": ["--problem", "spsp", "--nodes", "1000", "--density", "0.01",
                  "--seed", "1"],
}

#: File name -> text of the hand-made inputs, as in the workflow.
HAND_MADE = {
    # Zero weights, an item heavier than the capacity, equal ratios.
    "k6.txt": "6 10\n0 3\n4 8\n2 4\n11 30\n3 3\n0 0\n",
    "g4.txt": "4 4\n0 1 10\n0 2 1\n1 2 1\n1 3 1\n",
    "g5.txt": "5 5\n0 1 1\n1 2 1\n0 2 3\n2 4 20\n4 3 0\n",
    "g6.txt": "5 6\n0 1 10\n0 2 10\n0 3 1\n2 3 1\n1 2 1\n1 4 1\n",
    "g7.txt": "5 6\n0 1 2\n0 4 2\n4 1 0\n1 2 5\n1 2 1\n2 3 1\n",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("console")
    for name, args in GENERATED.items():
        out = StringIO()
        with redirect_stdout(out):
            assert main(["gen", *args]) == 0, name
        (folder / name).write_text(out.getvalue())
    for name, text in HAND_MADE.items():
        (folder / name).write_text(text)
    return {name: str(folder / name) for name in [*GENERATED, *HAND_MADE]}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_gen_prints_an_instance(capsys):
    code, lines, _ = run(capsys, ["gen", "--problem", "knapsack", "--seed", "1"])
    assert code == 0
    items, capacity = map(int, lines[0].split())
    assert len(lines) == 1 + items and capacity >= 0


#: ``(input, problem, extra flags)`` of every ``compare`` in the workflow.
COMPARES = [
    ("k.txt", "knapsack", []),
    ("k200.txt", "knapsack", []),
    ("k6.txt", "knapsack", []),
    ("k1000.txt", "knapsack", []),
    *[("g300.txt", p, []) for p in ("sssp", "mst-prim", "mst-kruskal")],
    *[("g350.txt", p, []) for p in ("sssp", "mst-prim", "mst-kruskal")],
    ("g300.txt", "spsp", ["--target", "299"]),
    ("g300.txt", "spsp", ["--source", "5", "--target", "5"]),
    ("g4.txt", "spsp", ["--target", "3"]),
    ("g5.txt", "spsp", ["--target", "3"]),
    ("g6.txt", "spsp", ["--target", "4"]),
    ("g7.txt", "spsp", ["--target", "3"]),
    ("g100.txt", "spsp", ["--target", "99"]),
    ("g1000.txt", "spsp", ["--target", "999"]),
]


@pytest.mark.parametrize(
    "name, problem, extra", COMPARES,
    ids=[" ".join([problem, name, *extra]) for name, problem, extra in COMPARES],
)
def test_compare_agrees(capsys, inputs, name, problem, extra):
    code, lines, _ = run(
        capsys, ["compare", "--problem", problem, "--input", inputs[name], *extra]
    )
    assert code == 0, lines
    assert any(line.endswith("  agree: yes") for line in lines), lines


def test_compare_finds_the_hand_made_knapsack_optimum(capsys, inputs):
    code, lines, _ = run(
        capsys, ["compare", "--problem", "knapsack", "--input", inputs["k6.txt"]]
    )
    assert code == 0
    assert "optimal cost: 18" in lines


#: ``(input, problem, extra flags)`` of every ``stats`` in the workflow.
STATS = [
    ("g300.txt", "spsp", ["--target", "299"]),
    ("g1000.txt", "spsp", ["--target", "999"]),
    ("k200.txt", "knapsack", []),
    ("g300.txt", "sssp", []),
    ("g350.txt", "mst-prim", []),
    ("g350.txt", "mst-kruskal", []),
]


@pytest.mark.parametrize(
    "name, problem, extra", STATS,
    ids=[" ".join([problem, name, *extra]) for name, problem, extra in STATS],
)
def test_stats_prints_a_row_per_level(capsys, inputs, name, problem, extra):
    code, lines, _ = run(
        capsys, ["stats", "--problem", problem, "--input", inputs[name], *extra]
    )
    assert code == 0
    assert lines[0] == "level raw undominated" and len(lines) > 1
    for level, line in enumerate(lines[1:], start=1):
        number, raw, undominated = map(int, line.split())
        assert number == level and raw >= undominated >= 0


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # spsp without --target is a usage error.
        (["solve", "--problem", "spsp", "--input", "g300.txt"], 2, "error:"),
        # Greedy mode on knapsack meets a level with no single best child.
        (["solve", "--problem", "knapsack", "--input", "k.txt", "--mode", "greedy"],
         3, "greedy violation:"),
        # The DP's table would pass its cell cap.
        (["compare", "--problem", "knapsack", "--input", "kcap.txt"], 4, "cap exceeded:"),
    ],
    ids=["spsp-without-target", "knapsack-greedy", "knapsack-dp-cap"],
)
def test_exit_code(capsys, inputs, argv, code, message):
    argv = [inputs.get(arg, arg) for arg in argv]
    got, _, err = run(capsys, argv)
    assert got == code
    assert err.startswith(message), err
