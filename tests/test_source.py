"""The package's source parses as Python 3.10, the oldest version that
``pyproject.toml``'s ``requires-python`` admits.

``ast.parse(..., feature_version=(3, 10))`` rejects syntax newer than 3.10,
such as ``except*`` groups or ``type`` aliases, on a newer interpreter.  It
is a check of syntax only: a call to a library function or argument added
after 3.10 still parses, and only a 3.10 interpreter would catch it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FILES = sorted(SRC.rglob("*.py"))


def test_there_are_sources_to_check():
    assert len(FILES) >= 5


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(SRC)) for p in FILES])
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
