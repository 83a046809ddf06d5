"""The package's modules parse under the Python 3.10 grammar, the oldest
version pyproject.toml's `requires-python` admits, so syntax newer than that
cannot slip in on a newer interpreter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fsosr"


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_under_python_3_10_grammar(module):
    """Checks the grammar only: `ast.parse` with `feature_version` rejects
    syntax newer than 3.10 (`except*`, a `type` statement, a generic
    `def f[T]`), not library calls or behaviour that are newer."""
    ast.parse(module.read_text(), filename=str(module), feature_version=(3, 10))
