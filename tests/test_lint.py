"""Source rules checked over the whole package."""

import ast
from pathlib import Path

import logtw


def test_no_assert_statements():
    # output checks must raise explicit exceptions: `python -O` strips
    # assert statements
    found = []
    for path in sorted(Path(logtw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
