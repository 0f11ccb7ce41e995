"""Source rules checked over the whole package."""

import ast
from pathlib import Path

import logtw
from logtw import detect


def test_no_assert_statements():
    # output checks must raise explicit exceptions: `python -O` strips
    # assert statements
    found = []
    for path in sorted(Path(logtw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer wraps layer functions at the module names
    # callers resolve; a renamed or no-longer-imported name would break
    # `benchmark/run.py --trace 1`
    path = Path(__file__).parent.parent / "benchmark" / "tracing.py"
    tracing = {}  # executed from its text, so no bytecode is written there
    exec(compile(path.read_text(), str(path), "exec"), tracing)
    names = [(module, attr) for module, attr, _ in tracing["SPANS"]]
    names.append((detect, "enumerate_holes"))
    missing = [f"{module.__name__}.{attr}" for module, attr in names
               if not callable(getattr(module, attr, None))]
    assert missing == []
