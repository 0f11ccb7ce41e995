"""Source rules checked over the whole package."""

import ast
import re
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


def _names(nodes):
    """Every bare name and attribute name referred to inside nodes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_src_names_reach_the_product():
    # every top-level function, class and constant of src/logtw, and every
    # method, must be reachable from the command line or the benchmark;
    # checks and references that only the tests need belong in
    # tests/lemmas.py or tests/brute.py.  Dunders are exempt, and count as
    # part of their class: Python itself looks them up.  A reference is a
    # bare name or an attribute name, matched by name in every module; a
    # method is matched by its own name.
    src = Path(logtw.__file__).parent
    refs = {}  # (module, qualified name) -> names its definition refers to
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods = [f for f in node.body
                           if isinstance(f, ast.FunctionDef)
                           and not f.name.startswith("__")]
                for f in methods:
                    refs[(path.stem, f"{node.name}.{f.name}")] = _names([f])
                rest = [b for b in node.body if b not in methods]
                names = [node.name]
                used = _names(node.bases + node.decorator_list + rest)
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
                used = _names([node])
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
                used = _names([node])
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    refs[(path.stem, name)] = used
    bench = "\n".join(p.read_text() for p in sorted(
        (Path(__file__).parent.parent / "benchmark").glob("*.py")))
    todo = [key for key in refs if key[0] == "cli" or re.search(
        rf"\b{key[1].split('.')[-1]}\b", bench)]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += [other for other in refs
                     if other[1].split(".")[-1] in refs[key]]
    assert sorted(f"{m}.{n}" for m, n in set(refs) - reached) == []
