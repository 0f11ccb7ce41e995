"""Source rules checked over the whole package."""

import ast
import re
from pathlib import Path

import logtw
from logtw import builder, detect
from logtw.graph import Graph

from conftest import hub_layer_cases


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


def test_benchmark_tracer_counts_the_split(monkeypatch):
    # `benchmark/run.py --trace 1` counts atoms off what the wrapped
    # clique_cutset_atoms returns, and its calls; both must match the
    # splits the build makes, one call per component of more than two
    # vertices, shrink levels' splits included
    path = Path(__file__).parent.parent / "benchmark" / "tracing.py"
    tracing = {}  # executed from its text, so no bytecode is written there
    exec(compile(path.read_text(), str(path), "exec"), tracing)
    pieces = []
    real = builder.split

    def recorded(g):
        out = real(g)
        pieces.extend(out)
        return out
    monkeypatch.setattr(builder, "split", recorded)
    levels = hub_layer_cases()[1][0]  # certified; its shrink level splits
    g = Graph(17, [(0, 1), (1, 2), (2, 3), (3, 4),           # a path
                   (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
                   (10, 5),                                   # a 6-hole
                   (11, 12), (12, 13), (13, 11), (13, 14),   # K_3 + a leaf
                   (15, 16)])                                 # an edge
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        builder.decompose(g, 4)
        builder.decompose(levels, 3)
    finally:
        tracer.uninstall()
    cut = [atoms for atoms, _ in pieces
           if len(frozenset().union(*atoms)) > 2]
    assert len(cut) > sum(len(c) > 2 for c in g.components()) + 1
    assert tracer.calls["separators.clique_cutset_atoms"] == len(cut)
    assert tracer.counts["separators.atoms"] == sum(map(len, cut))


def test_benchmark_tracer_counts_the_construction():
    # the benchmark reports the construction's layers by the calls the
    # tracer sees at builder's names; work moved behind a helper those
    # names no longer reach would read as zero calls, not as a change
    path = Path(__file__).parent.parent / "benchmark" / "tracing.py"
    tracing = {}  # executed from its text, so no bytecode is written there
    exec(compile(path.read_text(), str(path), "exec"), tracing)
    tracer = tracing["Tracer"]()
    cases = hub_layer_cases()  # its first call runs hub searches of its own
    tracer.install()
    try:
        for g, _ in cases:
            builder.decompose(g, 3)
    finally:
        tracer.uninstall()
    assert {name: tracer.calls[name] for name in (
        "central_bag.central_bag", "central_bag.extend_tree",
        "central_bag.build_contraction", "central_bag.extend_neighborhood",
        "hub_partition.is_balanced", "separators.make_structured")} == {
        "central_bag.central_bag": 2, "central_bag.extend_tree": 2,
        "central_bag.build_contraction": 106,
        "central_bag.extend_neighborhood": 106,
        "hub_partition.is_balanced": 108, "separators.make_structured": 428}
    # the hub search draws its holes through detect's name, which the
    # tracer counts; holes drawn past it would read as none
    assert tracer.calls["detect.hubs"] == 110
    assert tracer.counts["detect.holes_enumerated"] == 370


def _rendered(node):
    """The text of a string or f-string node, each placeholder as 7."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    return "".join(_rendered(v) if isinstance(v, ast.Constant) else "7"
                   for v in node.values)


def test_cap_messages_name_their_size():
    # every SizeCapExceeded says which size hit which cap: "<what> capped
    # at <x> <= <cap>, got ...", or for the hub search "... budget of <n>
    # holes ...".  The benchmark counts a cap exit only when its message
    # matches CAP_MESSAGE, so every shape a benchmark input can reach
    # must match it too: all but the chromatic search's cap on q, which no
    # `solve` input reaches (its colour bracket closes below the cap)
    path = Path(__file__).parent.parent / "benchmark" / "checks.py"
    checks = {}  # executed from its text, so no bytecode is written there
    exec(compile(path.read_text(), str(path), "exec"), checks)
    shape = re.compile(r"capped at (\w+) <= 7, got |budget of 7 holes")
    found = {}
    for path in sorted(Path(logtw.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and \
                    isinstance(node.exc, ast.Call) and \
                    getattr(node.exc.func, "id", None) == "SizeCapExceeded":
                found[f"{path.name}:{node.lineno}"] = _rendered(
                    node.exc.args[0])
    assert len(found) >= 6
    for where, text in found.items():
        match = shape.search(text)
        assert match, (where, text)
        if match[1] != "q":
            assert checks["CAP_MESSAGE"].search(text), (where, text)


def _names(nodes):
    """Every bare name and attribute name referred to inside nodes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _src_refs():
    """(module, qualified name) -> the names its definition refers to, for
    every top-level function, class and constant of src/logtw and every
    method.  Dunders are left out, and count as part of their class:
    Python itself looks them up."""
    src = Path(logtw.__file__).parent
    refs = {}
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
    return refs


def _reached(refs, roots):
    """The keys of refs reachable from roots.  A reference is a bare name
    or an attribute name, matched by name in every module; a method is
    matched by its own name."""
    todo = list(roots)
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += [other for other in refs
                     if other[1].split(".")[-1] in refs[key]]
    return reached


def _product_roots(refs):
    """Two lists of keys of refs: every cli definition, and every name
    the benchmark's sources mention."""
    bench = "\n".join(p.read_text() for p in sorted(
        (Path(__file__).parent.parent / "benchmark").glob("*.py")))
    cli = [key for key in refs if key[0] == "cli"]
    return cli, [key for key in refs if re.search(
        rf"\b{key[1].split('.')[-1]}\b", bench)]


def test_src_names_reach_the_product():
    # every top-level function, class and constant of src/logtw, and every
    # method, must be reachable from the command line or the benchmark;
    # checks and references that only the tests need belong in
    # tests/lemmas.py or tests/brute.py
    refs = _src_refs()
    cli, bench = _product_roots(refs)
    assert sorted(f"{m}.{n}" for m, n in
                  set(refs) - _reached(refs, cli + bench)) == []


def test_benchmark_only_names_are_pinned():
    # the names of src/logtw that the benchmark reaches and the command
    # line does not: each is kept only for the benchmark, so a new one
    # needs an edit here, and moving one out of src/logtw shrinks the set
    refs = _src_refs()
    cli, bench = _product_roots(refs)
    only = _reached(refs, cli + bench) - _reached(refs, cli)
    assert sorted(f"{m}.{n}" for m, n in only) == [
        "graph.Graph.is_connected",
        "oracle.CHROMATIC_CAP", "oracle.SOLVER_CAP", "oracle._cap",
        "oracle._colorable", "oracle.brute_chromatic",
        "oracle.brute_dominating_set", "oracle.brute_stable_set",
        "oracle.brute_vertex_cover",
        "separators.find_clique_cutset",
        "treedec._require_valid", "treedec.solve_chromatic",
        "treedec.solve_dominating_set", "treedec.solve_q_coloring",
        "treedec.solve_stable_set", "treedec.solve_vertex_cover"]


def _functions(node, prefix):
    """(qualified name, node) for every function and method under node,
    nested ones included, each named through what encloses it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def test_recursion_is_pinned():
    # every function of src/logtw whose body calls its own name, with the
    # bound on how deep it goes: a search that nests one frame per vertex
    # of its input dies with RecursionError on a long enough input, so a
    # new recursive function needs an edit here.  Recursion through other
    # functions is not seen: builder's _any -> _atom -> _shrink -> _parts
    # -> _any, and _shrink -> _balanced -> _parts, go one round per hub
    # layer or balanced level
    found = set()
    for path in sorted(Path(logtw.__file__).parent.glob("*.py")):
        for name, f in _functions(ast.parse(path.read_text()), path.stem):
            if any(isinstance(n, ast.Call) and
                   getattr(n.func, "id", None) == f.name
                   for n in ast.walk(f)):
                found.add(name)
    assert found == {
        "builder._shrink",           # one level per hub layer
        "detect.has_clique.grow",    # depth at most t
        "detect._in_host.host",      # role nesting depth 2
        "oracle._colorable.assign",  # n <= CHROMATIC_CAP
    }
