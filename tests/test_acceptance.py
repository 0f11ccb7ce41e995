"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Lines are written straight to the real stdout so they stay visible under
pytest's output capturing.
"""

import io
import sys
import time
from itertools import combinations, combinations_with_replacement

import pytest

from logtw import detect, generators, oracle, separators, treedec
from logtw.builder import Caps, decompose, width_bound
from logtw.cli import main as cli_main
from logtw.formats import read_td, write_td
from logtw.graph import Graph
from logtw.separators import ramsey

import brute
import lemmas
from conftest import hub_layer_cases


def _line(text):
    print(text, flush=True)


def _report(name):
    """Decorator printing exactly one pass/fail line for the criterion."""
    def wrap(fn):
        def run(*args, **kwargs):
            start = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                _line(f"{name}: FAIL ({type(e).__name__}: {e})")
                raise
            took = time.time() - start
            suffix = f" — {detail}" if detail else ""
            _line(f"{name}: PASS ({took:.1f}s){suffix}")
        return run
    return wrap


# ---------------------------------------------------------------- corpus --

_corpus_cache = []


def _corpus():
    """(t, graph, description) triples; ≥ 200 graphs, n ≤ 60."""
    if _corpus_cache:
        return _corpus_cache
    out = []
    for k in (2, 3, 4):
        g = generators.wall(k)
        out.append((3, g, f"wall({k})"))
    for n in range(4, 61, 2):
        out.append((3, generators.cycle(n), f"cycle({n})"))
    for a, b, c in combinations_with_replacement(range(2, 7), 3):
        out.append((4, generators.theta(a, b, c), f"theta({a},{b},{c})"))
    for a, b, c in combinations_with_replacement(range(1, 5), 3):
        try:
            out.append((4, generators.pyramid(a, b, c),
                        f"pyramid({a},{b},{c})"))
        except ValueError:
            pass
        out.append((4, generators.prism(a, b, c), f"prism({a},{b},{c})"))
    for a, b in combinations_with_replacement(range(2, 5), 2):
        out.append((4, generators.pinched_prism(a, b),
                    f"pinched_prism({a},{b})"))
    seed = 0
    for n in (8, 12, 16, 20, 30, 40, 50, 60):
        for p in (1.5 / n, 3.0 / n, 0.15):
            for _ in range(3):
                seed += 1
                out.append((4, generators.random_graph(n, p, seed),
                            f"random(n={n},p={p:.3f},seed={seed})"))
    for n in (15, 20, 25, 30, 40, 50):
        for s in range(4):
            g = generators.random_in_class(n, 1.5 / n, 3, 7000 + s)
            if g is not None:
                out.append((3, g, f"member3(n={n},seed={s})"))
    for n in (15, 20, 25):
        for s in range(4):
            g = generators.random_in_class(n, 2.0 / n, 4, 8000 + s)
            if g is not None:
                out.append((4, g, f"member4(n={n},seed={s})"))
    assert len(out) >= 200, f"corpus too small: {len(out)}"
    assert all(g.n <= 60 for _, g, _ in out)
    _corpus_cache.append(None)
    _corpus_cache[0] = out
    return out


_decomposed = {}


def _decompose_corpus():
    if _decomposed:
        return _decomposed["rows"]
    rows = []
    for t, g, name in _corpus():
        caps = Caps(detect=g.n, hole=max(g.n, 64))
        td, report = decompose(g, t, caps=caps, uncertified_ok=True)
        rows.append((t, g, name, td, report))
    _decomposed["rows"] = rows
    return rows


# ------------------------------------------------------------- criteria --

@_report("criterion 1 (validity on ≥200-graph corpus)")
def _c1(tmp_path):
    rows = _decompose_corpus()
    for i, (t, g, name, td, report) in enumerate(rows):
        gpath = tmp_path / f"g{i}.gr"
        tpath = tmp_path / f"g{i}.td"
        with open(gpath, "w") as fh:
            from logtw.formats import write_graph
            write_graph(g, fh)
        with open(tpath, "w") as fh:
            write_td(td, g.n, fh)
        import contextlib
        with contextlib.redirect_stdout(io.StringIO()) as sink:
            code = cli_main(["verify", "--graph", str(gpath), "--td",
                             str(tpath)])
        assert code == 0, f"verify failed on {name}: {sink.getvalue()}"
    return f"{len(rows)} graphs decomposed and verified"


def test_criterion_1(tmp_path, capfd):
    with capfd.disabled():
        _c1(tmp_path)


@_report("criterion 2 (certified width ≤ formula bound)")
def _c2():
    rows = _decompose_corpus()
    checked = 0
    for t, g, name, td, report in rows:
        in_class, _ = detect.in_class_Ct(g, t, caps=g.n)
        assert in_class == report.certified, name
        if not report.certified:
            continue
        bound = width_bound(t, g.n, report.delta_used, report.hdim_used)
        assert report.bound == bound, name
        assert td.width == report.achieved_width <= bound, name
        checked += 1
    assert checked >= 40, f"only {checked} certified corpus graphs"
    return f"{checked} certified graphs within bound"


def test_criterion_2(capfd):
    with capfd.disabled():
        _c2()


@_report("criterion 3 (log-scaling bench, exact bound step per doubling)")
def _c3(tmp_path):
    out = tmp_path / "bench.tsv"
    code = cli_main(["bench", "--sizes", "16,32,64,128,256", "--t", "3",
                     "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["n", "log2n", "width", "bound",
                                    "certified"]
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == ["16", "32", "64", "128", "256"]
    step = ramsey(3, 4) * (4 * 1 + ramsey(3, 3))  # delta = 1: triangle-free
    bounds = [int(r[3]) for r in rows]
    for a, b in zip(bounds, bounds[1:]):
        assert b - a == step, f"bound step {b - a} != {step}"
    for r in rows:
        assert int(r[2]) <= int(r[3]), "width exceeds bound"
        assert r[4] == "yes", "bench row not certified"
    return f"bounds {bounds}, step {step}"


def test_criterion_3(tmp_path, capfd):
    with capfd.disabled():
        _c3(tmp_path)


@_report("criterion 4 (exact treewidth = brute force)")
def _c4():
    count = 0
    for n in (6, 7, 8, 9, 10):
        for s in range(20):
            g = generators.random_graph(n, 0.2 + 0.04 * s, 9000 + count)
            w, td = treedec.exact_treewidth(g)
            assert treedec.validate(g, td) is None
            assert w == td.width == brute.brute_treewidth(g)
            count += 1
    assert count == 100
    assert treedec.exact_treewidth(generators.clique(5))[0] == 4
    assert treedec.exact_treewidth(
        generators.complete_bipartite(3, 3))[0] == 3
    assert treedec.exact_treewidth(generators.wall(3))[0] == 3
    return "100 random graphs + 3 named values"


def test_criterion_4(capfd):
    with capfd.disabled():
        _c4()


@_report("criterion 5 (detectors = brute force + confusion matrix)")
def _c5():
    finders = [("theta", detect.find_theta),
               ("pyramid", detect.find_pyramid),
               ("prism", detect.find_prism),
               ("pinched_prism", detect.find_pinched_prism),
               ("cube", detect.find_cube)]
    count = 0
    for n in (7, 8, 9, 10):
        for s in range(50):
            g = generators.random_graph(n, 0.15 + 0.012 * s, 10_000 + count)
            for kind, finder in finders:
                cert = finder(g)
                assert (cert is not None) == \
                    brute.brute_contains_induced(g, kind), (kind, n, s)
                if cert is not None:
                    assert cert.verify(g)
            count += 1
    assert count == 200

    families = [("theta", generators.theta(2, 2, 2)),
                ("pyramid", generators.pyramid(1, 2, 2)),
                ("prism", generators.prism(1, 1, 1)),
                ("pinched_prism", generators.pinched_prism(2, 2)),
                ("cube", generators.cube()),
                ("clique6", generators.clique(6)),
                ("cycle7", generators.cycle(7))]
    columns = finders + [("clique6", lambda g:
                          detect.has_clique(g, 6))]
    for fam_name, g in families:
        hits = [col for col, f in columns if f(g) is not None]
        if fam_name == "cycle7":
            assert hits == [], hits
        else:
            assert hits == [fam_name], (fam_name, hits)
    return "200 random graphs + 7-family confusion matrix is identity"


def test_criterion_5(capfd):
    with capfd.disabled():
        _c5()


@_report("criterion 6 (DP solvers = brute force on exact decompositions)")
def _c6():
    count = 0
    for n in (8, 10, 12):
        per = 34 if n == 8 else 33
        for s in range(per):
            g = generators.random_graph(n, 0.12 + 0.01 * s, 11_000 + count)
            _, td = treedec.exact_treewidth(g)
            assert treedec.solve_stable_set(g, td)[0] == \
                oracle.brute_stable_set(g)
            assert treedec.solve_vertex_cover(g, td)[0] == \
                oracle.brute_vertex_cover(g)
            assert treedec.solve_dominating_set(g, td)[0] == \
                oracle.brute_dominating_set(g)
            assert treedec.solve_chromatic(g, td) == \
                oracle.brute_chromatic(g)
            count += 1
    assert count == 100
    return "100 random graphs, 4 solvers each"


def test_criterion_6(capfd):
    with capfd.disabled():
        _c6()


@_report("criterion 7 (structural property suites, zero tolerance)")
def _c7():
    import test_properties as props
    suites = [
        props.test_minimal_separators_have_small_non_hub_part,
        props.test_pmcs_have_small_non_hub_part,
        props.test_component_attachments_are_small,
        props.test_cube_forces_clique_cutset_or_cube_partition,
        props.test_optimal_wheel_is_not_dominated_by_one_component,
        props.test_hub_loses_hub_status_in_component_closures,
        props.test_a_side_containment_is_nested,
        props.test_a_side_relation_is_a_partial_order,
        props.test_core_sides_are_loosely_laminar,
        props.test_central_bag_guarantees,
        props.test_contracted_neighborhood_stays_in_class_and_wheel_free,
        props.test_hub_partition_bound_on_members,
        props.test_certified_builds_keep_layer_claims_live,
    ]
    for suite in suites:
        suite()
    return f"{len(suites)} suites"


def test_criterion_7(capfd):
    with capfd.disabled():
        _c7()


@_report("criterion 8 (structuring keeps width, outputs only PMC bags)")
def _c8():
    count = 0
    for n in (8, 10, 12, 14):
        for s in range(25):
            g = generators.random_graph(n, 0.12 + 0.012 * s, 12_000 + count)
            if n <= 12:
                _, td = treedec.exact_treewidth(g)
            else:
                td = treedec.greedy_fill_decomposition(g)
            out = separators.make_structured(g, td)
            assert treedec.validate(g, out) is None
            assert out.width <= td.width
            for bag in out.bags:
                assert lemmas.is_pmc(g, bag)
            count += 1
    assert count == 100
    return "100 (graph, decomposition) pairs"


def test_criterion_8(capfd):
    with capfd.disabled():
        _c8()


def test_builds_write_no_bag_inside_its_neighbour():
    # every build writes a reduced tree: no tree edge joins a bag to one
    # inside it, whether its atoms are built by min-fill or exact search
    # or, in the hub-layer cases, by the shrink levels' extensions
    builds = [(name, td) for _, _, name, td, _ in _decompose_corpus()]
    builds += [(f"hub layer case {i}", decompose(g, 3)[0])
               for i, (g, _) in enumerate(hub_layer_cases())]
    assert [name for name, td in builds if lemmas.nested_tree_edges(td)] \
        == []
