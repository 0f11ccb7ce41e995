"""Detector tests: named families, brute-force cross-checks on small random
graphs, wheels and sectors, connected-connector classification, cube
partitions and the class membership predicates."""

import pytest

from logtw import detect, generators, oracle
from logtw.graph import Graph, SizeCapExceeded, enumerate_holes

import lemmas
from conftest import random_corpus, relabelled


FINDERS = {
    "theta": detect.find_theta,
    "pyramid": detect.find_pyramid,
    "prism": detect.find_prism,
    "pinched_prism": detect.find_pinched_prism,
    "cube": detect.find_cube,
}


def test_finders_agree_with_brute_force_on_random_graphs():
    for g in random_corpus(8, 30, p=0.35, seed_base=400) + \
            random_corpus(9, 20, p=0.3, seed_base=500):
        for kind, finder in FINDERS.items():
            cert = finder(g, cap=g.n)
            assert (cert is not None) == oracle.brute_contains_induced(g, kind)
            if cert is not None:
                assert cert.verify(g)


def test_finders_on_named_families():
    cases = [
        (generators.theta(2, 2, 2), "theta"),
        (generators.theta(2, 3, 4), "theta"),
        (generators.pyramid(1, 2, 2), "pyramid"),
        (generators.pyramid(2, 2, 3), "pyramid"),
        (generators.prism(1, 1, 1), "prism"),
        (generators.prism(1, 2, 3), "prism"),
        (generators.pinched_prism(2, 2), "pinched_prism"),
        (generators.cube(), "cube"),
    ]
    for g, kind in cases:
        cert = FINDERS[kind](g, cap=g.n)
        assert cert is not None and cert.verify(g)


def test_finders_negative_on_plain_graphs():
    for g in (generators.cycle(9), generators.path(8), generators.clique(6)):
        for finder in FINDERS.values():
            assert finder(g, cap=g.n) is None


def test_clique_detection():
    size, verts = detect.clique_number(generators.clique(6))
    assert size == 6 and len(verts) == 6
    assert detect.clique_number(generators.cycle(5))[0] == 2
    assert detect.has_clique(generators.clique(5), 5).verify(generators.clique(5))
    assert detect.has_clique(generators.cycle(6), 3) is None
    cert = detect.has_clique(generators.complete_bipartite(3, 3), 2)
    assert cert is not None and cert.verify(generators.complete_bipartite(3, 3))


def _wheel_graph():
    # C_7 on 0..6 plus hub 7 adjacent to 0, 2, 4: three sectors, all long.
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(7, 0), (7, 2), (7, 4)]
    return Graph(8, edges)


def test_wheel_sectors_and_validity():
    g = _wheel_graph()
    wheels = list(lemmas.wheels_at(g, 7))
    assert len(wheels) == 1
    w = wheels[0]
    assert lemmas.is_valid_wheel(g, w)
    secs = lemmas.sectors(g, w)
    assert len(secs) == 3
    # every sector starts and ends at hub neighbors and walks the hole
    for s in secs:
        assert g.has_edge(7, s[0]) and g.has_edge(7, s[-1])
    assert len(lemmas.long_sectors(g, w)) == 3
    assert sorted(detect.hubs(g)) == [7]
    assert lemmas.optimal_wheel(g, 7) is not None
    assert lemmas.optimal_wheel(g, 0) is None


def test_wheel_rejects_short_or_fanned_holes():
    # hub adjacent to 3 consecutive hole vertices: only one long sector
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(6, 0), (6, 1), (6, 2)]
    g = Graph(7, edges)
    assert list(lemmas.wheels_at(g, 6)) == []
    assert detect.hubs(g) == frozenset()


def test_hubs_match_wheel_definition_under_budget():
    graphs = list(random_corpus(12, 12, p=0.3, seed_base=700))
    graphs += [relabelled(generators.wall(k), seed=k) for k in (3, 4)]
    assert max(len(list(enumerate_holes(g, min_len=5)))
               for g in graphs) > 50
    for g in graphs:
        holes = list(enumerate_holes(g, min_len=5))
        for budget in (None, 1, 7, 50):
            first = holes if budget is None else holes[:budget]
            expected = {v for v in g.vertices() if any(
                lemmas.is_valid_wheel(g, lemmas.Wheel(h, v)) for h in first)}
            assert detect.hubs(g, budget=budget, partial=True) == expected
            if budget is not None and len(holes) > budget:
                with pytest.raises(SizeCapExceeded,
                                   match=r"budget of \d+ holes"):
                    detect.hubs(g, budget=budget)
            else:
                assert detect.hubs(g, budget=budget) == expected
    with pytest.raises(SizeCapExceeded, match=r"capped at n <= \d+"):
        detect.hubs(Graph(70))


def test_local_vertices_and_components():
    base = _wheel_graph()
    # 8 sees only vertex 1, strictly inside one sector: local
    g = Graph(10, list(base.edges()) + [(8, 1), (9, 1), (9, 3)])
    w = next(lemmas.wheels_at(g, 7))
    assert lemmas.is_local_vertex(g, w, 8)
    # 9 reaches across two sectors (hole vertices 1 and 3): not local
    assert not lemmas.is_local_vertex(g, w, 9)
    with pytest.raises(ValueError):
        lemmas.is_local_vertex(g, w, 0)  # hole vertices are excluded
    assert lemmas.is_local_component(g, w, {8})
    assert not lemmas.is_local_component(g, w, {9})


def test_stranded_wheel_contour():
    # hole 0..7, hub 8 adjacent to the run 0,1 plus the single vertex 4:
    # two long gaps flank 4, so the wheel is stranded with contour run+(4,)
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(8, 0), (8, 1), (8, 4)]
    g = Graph(9, edges)
    w = next(lemmas.wheels_at(g, 8))
    contour = lemmas.is_stranded(g, w)
    assert contour is not None
    assert contour[-1] == 4 and set(contour[:-1]) == {0, 1}
    # hub spread over three spaced vertices is not stranded
    assert lemmas.is_stranded(_wheel_graph(),
                              next(lemmas.wheels_at(_wheel_graph(), 7))) is None


def test_connector_outcome_path():
    # x0 - 3 - 4 - x1, with x2 attached to both internal vertices
    g = Graph(5, [(0, 3), (3, 4), (4, 1), (2, 3), (2, 4)])
    h, (outcome, roles) = lemmas.minimal_connected_connector(g, 0, 1, 2)
    assert h == frozenset({3, 4})
    assert outcome == "i"
    assert set(roles["pair"]) == {0, 1} and roles["third"] == 2


def test_connector_outcome_spider():
    # center 3 with three legs of length 2 reaching x0, x1, x2
    g = Graph(7, [(3, 4), (4, 0), (3, 5), (5, 1), (3, 6), (6, 2)])
    h, (outcome, roles) = lemmas.minimal_connected_connector(g, 0, 1, 2)
    assert h == frozenset({3, 4, 5, 6})
    assert outcome == "ii"
    assert roles["center"] == 3


def test_connector_outcome_triangle():
    # triangle 3-4-5, legs 3-6-0, 4-7-1, 5-8-2
    g = Graph(9, [(3, 4), (4, 5), (3, 5),
                  (3, 6), (6, 0), (4, 7), (7, 1), (5, 8), (8, 2)])
    h, (outcome, roles) = lemmas.minimal_connected_connector(g, 0, 1, 2)
    assert h == frozenset({3, 4, 5, 6, 7, 8})
    assert outcome == "iii"
    assert set(roles["triangle"]) == {3, 4, 5}


def test_connector_rejects_bad_input():
    g = generators.path(5)
    with pytest.raises(ValueError):
        lemmas.minimal_connected_connector(g, 0, 0, 1)
    with pytest.raises(ValueError):
        lemmas.minimal_connected_connector(g, 0, 2, 4)  # middle cut by x's


def test_cube_partition_on_cube_and_blowup():
    g = generators.cube()
    out = lemmas.find_cube_partition(g)
    assert out is not None
    classes, v2 = out
    assert v2 == frozenset()
    assert sorted(len(c) for c in classes.values()) == [1] * 8

    # blow one corner up into a 2-clique and add a dominating vertex
    base = list(g.edges())
    extra = [(8, v) for v in g.adj[0]] + [(8, 0)]   # 8 duplicates corner 0
    dom = [(9, v) for v in range(9)]
    g2 = Graph(10, base + extra + dom)
    out2 = lemmas.find_cube_partition(g2)
    assert out2 is not None
    classes2, v22 = out2
    assert v22 == frozenset({9})
    assert sorted(len(c) for c in classes2.values()) == [1] * 7 + [2]

    assert lemmas.find_cube_partition(generators.cycle(8)) is None


def test_class_membership_predicates():
    ok, cert = detect.in_class_Ct(generators.cycle(9), 3)
    assert ok and cert is None
    ok, cert = detect.in_class_Ct(generators.theta(2, 2, 2), 3)
    assert not ok and cert.kind == "Theta" and cert.verify(
        generators.theta(2, 2, 2))
    ok, cert = detect.in_class_Ct(generators.clique(4), 4)
    assert not ok and cert.kind == "CliqueKt"
    # K_4 contains no theta/pyramid/prism, so it is in C_5
    ok, _ = detect.in_class_Ct(generators.clique(4), 5)
    assert ok

    ok, cert = lemmas.in_class_Cstar(generators.cube())
    assert not ok and cert.kind == "Cube"
    ok, _ = lemmas.in_class_Cstar(generators.cycle(7))
    assert ok
