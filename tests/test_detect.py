"""Detector tests: named families, brute-force cross-checks on small random
graphs, pinned theta/pyramid/prism certificates, verify() on corrupted
certificates, wheels and sectors, connected-connector classification, cube
partitions and the class membership predicates."""

import hashlib
import random
from collections import Counter
from itertools import product

import pytest

from logtw import builder, detect, generators
from logtw.graph import (BuildCheckFailed, Graph, SizeCapExceeded,
                         enumerate_holes)

import brute
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
            cert = finder(g)
            assert (cert is not None) == brute.brute_contains_induced(g, kind)
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
        cert = FINDERS[kind](g)
        assert cert is not None and cert.verify(g)


def test_three_path_certificates_are_pinned():
    # sha256 over the theta, pyramid and prism certificates (kind and
    # roles) on a fixed corpus, recorded from a known-good search: a change
    # to which configuration is found first, or to its roles, shows here
    corpus = [generators.random_graph(n, p, seed=100 * n + s)
              for n in range(5, 13) for p in (0.2, 0.3, 0.4, 0.5)
              for s in range(10)]
    corpus += [generators.theta(*ls) for ls in product((2, 3, 4), repeat=3)]
    corpus += [generators.pyramid(*ls) for ls in product((1, 2, 3), repeat=3)
               if ls.count(1) <= 1]
    corpus += [generators.prism(*ls) for ls in product((1, 2, 3), repeat=3)]
    corpus += [generators.wall(k) for k in (3, 4, 5)]
    out = []
    for g in corpus:
        for finder in (detect.find_theta, detect.find_pyramid,
                       detect.find_prism):
            cert = finder(g)
            out.append(None if cert is None
                       else (cert.kind, sorted(cert.roles.items())))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "c7bf269246c05a0f5be26016f6765efcb7807ad9d43f2a24e8f65b97d14f6bc6")


def _with_edge(g, u, v):
    return Graph(g.n, list(g.edges()) + [(u, v)])


def _without_edge(g, u, v):
    return Graph(g.n, [e for e in g.edges() if set(e) != {u, v}])


def _interior_chord(g, roles):
    first, second = [p[1:-1] for p in roles["paths"] if len(p) > 2][:2]
    return _with_edge(g, first[0], second[0]), roles


def _two_short_legs(g, roles):
    # a second leg of length 1: the apex also sees a long leg's corner
    paths = [list(p) for p in roles["paths"]]
    i = next(i for i, p in enumerate(paths) if len(p) > 2)
    apex, corner = roles["apex"], roles["base"][i]
    paths[i] = [apex, corner]
    return _with_edge(g, apex, corner), {**roles, "paths": paths}


def _third_leg_revisits_a(g, roles):
    # a leg's end met again inside the leg: only a check that drops the
    # ends by position, not by value, sees the repeat
    paths = [list(p) for p in roles["paths"]]
    paths[2] = paths[2][:2] + [roles["a"]] + paths[2][2:]
    return g, {**roles, "paths": paths}


_ALL = ("Theta", "Pyramid", "Prism")
_CORRUPTIONS = [
    ("two paths", _ALL,
     lambda g, r: (g, {**r, "paths": r["paths"][:2]})),
    ("a path reversed", _ALL,
     lambda g, r: (g, {**r, "paths": [r["paths"][0][::-1]] + r["paths"][1:]})),
    ("an empty path", _ALL,
     lambda g, r: (g, {**r, "paths": [[]] + r["paths"][1:]})),
    ("a path repeated", _ALL,
     lambda g, r: (g, {**r, "paths": [r["paths"][1]] + r["paths"][1:]})),
    ("a chord between interiors", _ALL, _interior_chord),
    ("an edge a-b", ("Theta",),
     lambda g, r: (_with_edge(g, r["a"], r["b"]), r)),
    ("the third leg revisiting a", ("Theta",), _third_leg_revisits_a),
    ("the apex inside the base", ("Pyramid",),
     lambda g, r: (g, {**r, "base": [r["apex"]] + r["base"][1:]})),
    ("a base edge removed", ("Pyramid",),
     lambda g, r: (_without_edge(g, *r["base"][:2]), r)),
    ("two legs of length 1", ("Pyramid",), _two_short_legs),
    ("a base edge removed", ("Prism",),
     lambda g, r: (_without_edge(g, *r["triangle_a"][:2]), r)),
    ("a triangle-to-triangle cross edge", ("Prism",),
     lambda g, r: (_with_edge(g, r["triangle_a"][0], r["triangle_b"][1]), r)),
    ("a short triangle", ("Prism",),
     lambda g, r: (g, {**r, "triangle_b": r["triangle_b"][:2]})),
]


def test_verify_rejects_corrupted_certificates():
    # verify() answers False, and never raises, on any certificate that is
    # not a theta, pyramid or prism of g
    found = {}
    for g, finder in ((generators.theta(2, 3, 4), detect.find_theta),
                      (generators.pyramid(1, 2, 2), detect.find_pyramid),
                      (generators.prism(1, 2, 3), detect.find_prism)):
        cert = finder(g)
        assert cert.verify(g)
        found[cert.kind] = g, cert
    for what, kinds, corrupt in _CORRUPTIONS:
        for kind in kinds:
            g, cert = found[kind]
            bad_g, bad_roles = corrupt(g, dict(cert.roles))
            assert not detect.Certificate(kind, bad_roles).verify(bad_g), (
                kind, what)


def test_prism_verifier_rejects_one_vertex_leg():
    # a pinched prism has no two disjoint triangles, so no prism; with the
    # centre 6 as a one-vertex leg, triangles 6-1-0 and 6-3-4 share it
    # while every pair of legs still closes into a hole
    g = generators.pinched_prism(2, 2)
    roles = {"triangle_a": [6, 1, 0], "triangle_b": [6, 3, 4],
             "paths": [[6], [1, 2, 3], [0, 5, 4]]}
    assert detect.find_prism(g) is None
    assert not detect.Certificate("Prism", roles).verify(g)
    assert not lemmas.reference_verify_prism(g, roles)
    # the same roles are the pinched prism's own
    assert detect.Certificate("PinchedPrism", roles).verify(g)
    assert lemmas.reference_verify_pinched_prism_legs(g, roles)


def _mutate(rng, g, roles):
    """g and roles after one random edit: an edge added or removed among
    the certificate's vertices, a leg vertex replaced, inserted or
    deleted, a leg reversed, the legs shuffled, a leg duplicated or
    dropped, or an end role replaced."""
    paths = [list(p) for p in roles["paths"]]
    cert = sorted({x for p in paths for x in p})
    vertex = rng.choice(cert) if cert and rng.random() < 0.5 \
        else rng.randrange(g.n)
    edit = rng.choice(("add edge", "remove edge", "replace", "insert",
                       "delete", "reverse", "shuffle", "duplicate", "drop",
                       "role"))
    if edit == "add edge" and len(cert) > 1:
        u, v = rng.sample(cert, 2)
        if not g.has_edge(u, v):
            g = Graph(g.n, list(g.edges()) + [(u, v)])
    elif edit == "remove edge":
        inside = [e for e in g.edges() if set(e) <= set(cert)]
        if inside:
            gone = rng.choice(inside)
            g = Graph(g.n, [e for e in g.edges() if e != gone])
    elif edit == "shuffle":
        rng.shuffle(paths)
    elif edit == "duplicate" and paths:
        paths[rng.randrange(len(paths))] = list(rng.choice(paths))
    elif edit == "drop" and paths:
        del paths[rng.randrange(len(paths))]
    elif edit == "role":
        key = rng.choice(sorted(k for k in roles if k != "paths"))
        if isinstance(roles[key], list):
            role = list(roles[key])
            role[rng.randrange(len(role))] = vertex
            roles = {**roles, key: role}
        else:
            roles = {**roles, key: vertex}
    elif edit in ("replace", "insert", "delete", "reverse") and paths:
        p = rng.choice(paths)
        j = rng.randrange(len(p) + 1)
        if edit == "insert":
            p.insert(j, vertex)
        elif edit == "reverse":
            p.reverse()
        elif p:
            if edit == "replace":
                p[j % len(p)] = vertex
            else:
                del p[j % len(p)]
    return g, {**roles, "paths": paths}


def test_verifiers_match_reference_on_mutations():
    # verify() gives the answer of the property-by-property reference on
    # finder certificates under 1-3 random edits
    rng = random.Random(12)
    corpus = [generators.random_graph(n, p, seed=1200 + 10 * n + s)
              for n in range(6, 11) for p in (0.3, 0.4) for s in range(6)]
    named = [generators.theta(2, 2, 2), generators.theta(2, 3, 4),
             generators.pyramid(1, 2, 3), generators.pyramid(2, 2, 2),
             generators.prism(1, 1, 1), generators.prism(1, 1, 3),
             generators.prism(1, 2, 3), generators.prism(2, 2, 2)]
    corpus += named + [relabelled(g, seed=k) for k, g in enumerate(named)]
    certs = [(g, cert) for g in corpus
             for finder in (detect.find_theta, detect.find_pyramid,
                            detect.find_prism)
             for cert in [finder(g)] if cert is not None]
    assert {cert.kind for _, cert in certs} == {"Theta", "Pyramid", "Prism"}
    verdicts = Counter()
    for _ in range(5000):
        g, cert = rng.choice(certs)
        roles = cert.roles
        for _ in range(rng.randint(1, 3)):
            g, roles = _mutate(rng, g, roles)
        ok = detect.Certificate(cert.kind, roles).verify(g)
        assert ok == lemmas.REFERENCE_VERIFIERS[cert.kind](g, roles), (
            cert.kind, roles, sorted(g.edges()))
        verdicts[cert.kind, ok] += 1
    assert len(verdicts) == 6 and min(verdicts.values()) >= 25


def test_pinched_prism_verifier_matches_reference_on_mutations():
    # a pinched prism and a prism share their role keys, so finder
    # certificates of both, under 0-3 random edits, are checked as both
    # kinds against the centre-and-hole reference and the prism's
    rng = random.Random(15)
    corpus = [generators.random_graph(n, p, seed=1500 + 10 * n + s)
              for n in range(7, 12) for p in (0.4, 0.5) for s in range(6)]
    named = [generators.pinched_prism(a, b) for a, b in ((2, 2), (2, 3),
                                                          (3, 4))]
    named += [generators.prism(1, 1, 1), generators.prism(1, 2, 3)]
    corpus += named + [relabelled(g, seed=k) for k, g in enumerate(named)]
    certs = [(g, cert) for g in corpus
             for finder in (detect.find_prism, detect.find_pinched_prism)
             for cert in [finder(g)] if cert is not None]
    assert {cert.kind for _, cert in certs} == {"Prism", "PinchedPrism"}
    verdicts = Counter()
    for _ in range(5000):
        g, cert = rng.choice(certs)
        roles = cert.roles
        for _ in range(rng.randint(0, 3)):
            g, roles = _mutate(rng, g, roles)
        for kind in ("Prism", "PinchedPrism"):
            ok = detect.Certificate(kind, roles).verify(g)
            assert ok == lemmas.REFERENCE_VERIFIERS[kind](g, roles), (
                kind, roles, sorted(g.edges()))
            verdicts[cert.kind, kind, ok] += 1
    assert verdicts["PinchedPrism", "PinchedPrism", True] >= 100
    assert verdicts["Prism", "Prism", True] >= 100
    assert verdicts["PinchedPrism", "PinchedPrism", False] >= 100


def test_finders_negative_on_plain_graphs():
    for g in (generators.cycle(9), generators.path(8), generators.clique(6)):
        for finder in FINDERS.values():
            assert finder(g) is None


def test_clique_detection():
    k6, c5 = generators.clique(6), generators.cycle(5)
    cert = detect.has_clique(k6, 6)
    assert cert is not None and len(cert.roles["vertices"]) == 6
    assert cert.verify(k6) and detect.has_clique(k6, 7) is None
    assert detect.has_clique(c5, 2).verify(c5)
    assert detect.has_clique(c5, 3) is None
    assert detect.has_clique(generators.clique(5), 5).verify(generators.clique(5))
    assert detect.has_clique(generators.cycle(6), 3) is None
    cert = detect.has_clique(generators.complete_bipartite(3, 3), 2)
    assert cert is not None and cert.verify(generators.complete_bipartite(3, 3))
    for t in (0, -1):
        with pytest.raises(ValueError, match="t must be >= 1"):
            detect.has_clique(c5, t)


def test_has_clique_matches_maximum_clique_reference():
    # a K_t is found exactly when the maximum clique has >= t vertices, and
    # the certificate is t vertices of a clique
    corpus = [generators.random_graph(n, p, seed=1600 + 10 * n + s)
              for n in range(1, 21) for p in (0.1, 0.3, 0.5, 0.7, 0.9)
              for s in range(3)]
    found = Counter()
    for g in corpus:
        omega = lemmas.reference_clique_number(g)[0]
        for t in range(1, 9):
            cert = detect.has_clique(g, t)
            assert (cert is None) == (omega < t), (t, sorted(g.edges()))
            if cert is not None:
                verts = cert.roles["vertices"]
                assert len(set(verts)) == len(verts) == t
                assert g.is_clique(verts) and cert.verify(g)
            found[cert is None] += 1
    assert min(found.values()) >= 500


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
    assert sorted(detect.hubs(g, g.n)) == [7]
    assert lemmas.optimal_wheel(g, 7) is not None
    assert lemmas.optimal_wheel(g, 0) is None


def test_wheel_rejects_short_or_fanned_holes():
    # hub adjacent to 3 consecutive hole vertices: only one long sector
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(6, 0), (6, 1), (6, 2)]
    g = Graph(7, edges)
    assert list(lemmas.wheels_at(g, 6)) == []
    assert detect.hubs(g, g.n) == frozenset()


def test_hubs_match_wheel_definition_under_budget(monkeypatch):
    graphs = list(random_corpus(12, 12, p=0.3, seed_base=700))
    graphs += [relabelled(generators.wall(k), seed=k) for k in (3, 4)]
    # a 6-hole plus 6, seeing hole positions 0, 1, 2 (three of the hole
    # but one long sector: no hub), and 7, seeing 0, 1, 3 (a hub)
    sectors = Graph(8, [(i, (i + 1) % 6) for i in range(6)] +
                    [(6, 0), (6, 1), (6, 2), (7, 0), (7, 1), (7, 3)])
    assert detect.hubs(sectors, sectors.n) == {7}
    graphs.append(sectors)
    assert max(len(list(enumerate_holes(g, min_len=5)))
               for g in graphs) > 50
    for g in graphs:
        holes = [hole for hole, _, _ in enumerate_holes(g, min_len=5)]
        expected = {v for v in g.vertices() if any(
            lemmas.is_valid_wheel(g, lemmas.Wheel(h, v)) for h in holes)}
        # the search counts holes against its own HUB_BUDGET, so the
        # smaller budgets are set there
        for budget in (detect.HUB_BUDGET, 1, 7, 50):
            with monkeypatch.context() as m:
                m.setattr(detect, "HUB_BUDGET", budget)
                if len(holes) > budget:
                    with pytest.raises(SizeCapExceeded,
                                       match=rf"budget of {budget} holes"):
                        detect.hubs(g, g.n)
                else:
                    assert detect.hubs(g, g.n) == expected
    # the search checks the hole cap it is given before any walk
    with pytest.raises(SizeCapExceeded,
                       match="hole enumeration capped at n <= 64, got 70"):
        detect.hubs(Graph(70), 64)
    # the budget of 5000 holes binds on relabelled copies of wall(6)
    for seed in (6, 7):
        g = relabelled(generators.wall(6), seed=seed)
        with pytest.raises(SizeCapExceeded,
                           match="hub search budget of 5000 holes exhausted"):
            detect.hubs(g, g.n)


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
    cap = builder.Caps().detect
    ok, cert = detect.in_class_Ct(generators.cycle(9), 3, cap)
    assert ok and cert is None
    ok, cert = detect.in_class_Ct(generators.theta(2, 2, 2), 3, cap)
    assert not ok and cert.kind == "Theta" and cert.verify(
        generators.theta(2, 2, 2))
    ok, cert = detect.in_class_Ct(generators.clique(4), 4, cap)
    assert not ok and cert.kind == "CliqueKt"
    # K_4 contains no theta/pyramid/prism, so it is in C_5
    ok, _ = detect.in_class_Ct(generators.clique(4), 5, cap)
    assert ok

    ok, cert = lemmas.in_class_Cstar(generators.cube())
    assert not ok and cert.kind == "Cube"
    ok, _ = lemmas.in_class_Cstar(generators.cycle(7))
    assert ok


def _part(rng):
    """One random summand: a forbidden structure, a clique, a hole, a wall
    or a small random graph; holes and sparse random graphs, often class
    members, come up most."""
    kind = rng.choice(("theta", "pyramid", "prism", "pinched_prism",
                       "clique", "wall") + ("cycle", "random") * 3)
    if kind == "theta":
        return generators.theta(*(rng.randint(2, 3) for _ in range(3)))
    if kind == "pyramid":
        return generators.pyramid(1, rng.randint(2, 3), rng.randint(2, 3))
    if kind == "prism":
        return generators.prism(*(rng.randint(1, 2) for _ in range(3)))
    if kind == "pinched_prism":
        return generators.pinched_prism(2, rng.randint(2, 3))
    if kind == "clique":
        return generators.clique(rng.randint(3, 4))
    if kind == "wall":
        return generators.wall(3)
    if kind == "cycle":
        return generators.cycle(7)
    return generators.random_graph(rng.randint(4, 7), 0.3,
                                   seed=rng.randrange(10 ** 6))


def _clique_sum(rng):
    """2-4 random parts, each glued to what came before at one shared
    vertex or, when both sides have one, one shared edge; then relabelled
    at random."""
    parts = [_part(rng) for _ in range(rng.randint(2, 4))]
    n = parts[0].n
    edges = set(parts[0].edges())
    for h in parts[1:]:
        h_edges = sorted(h.edges())
        if edges and h_edges and rng.random() < 0.5:
            (a, b), (c, d) = rng.choice(sorted(edges)), rng.choice(h_edges)
            to = {c: a, d: b}
        else:
            to = {rng.randrange(h.n): rng.randrange(n)}
        for x in h.vertices():
            if x not in to:
                to[x] = n
                n += 1
        edges |= {tuple(sorted((to[u], to[v]))) for u, v in h.edges()}
    return relabelled(Graph(n, sorted(edges)), rng.randrange(10 ** 6))


def test_in_class_by_atoms_matches_whole_graph():
    # the verdict and the kind found first are the same whether g is
    # searched whole or atom by atom, and the atom certificate holds in g
    rng = random.Random(9)
    verdicts = set()
    for _ in range(520):
        g = _clique_sum(rng)
        for t in (3, 4):
            ok, cert = detect.in_class_Ct(g, t, caps=g.n)
            atoms = builder.class_atoms(g, builder.split(g), t)
            ok_a, cert_a = detect.in_class_Ct(g, t, caps=g.n, atoms=atoms)
            assert ok_a == ok
            verdicts.add(ok)
            if not ok:
                assert cert_a.kind == cert.kind
                assert cert_a.verify(g)
    assert verdicts == {True, False}


def test_in_class_by_atoms_keeps_the_cap_order():
    # the clique search runs before the size cap, which limits g itself
    k40, c40 = generators.clique(40), generators.cycle(40)
    cap = builder.Caps().detect
    for atoms_of in (lambda g: None,
                     lambda g: builder.class_atoms(g, builder.split(g), 3)):
        ok, cert = detect.in_class_Ct(k40, 3, cap, atoms=atoms_of(k40))
        assert not ok and cert.kind == "CliqueKt"
        with pytest.raises(SizeCapExceeded,
                           match="detector capped at n <= 30, got n = 40"):
            detect.in_class_Ct(c40, 3, cap, atoms=atoms_of(c40))


def _pinched_prism_corpus():
    """G(n, p) up to dense p, pinched prisms, walls and random clique
    sums, relabelled where named."""
    rng = random.Random(16)
    corpus = [generators.random_graph(n, p, seed=1700 + 10 * n + s)
              for n in range(5, 15) for p in (0.2, 0.4, 0.6, 0.8)
              for s in range(8)]
    named = [generators.pinched_prism(a, b) for a in (2, 3) for b in (2, 4)]
    corpus += named + [relabelled(g, seed=k) for k, g in enumerate(named)]
    corpus += [generators.wall(k) for k in (3, 4, 5)]
    return corpus + [_clique_sum(rng) for _ in range(80)]


def test_pinched_prism_finder_matches_hole_reference():
    # the three-path search finds a pinched prism exactly when the search
    # over every hole of length >= 6 does, and its certificate holds
    found = Counter()
    for g in _pinched_prism_corpus():
        cert = detect.find_pinched_prism(g)
        assert (cert is None) == \
            (lemmas.reference_find_pinched_prism(g) is None), sorted(g.edges())
        if cert is not None:
            assert cert.verify(g)
            assert lemmas.reference_verify_pinched_prism_legs(g, cert.roles)
        found[cert is None] += 1
    assert min(found.values()) >= 40


def test_in_class_enumerates_no_hole(monkeypatch):
    # class membership gives the reference verdict and first kind, whole
    # or atom by atom, without enumerating a single hole
    def expected(g, t):
        if lemmas.reference_clique_number(g)[0] >= t:
            return False, "CliqueKt"
        for finder in (detect.find_theta, detect.find_pyramid,
                       detect.find_prism, lemmas.reference_find_pinched_prism):
            cert = finder(g)
            if cert is not None:
                return False, cert.kind
        return True, None

    cases = [(g, t, expected(g, t)) for g in _pinched_prism_corpus()
             for t in (3, 4)]

    def no_holes(*args, **kwargs):
        raise AssertionError("a hole was enumerated")

    monkeypatch.setattr(detect, "enumerate_holes", no_holes)
    verdicts = Counter()
    for g, t, want in cases:
        for atoms in (None, builder.class_atoms(g, builder.split(g), t)):
            ok, cert = detect.in_class_Ct(g, t, caps=g.n, atoms=atoms)
            assert (ok, None if ok else cert.kind) == want
        verdicts[want] += 1
    assert verdicts[False, "PinchedPrism"] > 0 and verdicts[True, None] > 0


def test_in_class_checks_every_certificate_it_reports(monkeypatch):
    # a finder's answer that fails the definition is an internal fault,
    # whether g is searched whole or atom by atom, and the sampler, which
    # only reads the verdict, meets it too
    bogus = detect.Certificate("Theta", {"a": 0, "b": 1,
                                         "paths": [[0, 1]] * 3})
    monkeypatch.setattr(detect, "find_theta", lambda g: bogus)
    g = generators.cycle(8)
    for atoms in (None, builder.class_atoms(g, builder.split(g), 3)):
        with pytest.raises(BuildCheckFailed,
                           match="Theta certificate fails its check"):
            detect.in_class_Ct(g, 3, caps=g.n, atoms=atoms)
    with pytest.raises(BuildCheckFailed,
                       match="Theta certificate fails its check"):
        generators.random_in_class(8, 0.4, 3, seed=1)
