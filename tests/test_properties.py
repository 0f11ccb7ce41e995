"""Structural guarantees the builder's width accounting relies on, checked
exhaustively (zero tolerance) on small graphs.

Unless stated otherwise, "class member" means a (theta, pyramid,
generalized-prism, K_t)-free graph; "restricted member" additionally
excludes cubes but allows any clique size.
"""

from itertools import combinations

from logtw import central_bag, detect, generators, hub_partition, separators
from logtw.builder import Caps, decompose
from logtw.graph import Graph
from logtw.separators import ramsey
from logtw.treedec import validate

import lemmas
from conftest import (class_members, hub_layer_cases, random_corpus,
                      wheel_bearing_cstar_graphs)


def _hub_set(g):
    return detect.hubs(g, hole_cap=g.n)


def _no_stable_subset(g, vertices, size):
    return not any(g.is_stable(c) for c in combinations(sorted(vertices),
                                                        size))


def _members():
    out = [(3, g) for g in class_members(3, 12, 12, seed_base=3000)]
    out += [(3, g) for g in class_members(3, 14, 8, seed_base=3100)]
    out += [(4, g) for g in class_members(4, 12, 8, seed_base=3200)]
    return out


def test_minimal_separators_have_small_non_hub_part():
    for t, g in _members():
        hub = _hub_set(g)
        for x in lemmas.enumerate_minimal_separators(g):
            rest = x - hub
            assert _no_stable_subset(g, rest, 3)
            assert len(rest) <= ramsey(t, 3)


def test_component_attachments_are_small():
    for t, g in _members():
        hub = _hub_set(g)
        for v in g.vertices():
            for d in g.components(removed=g.closed_neighborhood({v})):
                nd = g.open_neighborhood(d)
                assert _no_stable_subset(g, nd - hub, 3)
                assert len(nd - hub) <= ramsey(t, 3)
                assert len(nd) < ramsey(t, 3) + len(g.adj[v] & hub)


def test_pmcs_have_small_non_hub_part():
    for t, g in [(3, h) for h in class_members(3, 11, 8, seed_base=3300)] + \
            [(4, h) for h in class_members(4, 11, 6, seed_base=3400)]:
        hub = _hub_set(g)
        verts = sorted(g.vertices())
        for r in range(1, g.n + 1):
            for omega in combinations(verts, r):
                if not lemmas.is_pmc(g, omega):
                    continue
                rest = set(omega) - hub
                assert _no_stable_subset(g, rest, 4)
                assert len(rest) <= ramsey(t, 4)


def _cube_bearing_theta_pyramid_free():
    q = generators.cube()
    base = list(q.edges())
    graphs = [q]
    # cube plus a vertex complete to everything
    graphs.append(Graph(9, base + [(8, v) for v in range(8)]))
    # corner 0 blown up into a 2-clique
    graphs.append(Graph(9, base + [(8, v) for v in q.adj[0]] + [(8, 0)]))
    # cube plus a pendant (forces a clique cutset)
    graphs.append(Graph(9, base + [(8, 0)]))
    # two cubes sharing nothing, joined by an edge
    shift = [(u + 8, v + 8) for u, v in base]
    graphs.append(Graph(16, base + shift + [(0, 8)]))
    for g in graphs:
        assert detect.find_theta(g) is None
        assert detect.find_pyramid(g) is None
        assert detect.find_cube(g) is not None
    return graphs


def test_cube_forces_clique_cutset_or_cube_partition():
    for g in _cube_bearing_theta_pyramid_free():
        has_cut = separators.find_clique_cutset(g) is not None
        has_partition = lemmas.find_cube_partition(g) is not None
        assert has_cut or has_partition


def test_optimal_wheel_is_not_dominated_by_one_component():
    for g in wheel_bearing_cstar_graphs():
        for v in _hub_set(g):
            wheels = list(lemmas.wheels_at(g, v))
            best = min(len(g.adj[v] & set(w.hole)) for w in wheels)
            for w in wheels:
                if len(g.adj[v] & set(w.hole)) != best:
                    continue
                for d in g.components(removed=g.closed_neighborhood({v})):
                    covered = g.closed_neighborhood(d)
                    assert not set(w.hole) <= covered


def test_hub_loses_hub_status_in_component_closures():
    for g in wheel_bearing_cstar_graphs():
        for v in _hub_set(g):
            for d in g.components(removed=g.closed_neighborhood({v})):
                closure = lemmas.local_closure(g, v, d)
                sub, ids = g.induced(closure)
                inv = {x: i for i, x in enumerate(ids)}
                assert inv[v] not in detect.hubs(sub, hole_cap=sub.n)


def _unbalanced(g):
    return [v for v in g.vertices() if not hub_partition.is_balanced(g, v)]


def test_a_side_containment_is_nested():
    for g in random_corpus(12, 20, p=0.25, seed_base=3500):
        unb = _unbalanced(g)
        stars = {v: central_bag.star_separation(g, v) for v in unb}
        for x in unb:
            for y in stars[x].a:
                if y not in stars:
                    continue
                assert stars[y].a | {y} <= stars[x].a | {x}


def test_a_side_relation_is_a_partial_order():
    for g in random_corpus(11, 20, p=0.25, seed_base=3600):
        unb = _unbalanced(g)
        # a maximal stable subset, greedily
        s = []
        for v in unb:
            if not (g.adj[v] & set(s)):
                s.append(v)
        stars = {v: central_bag.star_separation(g, v) for v in s}
        for x in s:
            assert central_bag.leq_A(x, x, stars)
        for x, y in combinations(s, 2):
            if central_bag.leq_A(x, y, stars) and \
                    central_bag.leq_A(y, x, stars):
                assert x == y
        for x in s:
            for y in s:
                for z in s:
                    if central_bag.leq_A(x, y, stars) and \
                            central_bag.leq_A(y, z, stars):
                        assert central_bag.leq_A(x, z, stars)


def _stable_unbalanced_sets(g):
    unb = _unbalanced(g)
    out = []
    s = []
    for v in unb:
        if not (g.adj[v] & set(s)):
            s.append(v)
    if s:
        out.append(s)
    if len(unb) >= 2:  # a second, differently-seeded stable set
        s2 = []
        for v in reversed(unb):
            if not (g.adj[v] & set(s2)):
                s2.append(v)
        if sorted(s2) != sorted(s):
            out.append(sorted(s2))
    return out


def test_core_sides_are_loosely_laminar():
    for g in random_corpus(12, 20, p=0.25, seed_base=3700):
        for s in _stable_unbalanced_sets(g):
            _, core_set, stars = central_bag.central_bag(g, s)
            for u, v in combinations(sorted(core_set), 2):
                assert not (stars[u].a & stars[v].c)
                assert not (stars[u].c & stars[v].a)


def test_central_bag_guarantees():
    for t, g in _members():
        if detect.find_cube(g) is not None:
            continue
        hub = _hub_set(g)
        for s in _stable_unbalanced_sets(g):
            beta, core_set, stars = central_bag.central_bag(g, s)
            for v in core_set:
                # the separator side survives into the central bag
                assert stars[v].c <= beta
                # bounded degree inside the central bag
                assert len(g.adj[v] & beta) < ramsey(t, 3) + \
                    len(g.adj[v] & hub)
            for d in g.components(removed=beta):
                owners = [v for v in core_set if d <= stars[v].a]
                assert owners
                for v in owners:
                    assert g.open_neighborhood(d) <= stars[v].c
            # cube-free: the set sheds its hub status inside the bag
            sub, ids = g.induced(beta)
            sub_hubs = {ids[h] for h in detect.hubs(sub, hole_cap=sub.n)}
            assert not (set(s) & sub_hubs)


def test_contracted_neighborhood_stays_in_class_and_wheel_free():
    graphs = [(3, g) for g in wheel_bearing_cstar_graphs()[:8]
              if detect.in_class_Ct(g, 3, caps=g.n)[0]]
    graphs += [(t, g) for t, g in _members()[:10]]
    assert any(_hub_set(g) for _, g in graphs)
    for t, g in graphs:
        hub = _hub_set(g)
        for v in g.vertices():
            cg = central_bag.build_contraction(g, v, hub)
            h = cg.h
            assert detect.in_class_Ct(h, t, caps=h.n)[0]
            # adding v back, adjacent to its kept neighbors
            hv = Graph(h.n + 1,
                       list(h.edges()) + [(h.n, i)
                                          for i in range(len(cg.kept))])
            assert detect.in_class_Ct(hv, t, caps=hv.n)[0]
            for x in h.vertices():
                assert next(lemmas.wheels_at(h, x), None) is None


def test_hub_partition_bound_on_members():
    import math
    for t, g in _members():
        hp = hub_partition.build_hub_partition(g, _hub_set(g))
        hp.check(g)
        if hp.hub_set:
            assert hp.order <= hp.delta * (math.ceil(math.log2(g.n)) + 1)


def test_certified_builds_keep_layer_claims_live():
    # the builder checks, during every certified run, that consumed
    # layers never regain hub status in later central bags and that layer
    # vertices keep low hub-degree; the members have no hubs, so only the
    # hub-layer cases reach those checks
    graphs = _members()[:12] + [(3, g) for g, _ in hub_layer_cases()]
    for t, g in graphs:
        td, report = decompose(g, t, caps=Caps(detect=g.n, hole=g.n))
        assert report.certified
        assert validate(g, td) is None
