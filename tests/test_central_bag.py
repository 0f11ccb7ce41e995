"""Star separations around unbalanced vertices, the A-side order and core,
the central bag, and the two tree-extension constructions."""

import pytest

from logtw import central_bag, generators, treedec
from logtw.graph import Graph
from logtw.treedec import TreeDecomposition

import lemmas


def test_star_separation_on_path():
    p = generators.path(12)
    s = central_bag.star_separation(p, 1)
    assert s.b == frozenset(range(3, 12))
    assert s.c == frozenset({1, 2})
    assert s.a == frozenset({0})
    # the three sides partition V
    assert s.a | s.b | s.c == frozenset(range(12))
    assert not (s.a & s.b) and not (s.a & s.c) and not (s.b & s.c)
    # no edges between A and B
    assert all(not p.has_edge(u, v) for u in s.a for v in s.b)
    # a balanced vertex has no star separation
    with pytest.raises(ValueError):
        central_bag.star_separation(p, 5)


def test_local_closure():
    p = generators.path(12)
    comp = {0}
    assert lemmas.local_closure(p, 1, comp) == frozenset({0, 1})


def test_star_twins():
    # two pendant vertices hanging off the same attachment point of a
    # long path are star twins
    edges = [(i, i + 1) for i in range(9)] + [(10, 0), (11, 0)]
    g = Graph(12, edges)
    stars = {v: central_bag.star_separation(g, v) for v in (1, 10, 11)}
    assert central_bag.are_star_twins(10, 11, stars)
    assert not central_bag.are_star_twins(10, 1, stars)


def test_leq_a_and_core_on_path():
    p = generators.path(12)
    s = [1, 3]
    stars = {v: central_bag.star_separation(p, v) for v in s}
    assert central_bag.leq_A(3, 1, stars)      # A(3) contains 1
    assert not central_bag.leq_A(1, 3, stars)
    assert central_bag.leq_A(1, 1, stars)      # reflexive
    assert central_bag.core(s, stars) == frozenset({3})


def test_central_bag_values():
    p = generators.path(12)
    beta, core_set, stars = central_bag.central_bag(p, [1, 3])
    assert core_set == frozenset({3})
    assert beta == frozenset(range(3, 12))        # B(3) | C(3)
    assert set(stars) == {1, 3}
    # empty set: the central bag is everything
    beta0, core0, _ = central_bag.central_bag(p, [])
    assert beta0 == frozenset(range(12)) and core0 == frozenset()


def test_extend_tree_produces_valid_decomposition():
    p = generators.path(12)
    s = [1, 3]
    central = central_bag.central_bag(p, s)
    # decomposition of p[beta] (a path on 3..11) in its own ids 0..8,
    # which beta_ids maps to 3..11
    _, beta_ids = p.induced(central[0])
    assert beta_ids == list(range(3, 12))
    t_beta = TreeDecomposition([{i, i + 1} for i in range(8)],
                               [(k, k + 1) for k in range(7)])
    comps = p.components(removed=central[0])
    assert [sorted(c) for c in comps] == [[0, 1, 2]]
    part = TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)])
    t = central_bag.extend_tree(central, t_beta, beta_ids,
                                [(part, sorted(comps[0]))])
    assert treedec.validate(p, t) is None
    # width grows only by the absorbed C(v) sets
    assert t.width <= t_beta.width + 2


def test_build_contraction_shapes():
    c9 = generators.cycle(9)
    cg = central_bag.build_contraction(c9, 0, frozenset())
    assert cg.kept == (1, 8)
    assert len(cg.parts) == 1 and sorted(cg.parts[0]) == [2, 3, 4, 5, 6, 7]
    assert list(range(len(cg.kept), cg.h.n)) == [2]
    assert sorted(cg.parts[2 - len(cg.kept)]) == [2, 3, 4, 5, 6, 7]
    # h is the path 1 - D - 8 (in h ids: 0 - 2 - 1)
    assert cg.h.n == 3 and set(cg.h.edges()) == {(0, 2), (1, 2)}
    # hub neighbors recorded separately
    cg2 = central_bag.build_contraction(c9, 0, frozenset({1}))
    assert cg2.kept == (8,) and cg2.hub_nbrs == frozenset({1})


def test_extend_neighborhood_produces_valid_decomposition():
    c9 = generators.cycle(9)
    cg = central_bag.build_contraction(c9, 0, frozenset())
    _, t0 = treedec.exact_treewidth(cg.h)
    # decomposition of the contracted component (the path 2..7) in its
    # own ids 0..5
    part = TreeDecomposition([{i, i + 1} for i in range(5)],
                             [(k, k + 1) for k in range(4)])
    t = central_bag.extend_neighborhood(c9, cg, t0,
                                        [(part, sorted(cg.parts[0]))])
    assert treedec.validate(c9, t) is None


def test_extend_neighborhood_with_hub_neighbors():
    # wheel: C_7 plus hub 7 seeing 0, 2, 4; contract around v = 0 with
    # hub set {7}
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(7, 0), (7, 2), (7, 4)]
    g = Graph(8, edges)
    cg = central_bag.build_contraction(g, 0, frozenset({7}))
    assert cg.hub_nbrs == frozenset({7})
    _, t0 = treedec.exact_treewidth(cg.h)
    parts = []
    for d in cg.parts:
        sub, ids = g.induced(d)
        parts.append((treedec.exact_treewidth(sub)[1], ids))
    t = central_bag.extend_neighborhood(g, cg, t0, parts)
    assert treedec.validate(g, t) is None
