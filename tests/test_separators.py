"""Separator machinery: Ramsey table, minimal-separator enumeration,
potential maximal cliques, minimal triangulation, clique trees and clique
cutsets — each checked against brute force where one exists."""

import pytest

from logtw import builder, generators, separators, treedec
from logtw.builder import glue_at_clique
from logtw.graph import Graph
from logtw.treedec import TreeDecomposition

import brute
import lemmas
from conftest import random_corpus, search_corpus


def test_ramsey_table_and_fallback():
    assert separators.ramsey(3, 3) == 6
    assert separators.ramsey(3, 4) == 9
    assert separators.ramsey(4, 4) == 18
    assert separators.ramsey(5, 3) == 14
    assert separators.ramsey(5, 4) == 25
    # symmetric and monotone
    assert separators.ramsey(4, 3) == separators.ramsey(3, 4)
    assert separators.ramsey(1, 7) == 1
    assert separators.ramsey(2, 7) == 7
    # outside the table: binomial upper bound, still >= true values
    assert separators.ramsey(6, 6) >= 102


def test_minimal_separator_enumeration_matches_brute():
    for g in [*random_corpus(7, 25, p=0.35, seed_base=900),
              generators.path(6), generators.cycle(7),
              Graph(5, [(0, 1), (2, 3)]), generators.clique(4)]:
        got = set(lemmas.enumerate_minimal_separators(g))
        assert got == brute.brute_minimal_separators(g)
        for x in got:
            assert lemmas.is_minimal_separator(g, x)


def test_full_components_and_minimality():
    p5 = generators.path(5)
    assert lemmas.is_minimal_separator(p5, {2})
    assert not lemmas.is_minimal_separator(p5, {1, 2})
    fulls = lemmas.full_components(p5, {2})
    assert sorted(map(sorted, fulls)) == [[0, 1], [3, 4]]


def test_is_pmc():
    c5 = generators.cycle(5)
    # in C_5 the potential maximal cliques are the induced P_3's
    assert lemmas.is_pmc(c5, {0, 1, 2})
    assert not lemmas.is_pmc(c5, {0, 1})      # edge: a minimal separator
    assert not lemmas.is_pmc(c5, {0, 1, 2, 3})
    assert lemmas.is_pmc(generators.clique(4), set(range(4)))
    p4 = generators.path(4)
    assert lemmas.is_pmc(p4, {1, 2})
    assert not lemmas.is_pmc(p4, {0, 3})


def _fill(g, madj):
    """The completion's edges that g lacks, read off madj."""
    return {(min(x, y), max(x, y)) for x in madj for y in madj[x]
            if not g.has_edge(x, y)}


def test_minimal_triangulation_is_chordal_and_minimal():
    for g in [*random_corpus(9, 15, p=0.3, seed_base=950),
              generators.cycle(8), generators.complete_bipartite(3, 3)]:
        _, madj = separators.minimal_triangulation(g, g.vertices())
        fill = _fill(g, madj)
        h = g.with_edges(fill)
        assert lemmas.is_chordal(h)
        assert not (set(fill) & set(g.edges()))
        # inclusion-minimal: dropping any single fill edge breaks chordality
        for e in fill:
            rest = [f for f in fill if f != e]
            assert not lemmas.is_chordal(g.with_edges(rest))


def test_clique_tree_is_valid_decomposition():
    for g in random_corpus(9, 10, p=0.35, seed_base=970):
        _, madj = separators.minimal_triangulation(g, g.vertices())
        h = g.with_edges(_fill(g, madj))
        t = separators.clique_tree(h)
        assert treedec.validate(h, t) is None
        assert len(set(t.bags)) == len(t.bags)
        for bag in t.bags:
            assert h.is_clique(bag)
            # maximal: no outside vertex sees the whole bag
            assert not any(bag <= h.adj[v] for v in h.vertices()
                           if v not in bag)


def _brute_has_clique_cutset(g):
    from itertools import combinations
    verts = list(g.vertices())
    for r in range(g.n):
        for s in combinations(verts, r):
            if g.is_clique(s) and len(g.components(removed=s)) >= 2:
                return True
    return False


def test_find_clique_cutset_matches_brute():
    # soundness + completeness (a cutset is found iff one exists) on small
    # random graphs and on shapes with known answers
    named = [(generators.cycle(6), False),
             (generators.path(5), True),
             (generators.clique(5), False),
             (Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
              True)]
    for g, expect in named:
        out = separators.find_clique_cutset(g)
        assert (out is not None) == expect
    for g in random_corpus(8, 40, p=0.3, seed_base=990):
        if not g.is_connected():
            continue
        out = separators.find_clique_cutset(g)
        assert (out is not None) == _brute_has_clique_cutset(g)
        if out is not None:
            cut, sides = out
            assert g.is_clique(cut)
            assert len(sides) >= 2
            assert len(g.components(removed=cut)) >= 2


def _brute_atoms(g):
    """Atoms of a connected graph by brute force: split at any clique
    minimal separator S into the pieces C + N(C), one per component C of
    g minus S, and recurse. The atoms do not depend on the choice of S
    (Leimer 1993)."""
    for x in brute.brute_minimal_separators(g):
        if g.is_clique(x):
            atoms = set()
            for c in g.components(removed=x):
                sub, ids = g.induced(c | g.open_neighborhood(c))
                atoms |= {frozenset(ids[v] for v in a)
                          for a in _brute_atoms(sub)}
            return atoms
    return {frozenset(g.vertices())}


def test_clique_cutset_atoms():
    for g in [*random_corpus(9, 20, p=0.25, seed_base=1010),
              *random_corpus(10, 30, p=0.3, seed_base=1050)]:
        if not g.is_connected():
            continue
        atoms, glue = separators.clique_cutset_atoms(g, g.vertices())
        assert len(set(atoms)) == len(atoms)
        assert set(atoms) == _brute_atoms(g)
        assert not any(a < b for a in atoms for b in atoms)
        covered = set()
        for a in atoms:
            covered |= set(a)
        assert covered == set(g.vertices())
        # every original edge lives inside some atom
        for u, v in g.edges():
            assert any(u in a and v in a for a in atoms)
        for i, j, clique in glue:
            assert g.is_clique(clique)
        # gluing any decompositions of the atoms gives one of g
        decomps = []
        for a in atoms:
            sub, ids = g.induced(a)
            td = treedec.greedy_fill_decomposition(sub)
            decomps.append(TreeDecomposition(
                [frozenset(ids[v] for v in b) for b in td.bags], td.edges))
        assert treedec.validate(g, glue_at_clique(decomps, glue)) is None


def _mcs(g):
    return separators._max_cardinality_search(
        g, g.vertices(),
        lambda v, weight, remaining, top: g.adj[v] & remaining)


def test_searches_match_their_references():
    # MCS and MCS-M give the first-written orders, and the madj they
    # record is madj recomputed over the graph they complete, on whole
    # graphs and on each component searched in the graph's own ids
    for g in search_corpus():
        order, madj = separators.minimal_triangulation(g, g.vertices())
        fill, want = lemmas.reference_minimal_triangulation(g)
        h = g.with_edges(tuple(sorted(e)) for e in fill)
        assert order == want
        assert madj == lemmas.reference_madj(h.adj, order)
        assert _fill(g, madj) == {tuple(sorted(e)) for e in fill}
        for x in (g, h):
            order, madj = _mcs(x)
            assert madj == lemmas.reference_madj(x.adj, order)
            peo = lemmas.reference_perfect_elimination_order(x)
            got = separators.perfect_elimination_order(x)
            assert got == (None if peo is None else (peo, madj))
            if peo is not None:
                assert order == peo
        for c in g.components():
            sub, ids = g.induced(c)
            order, madj = separators.minimal_triangulation(g, c)
            _, want = lemmas.reference_minimal_triangulation(sub)
            assert order == [ids[x] for x in want]
            assert set(madj) == c


def test_split_and_glue_match_their_references():
    # the in-place split, its component search per generator and the
    # indexed glue give exactly what the first-written versions, kept in
    # lemmas, give; disconnected graphs included
    for g in search_corpus():
        pieces = builder.split(g)
        assert pieces == lemmas.reference_split(g)
        for atoms, glue in pieces:
            decomps = []
            for a in atoms:
                sub, ids = g.induced(a)
                td = treedec.greedy_fill_decomposition(sub)
                decomps.append(TreeDecomposition(
                    [frozenset(ids[v] for v in b) for b in td.bags],
                    td.edges))
            glued = glue_at_clique(decomps, glue)
            want = lemmas.reference_glue_at_clique(decomps, glue)
            assert (glued.bags, glued.edges) == (want.bags, want.edges)


def test_split_cuts_in_place(monkeypatch):
    # the split neither induces a component nor builds a completed graph
    def never(*args, **kwargs):
        raise AssertionError("the split built a graph")
    want = [builder.split(g) for g in search_corpus()]
    monkeypatch.setattr(Graph, "induced", never)
    monkeypatch.setattr(Graph, "with_edges", never)
    assert [builder.split(g) for g in search_corpus()] == want


def test_make_structured_preserves_width_and_gives_pmcs():
    for g in random_corpus(8, 15, p=0.35, seed_base=1030):
        w, t = treedec.exact_treewidth(g)
        s = separators.make_structured(g, t)
        assert treedec.validate(g, s) is None
        assert s.width <= t.width == w
        for bag in s.bags:
            assert lemmas.is_pmc(g, bag)


def test_make_structured_fill_is_minimal():
    # the completion is g plus every pair sharing a bag; dropping any
    # single one of its fill edges breaks chordality
    for g in [*random_corpus(12, 10, p=0.3, seed_base=1040),
              generators.wall(3), generators.cycle(9)]:
        s = separators.make_structured(g, treedec.greedy_fill_decomposition(g))
        fill = {(u, v) for bag in s.bags for u in bag for v in bag
                if u < v and not g.has_edge(u, v)}
        assert lemmas.is_chordal(g.with_edges(fill))
        for e in fill:
            assert not lemmas.is_chordal(g.with_edges(fill - {e}))


def test_perfect_elimination_order():
    assert separators.perfect_elimination_order(generators.cycle(5)) is None
    tree = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    order, madj = separators.perfect_elimination_order(tree)
    assert sorted(order) == list(range(5))
    assert sum(map(len, madj.values())) == tree.m
    assert lemmas.is_chordal(generators.clique(6))
    assert not lemmas.is_chordal(generators.cycle(4))
