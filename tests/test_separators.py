"""Separator machinery: Ramsey table, minimal-separator enumeration,
potential maximal cliques, minimal triangulation, clique trees and clique
cutsets — each checked against brute force where one exists."""

import random

import pytest

from logtw import builder, generators, separators, treedec
from logtw.graph import BuildCheckFailed, Graph
from logtw.treedec import TreeDecomposition

import brute
import lemmas
from conftest import (caterpillar, class_members, glued, glued_blocks,
                      hub_layer_cases, ladder, random_corpus, random_tree,
                      relabelled, search_corpus, split_corpus)


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
        h = lemmas.with_edges(g, fill)
        assert lemmas.is_chordal(h)
        assert not (set(fill) & set(g.edges()))
        # inclusion-minimal: dropping any single fill edge breaks chordality
        for e in fill:
            rest = [f for f in fill if f != e]
            assert not lemmas.is_chordal(lemmas.with_edges(g, rest))


def _chordal_corpus():
    """Minimal chordal completions of seeded random graphs."""
    for g in random_corpus(9, 10, p=0.35, seed_base=970):
        _, madj = separators.minimal_triangulation(g, g.vertices())
        yield lemmas.with_edges(g, _fill(g, madj))


def test_clique_tree_is_valid_decomposition():
    for h in _chordal_corpus():
        t = lemmas.reference_clique_tree(h)
        assert treedec.validate(h, t) is None
        assert len(set(t.bags)) == len(t.bags)
        for bag in t.bags:
            assert h.is_clique(bag)
            # maximal: no outside vertex sees the whole bag
            assert not any(bag <= h.adj[v] for v in h.vertices()
                           if v not in bag)


def _bag_pairs(t):
    return {frozenset((t.bags[a], t.bags[b])) for a, b in t.edges}


def test_reduced_elimination_tree_is_the_clique_tree():
    # the reduced elimination tree of a maximum cardinality search order
    # is the clique tree the Blair-Peyton walk reads off the same search:
    # the same bags, and the same tree edges taken as bag pairs; the
    # elimination bags of a PEO are exactly {x} | madj(x), with no fill.
    # (Across components the walk hangs each off bag 0, where the
    # reduced tree chains them; these graphs have at most two.)
    for h in [*_chordal_corpus(), Graph(0), Graph(2, [(0, 1)]),
              generators.clique(4), generators.path(5)]:
        want = lemmas.reference_clique_tree(h)
        order, madj = separators.perfect_elimination_order(h.adj)
        for got in (treedec._elimination_tree(
                        order, [madj[x] | {x} for x in order]),
                    treedec.decomposition_from_elimination(h, order)):
            assert sorted(map(sorted, got.bags)) == \
                sorted(map(sorted, want.bags))
            assert len(set(got.bags)) == len(got.bags)
            assert _bag_pairs(got) == _bag_pairs(want)


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
        atoms, glue = separators.clique_cutset_atoms(g, 0)
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
        # each atom but the last hangs once, off a later atom holding its
        # clique, and meets every later atom only inside that clique: the
        # contract glue_at_clique links by
        assert sorted(i for i, _, _ in glue) == list(range(len(atoms) - 1))
        for i, j, clique in glue:
            assert i < j
            assert clique <= atoms[i] & atoms[j]
            for k in range(i + 1, len(atoms)):
                assert atoms[i] & atoms[k] <= clique
        # gluing any decompositions of the atoms gives one of g
        decomps = []
        for a in atoms:
            sub, ids = g.induced(a)
            td = treedec.greedy_fill_decomposition(sub)
            decomps.append(TreeDecomposition(
                [frozenset(ids[v] for v in b) for b in td.bags], td.edges))
        assert treedec.validate(g, glued(decomps, glue)) is None


def _mcs(g):
    return separators._max_cardinality_search(
        g.vertices(), lambda v, weight, remaining, top: g.adj[v] & remaining)


def test_searches_match_their_references():
    # MCS and MCS-M give the first-written orders, and the madj they
    # record is madj recomputed over the graph they complete, on whole
    # graphs and on each component searched in the graph's own ids
    for g in search_corpus():
        order, madj = separators.minimal_triangulation(g, g.vertices())
        fill, want = lemmas.reference_minimal_triangulation(g)
        h = lemmas.with_edges(g, (tuple(sorted(e)) for e in fill))
        assert order == want
        assert madj == lemmas.reference_madj(h.adj, order)
        assert _fill(g, madj) == {tuple(sorted(e)) for e in fill}
        for x in (g, h):
            order, madj = _mcs(x)
            assert madj == lemmas.reference_madj(x.adj, order)
            peo = lemmas.reference_perfect_elimination_order(x)
            got = separators.perfect_elimination_order(x.adj)
            assert got == (None if peo is None else (peo, madj))
            if peo is not None:
                assert order == peo
        for c in g.components():
            sub, ids = g.induced(c)
            order, madj = separators.minimal_triangulation(g, c)
            _, want = lemmas.reference_minimal_triangulation(sub)
            assert order == [ids[x] for x in want]
            assert set(madj) == c


def test_searches_match_their_references_on_uncertified_shapes():
    # on the shapes an uncertified build splits and eliminates, at the
    # sizes where the searches do the most work, MCS-M's level reach
    # gives the first-written order and the madj of the graph it
    # completes, and the min-fill decrements give the first-written
    # min-fill order
    graphs = [generators.wall(k) for k in (6, 7, 8)]
    graphs += [generators.random_graph(n, 2 / n, seed=10 * n + k)
               for n in (45, 50, 55, 60) for k in (0, 1)]
    graphs.append(ladder(200))
    for g in graphs:
        order, madj = separators.minimal_triangulation(g, g.vertices())
        fill, want = lemmas.reference_minimal_triangulation(g)
        assert order == want
        assert madj == lemmas.reference_madj(
            lemmas.with_edges(g, (tuple(sorted(e)) for e in fill)).adj, order)
        assert treedec.greedy_fill_decomposition(g) == \
            treedec.decomposition_from_elimination(
                g, lemmas.reference_min_fill_order(g))


def test_split_matches_its_reference_and_glue_hangs_each_atom():
    # the split gives the atoms that one MCS-M run over the whole
    # component gives in the first-written version, kept in lemmas,
    # disconnected graphs and glued blocks included, in an order of its
    # own; each glue entry (i, j, s) hangs atom i once off a later atom j,
    # along a clique s of both, and atom i meets every later atom only
    # inside s; the glue links each entry at the first bag of atom i's run
    # and of atom j's run holding s, and the glued decomposition is valid
    for g in search_corpus() + glued_blocks():
        pieces = builder.split(g)
        assert [sorted(map(sorted, atoms)) for atoms, _ in pieces] == \
            [sorted(map(sorted, atoms)) for atoms, _ in
             lemmas.reference_split(g)]
        for atoms, glue in pieces:
            assert sorted(i for i, _, _ in glue) == \
                list(range(len(atoms) - 1))
            for i, j, s in glue:
                assert i < j
                assert g.is_clique(s)
                assert s <= atoms[i] & atoms[j]
                for k in range(i + 1, len(atoms)):
                    assert atoms[i] & atoms[k] <= s
            decomps = []
            for a in atoms:
                sub, ids = g.induced(a)
                td = treedec.greedy_fill_decomposition(sub)
                decomps.append(TreeDecomposition(
                    [frozenset(ids[v] for v in b) for b in td.bags],
                    td.edges))
            got = glued(decomps, glue)
            comp, ids = g.induced(frozenset().union(*atoms))
            at = {v: k for k, v in enumerate(ids)}
            assert treedec.validate(comp, TreeDecomposition(
                [frozenset(at[v] for v in b) for b in got.bags],
                got.edges)) is None
            starts = [0]
            for td in decomps:
                starts.append(starts[-1] + len(td.bags))
            links = got.edges[len(got.edges) - len(glue):]
            for (a, b), (i, j, s) in zip(links, glue):
                for x, k in ((a, i), (b, j)):
                    assert starts[k] <= x < starts[k + 1]
                    assert s <= got.bags[x]
                    assert not any(s <= got.bags[y]
                                   for y in range(starts[k], x))


def test_mcs_m_runs_only_inside_blocks(monkeypatch):
    # the split cuts at cut vertices first, so MCS-M never runs on a
    # tree, and every vertex set it searches is a block of three or more
    # vertices
    searched = []
    real = separators.minimal_triangulation

    def recorded(g, vertices, *rest):
        searched.append((g, frozenset(vertices)))
        return real(g, vertices, *rest)
    monkeypatch.setattr(separators, "minimal_triangulation", recorded)
    for g in (generators.path(300), caterpillar(150),
              random_tree(300, seed=3)):
        builder.split(g)
    assert searched == []
    for g in search_corpus() + glued_blocks():
        builder.split(g)
    assert len(searched) > len(glued_blocks())
    assert all(lemmas.is_block(g, b) for g, b in searched)


def test_split_and_build_do_not_depend_on_edge_order():
    # a graph built from its edges shuffled and flipped splits and
    # decomposes as before: the split's depth-first pass takes neighbours
    # in ascending id, so what it returns depends only on the edge set
    corpus = [*glued_blocks()[:30], caterpillar(20), generators.wall(4),
              *class_members(3, 64, 3, p=1.2 / 64)]
    for k, g in enumerate(corpus):
        rng = random.Random(k)
        edges = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in g.edges()]
        rng.shuffle(edges)
        h = Graph(g.n, edges)
        assert builder.split(h) == builder.split(g)
        want, _ = builder.decompose(g, 3, uncertified_ok=True)
        got, _ = builder.decompose(h, 3, uncertified_ok=True)
        assert (got.bags, got.edges) == (want.bags, want.edges)


def test_split_cuts_in_place(monkeypatch):
    # the split neither induces a component nor builds a completed graph:
    # it builds no graph at all
    def never(*args, **kwargs):
        raise AssertionError("the split built a graph")
    want = [builder.split(g) for g in search_corpus()]
    monkeypatch.setattr(Graph, "__init__", never)
    assert [builder.split(g) for g in search_corpus()] == want


def _forest(seed):
    """A seeded forest of isolated vertices, lone edges and small trees,
    in shuffled ids."""
    rng = random.Random(seed)
    n, edges = 0, []
    for _ in range(rng.randint(1, 12)):
        k = rng.choice((1, 1, 2, 2, 3, 6))
        edges += [(n + u, n + v)
                  for u, v in random_tree(k, seed=rng.randrange(99)).edges()]
        n += k
    return relabelled(Graph(n, edges), seed)


def test_split_walks_each_component_once(monkeypatch):
    # the split finds each component inside the block search that cuts
    # it, with no components() pass first, and returns the pieces, in
    # the order and with the glue, of a split over components()
    graphs = [*split_corpus(), *glued_blocks(),
              *(_forest(seed) for seed in range(40))]
    want = [[([c], []) if len(c) <= 2
             else separators.clique_cutset_atoms(g, min(c))
             for c in g.components()] for g in graphs]
    sizes = {len(c) for g in graphs for c in g.components()}
    assert {1, 2, 3} <= sizes

    def never(*args, **kwargs):
        raise AssertionError("the split ran a components() pass")
    monkeypatch.setattr(Graph, "components", never)
    assert [builder.split(g) for g in graphs] == want


def test_make_structured_preserves_width_and_gives_pmcs():
    for g in random_corpus(8, 15, p=0.35, seed_base=1030):
        w, t = treedec.exact_treewidth(g)
        s = separators.make_structured(g, t)
        assert treedec.validate(g, s) is None
        assert s.width <= t.width == w
        assert lemmas.nested_tree_edges(s) == []
        for bag in s.bags:
            assert lemmas.is_pmc(g, bag)


def test_make_structured_rejects_a_completion_that_is_not_chordal(
        monkeypatch, tmp_path, capsys):
    # structuring checks the chordality of the completion it shrinks, and
    # a build that structures a piece exits 3 when that check fails
    from logtw.cli import EXIT_INVALID, main
    from logtw.formats import write_graph
    monkeypatch.setattr(separators, "perfect_elimination_order",
                        lambda adj: None)
    g = generators.cycle(5)
    with pytest.raises(BuildCheckFailed,
                       match="the minimal completion is not chordal"):
        separators.make_structured(g, treedec.greedy_fill_decomposition(g))
    gpath = tmp_path / "g.gr"
    with open(gpath, "w") as fh:
        write_graph(hub_layer_cases()[0][0], fh)
    assert main(["decompose", "--in", str(gpath), "--t", "3"]) == \
        EXIT_INVALID
    assert "the minimal completion is not chordal" in capsys.readouterr().err


def test_make_structured_fill_is_minimal():
    # the completion is g plus every pair sharing a bag; dropping any
    # single one of its fill edges breaks chordality
    for g in [*random_corpus(12, 10, p=0.3, seed_base=1040),
              generators.wall(3), generators.cycle(9)]:
        s = separators.make_structured(g, treedec.greedy_fill_decomposition(g))
        assert lemmas.nested_tree_edges(s) == []
        fill = {(u, v) for bag in s.bags for u in bag for v in bag
                if u < v and not g.has_edge(u, v)}
        assert lemmas.is_chordal(lemmas.with_edges(g, fill))
        for e in fill:
            assert not lemmas.is_chordal(
                lemmas.with_edges(g, fill - {e}))


def test_perfect_elimination_order():
    assert separators.perfect_elimination_order(
        generators.cycle(5).adj) is None
    tree = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    order, madj = separators.perfect_elimination_order(tree.adj)
    assert sorted(order) == list(range(5))
    assert sum(map(len, madj.values())) == tree.m
    assert lemmas.is_chordal(generators.clique(6))
    assert not lemmas.is_chordal(generators.cycle(4))
