"""Core graph type: construction, queries, holes, degeneracy."""

from itertools import combinations, islice

import pytest

from logtw.graph import (Graph, degeneracy_order, enumerate_holes,
                         is_induced_path, strict_degeneracy)
from logtw.generators import clique, complete_bipartite, cycle, path, wall
import lemmas
from brute import brute_holes
from conftest import random_corpus, relabelled


def _reference_holes(g, max_len=None, min_len=4):
    """The set-based depth-first hole search that `enumerate_holes` must
    match hole for hole, in order (no cap)."""
    if max_len is None:
        max_len = g.n
    adj = g.adj

    def extend(path, path_set, blocked):
        v0 = path[0]
        last = path[-1]
        for w in sorted(adj[last]):
            if w <= v0 or w in path_set or w in blocked:
                continue
            if v0 in adj[w]:
                if len(path) >= min_len - 1 and path[1] < w:
                    yield tuple(path) + (w,)
            elif len(path) < max_len - 1:
                new_blocked = blocked | (adj[last] - {w})
                path.append(w)
                path_set.add(w)
                yield from extend(path, path_set, new_blocked)
                path.pop()
                path_set.remove(w)

    for v0 in range(g.n):
        for v1 in sorted(adj[v0]):
            if v1 > v0:
                yield from extend([v0, v1], {v0, v1}, set())


def test_construction_and_basic_queries():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.adj[1] == {0, 2}
    assert g.degree(0) == 1
    assert g.is_connected()


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_components_and_induced():
    g = Graph(5, [(0, 1), (2, 3)])
    comps = g.components()
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]
    sub, ids = g.induced({2, 3, 4})
    assert sub.n == 3 and sorted(sub.edges()) == [(0, 1)]
    assert [ids[i] for i in range(3)] == [2, 3, 4]


def test_neighborhood_operators():
    g = cycle(5)
    assert g.open_neighborhood({0}) == {1, 4}
    assert g.closed_neighborhood({0}) == {0, 1, 4}
    assert g.is_clique({0, 1})
    assert not g.is_clique({0, 2})


def test_clique_and_stable_match_the_pairwise_definition():
    for n in (0, 1, 5, 8):
        for p in (0.2, 0.5, 0.8):
            for g in random_corpus(n, 2, p=p, seed_base=10 * n):
                for mask in range(1 << n):
                    xs = [v for v in range(n) if mask >> v & 1]
                    pairs = list(combinations(xs, 2))
                    assert g.is_clique(xs) == all(
                        g.has_edge(u, v) for u, v in pairs)
                    assert g.is_stable(xs) == all(
                        not g.has_edge(u, v) for u, v in pairs)


def _holes(g, *args, **kwargs):
    """The hole tuples `enumerate_holes` yields, without their masks."""
    return [hole for hole, _, _ in enumerate_holes(g, *args, **kwargs)]


def test_hole_enumeration_matches_brute_force():
    for g in random_corpus(8, 25):
        # a hole's vertex set determines it, so compare as sets
        assert {frozenset(h) for h in _holes(g)} == set(brute_holes(g))
        assert len({frozenset(h) for h in _holes(g)}) == len(_holes(g))


def test_hole_enumeration_on_named_graphs():
    assert _holes(cycle(6)) == [(0, 1, 2, 3, 4, 5)]
    assert _holes(clique(5)) == []
    assert _holes(path(6)) == []
    # K_{2,3} has exactly three 4-holes
    assert len(_holes(complete_bipartite(2, 3))) == 3


def test_hole_enumeration_order_matches_reference():
    # the hub search's budget cuts this sequence, so equal sets are not
    # enough: the order must be the same too; each hole comes with the
    # OR of its vertices' bits and the mask of the vertices that have at
    # least three neighbours in the hole
    def masks(g, hole):
        mask = sum(1 << x for x in hole)
        three = sum(1 << v for v in g.vertices()
                    if len(g.adj[v] & set(hole)) >= 3)
        return mask, three

    graphs = list(random_corpus(12, 30, p=0.3, seed_base=1200))
    graphs += [relabelled(wall(k), seed=k) for k in (3, 4, 5)]
    cases = [(g, min_len, max_len, None) for g in graphs
             for min_len, max_len in ((4, None), (5, None), (6, 6))]
    # the first holes up to where the hub budget cuts the benchmark's wall(6)
    cases.append((relabelled(wall(6), seed=6), 5, None, 5000))
    for g, min_len, max_len, first in cases:
        found = list(islice(enumerate_holes(g, max_len, min_len), first))
        assert [hole for hole, _, _ in found] == list(
            islice(_reference_holes(g, max_len, min_len), first))
        for hole, mask, three in found:
            assert (mask, three) == masks(g, hole)


def test_hole_enumeration_cap():
    # the walk has no cap of its own: the hub search checks its hole cap
    # (test_detect.py), so a 70-vertex graph is walked
    assert list(enumerate_holes(Graph(70))) == []
    assert [hole for hole, _, _ in enumerate_holes(cycle(70))] == [
        tuple(range(70))]


def test_is_hole():
    # (graph, sequence, an induced path?, a hole?)
    c5 = cycle(5)
    chorded = lemmas.with_edges(c5, [(0, 2)])
    cases = [(c5, (3,), True, False),
             (c5, (), False, False),
             (path(4), (0, 1, 2, 3), True, False),
             (c5, (0, 1, 2, 3), True, False),
             (c5, (4, 0, 1), True, False),
             (chorded, (0, 1, 2, 3), False, False),  # chord 0-2
             (path(4), (0, 1, 0), False, False),  # repeated vertex
             (cycle(4), (0, 1, 0, 1), False, False),
             (cycle(4), (0, 1, 2, 3), False, True),
             (c5, (0, 1, 2, 3, 4), False, True),
             (c5, (0, 2, 4, 1, 3), False, False),
             (clique(3), (0, 1, 2), False, False),  # a triangle
             (chorded, (0, 1, 2, 3, 4), False, False)]
    for g, seq, as_path, as_hole in cases:
        assert is_induced_path(g, seq) == as_path, seq
        assert is_induced_path(g, seq, cycle=True) == as_hole, seq


def test_degeneracy():
    assert strict_degeneracy(Graph(1)) == 1
    assert strict_degeneracy(cycle(9)) == 3  # every subgraph has deg < 3
    assert strict_degeneracy(clique(5)) == 5
    order, d = degeneracy_order(complete_bipartite(3, 3))
    assert d == 3 and len(order) == 6


def test_degeneracy_order_matches_its_reference():
    # the heap-selected order removes the vertex the first-written scan,
    # kept in lemmas, takes: minimum degree, smallest id on ties.  Cycles,
    # walls and sparse draws tie at every step; relabelled copies break
    # the ties another way
    graphs = [*random_corpus(12, 20, p=0.2, seed_base=2100),
              *random_corpus(30, 10, p=1.5 / 30, seed_base=2200),
              *random_corpus(16, 10, p=0.6, seed_base=2300),
              cycle(9), clique(5), complete_bipartite(3, 4), path(7),
              wall(4), Graph(0), Graph(3)]
    graphs += [relabelled(g, seed=i) for i, g in enumerate(graphs)]
    for g in graphs:
        assert degeneracy_order(g) == lemmas.reference_degeneracy_order(g)
