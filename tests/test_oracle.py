"""Brute-force reference implementations, the solver references of
logtw.oracle and the tests' own in brute.py, checked against graphs whose
answers are known in closed form."""

from logtw import generators, oracle
from logtw.graph import Graph

import brute


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]            # outer C_5
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]    # inner pentagram
    edges += [(i, i + 5) for i in range(5)]                  # spokes
    return Graph(10, edges)


def test_brute_treewidth_known_values():
    assert brute.brute_treewidth(generators.clique(5)) == 4
    assert brute.brute_treewidth(generators.cycle(6)) == 2
    assert brute.brute_treewidth(generators.path(7)) == 1
    assert brute.brute_treewidth(Graph(4)) == 0
    assert brute.brute_treewidth(generators.complete_bipartite(3, 3)) == 3
    assert brute.brute_treewidth(Graph(1)) == 0


def test_brute_contains_induced():
    assert brute.brute_contains_induced(generators.theta(2, 2, 2), "theta")
    assert not brute.brute_contains_induced(generators.cycle(7), "pyramid")
    assert brute.brute_contains_induced(generators.pyramid(1, 2, 2), "pyramid")
    assert brute.brute_contains_induced(generators.prism(1, 1, 1), "prism")
    assert brute.brute_contains_induced(
        generators.pinched_prism(2, 2), "pinched_prism")
    assert brute.brute_contains_induced(generators.cube(), "cube")
    assert not brute.brute_contains_induced(generators.clique(8), "theta")
    # the Petersen graph is triangle-free with plenty of 6-cycles sharing
    # endpoints, so it contains thetas but no pyramid or prism
    p = petersen()
    assert brute.brute_contains_induced(p, "theta")
    assert not brute.brute_contains_induced(p, "pyramid")
    assert not brute.brute_contains_induced(p, "prism")


def test_brute_np_solvers_known_values():
    c5 = generators.cycle(5)
    assert oracle.brute_stable_set(c5) == 2
    assert oracle.brute_vertex_cover(c5) == 3
    assert oracle.brute_dominating_set(c5) == 2
    assert oracle.brute_chromatic(c5) == 3

    k5 = generators.clique(5)
    assert oracle.brute_stable_set(k5) == 1
    assert oracle.brute_vertex_cover(k5) == 4
    assert oracle.brute_dominating_set(k5) == 1
    assert oracle.brute_chromatic(k5) == 5

    p = petersen()
    assert oracle.brute_stable_set(p) == 4
    assert oracle.brute_vertex_cover(p) == 6
    assert oracle.brute_dominating_set(p) == 3
    assert oracle.brute_chromatic(p) == 3

    e = Graph(4)
    assert oracle.brute_stable_set(e) == 4
    assert oracle.brute_vertex_cover(e) == 0
    assert oracle.brute_chromatic(e) == 1
    assert oracle.brute_chromatic(Graph(0)) == 0


def test_brute_stable_set_vertex_cover_duality():
    for seed in range(10):
        g = generators.random_graph(8, 0.4, seed)
        assert oracle.brute_stable_set(g) + oracle.brute_vertex_cover(g) == g.n


def test_brute_minimal_separators():
    p4 = generators.path(4)
    seps = brute.brute_minimal_separators(p4)
    assert frozenset({1}) in seps and frozenset({2}) in seps
    assert frozenset() not in seps
    # a disconnected graph is split by the empty set
    g = Graph(4, [(0, 1), (2, 3)])
    assert frozenset() in brute.brute_minimal_separators(g)
    assert brute.brute_minimal_separators(generators.clique(4)) == set()
    c5 = generators.cycle(5)
    seps5 = brute.brute_minimal_separators(c5)
    assert all(len(s) == 2 for s in seps5) and len(seps5) == 5


def test_brute_holes():
    assert brute.brute_holes(generators.cycle(4)) == [frozenset(range(4))]
    assert brute.brute_holes(generators.clique(5)) == []
    assert len(brute.brute_holes(generators.complete_bipartite(2, 3))) == 3
    # Petersen: girth 5, so every 5- and 6-cycle is induced;
    # it has twelve 5-cycles and ten 6-cycles
    assert len(brute.brute_holes(petersen())) == 22
