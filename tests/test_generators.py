"""Named graph families: definitional examples, determinism, and the
family-vs-detector confusion matrix."""

import pytest

from logtw import detect
from logtw.generators import (clique, complete_bipartite, cube, cycle,
                              pinched_prism, prism, pyramid, random_graph,
                              random_in_class, theta, wall)
from logtw.oracle import brute_contains_induced, brute_treewidth


def test_theta_minimum_is_k23():
    g = theta(2, 2, 2)
    assert g.n == 5
    h = complete_bipartite(2, 3)
    degs = sorted(g.degree(v) for v in g.vertices())
    assert degs == sorted(h.degree(v) for v in h.vertices()) == [2, 2, 2, 3, 3]
    assert brute_contains_induced(g, "theta")


def test_theta_rejects_short_paths():
    with pytest.raises(ValueError):
        theta(1, 2, 2)


def test_pyramid_constraints():
    assert pyramid(1, 2, 2).n == 6
    with pytest.raises(ValueError):
        pyramid(1, 1, 2)  # at most one path of length one


def test_pinched_prism_paths_at_least_two():
    with pytest.raises(ValueError):
        pinched_prism(1, 2)
    g = pinched_prism(2, 2)
    assert detect.find_pinched_prism(g, cap=g.n) is not None


def test_cube_is_detected():
    g = cube()
    assert g.n == 8
    assert detect.find_cube(g) is not None


def test_complete_bipartite_treewidth():
    assert brute_treewidth(complete_bipartite(3, 3)) == 3


def test_wall_shape_and_treewidth():
    g = wall(5)
    assert max(g.degree(v) for v in g.vertices()) == 3
    assert brute_treewidth(wall(2)) == 2
    with pytest.raises(ValueError):
        wall(1)


def test_random_graph_determinism():
    a = random_graph(20, 0.1, seed=7)
    b = random_graph(20, 0.1, seed=7)
    assert sorted(a.edges()) == sorted(b.edges())
    c = random_graph(20, 0.1, seed=8)
    assert sorted(a.edges()) != sorted(c.edges())


def test_random_graph_extremes():
    assert sorted(random_graph(6, 0.0, seed=1).edges()) == []
    assert len(list(random_graph(6, 1.0, seed=1).edges())) == 15


def test_random_in_class_edge_cases():
    g = random_in_class(8, 0.0, 3, seed=1)
    assert g is not None and not list(g.edges())
    # K_t can never pass the class check
    assert random_in_class(3, 1.0, 3, seed=1, max_tries=5) is None


def test_random_in_class_membership():
    g = random_in_class(20, 0.1, 3, seed=7)
    assert g is not None
    ok, cert = detect.in_class_Ct(g, 3)
    assert ok and cert is None


_FAMILIES = [
    ("theta", theta(2, 2, 2)),
    ("pyramid", pyramid(1, 2, 2)),
    ("prism", prism(1, 1, 1)),
    ("pinched_prism", pinched_prism(2, 2)),
    ("cube", cube()),
    ("clique", clique(6)),
    ("cycle", cycle(7)),
]

_DETECTORS = [
    ("theta", lambda g: detect.find_theta(g, cap=g.n)),
    ("pyramid", lambda g: detect.find_pyramid(g, cap=g.n)),
    ("prism", lambda g: detect.find_prism(g, cap=g.n)),
    ("pinched_prism", lambda g: detect.find_pinched_prism(g, cap=g.n)),
    ("cube", lambda g: detect.find_cube(g, cap=g.n)),
    ("clique", lambda g: detect.has_clique(g, 6)),
]


def test_family_confusion_matrix():
    """Each family's smallest member triggers exactly its own detector."""
    for fam, g in _FAMILIES:
        for det, finder in _DETECTORS:
            found = finder(g) is not None
            assert found == (fam == det), (fam, det, found)


def test_confusion_matrix_matches_oracle():
    oracle_kinds = ["theta", "pyramid", "prism", "pinched_prism", "cube"]
    for fam, g in _FAMILIES:
        if g.n > 12:
            continue
        for kind in oracle_kinds:
            assert brute_contains_induced(g, kind) == (fam == kind), (fam,
                                                                      kind)
