"""Named graph families: definitional examples, determinism, and the
family-vs-detector confusion matrix."""

import hashlib
import re

import pytest

from logtw import detect
from logtw.generators import (clique, complete_bipartite, cube, cycle,
                              pinched_prism, prism, pyramid, random_graph,
                              random_in_class, theta, wall)

from brute import brute_contains_induced, brute_treewidth


def test_theta_minimum_is_k23():
    g = theta(2, 2, 2)
    assert g.n == 5
    h = complete_bipartite(2, 3)
    degs = sorted(g.degree(v) for v in g.vertices())
    assert degs == sorted(h.degree(v) for v in h.vertices()) == [2, 2, 2, 3, 3]
    assert brute_contains_induced(g, "theta")


def test_three_path_families_number_their_legs():
    # ends first, then each leg's interior in leg order
    assert sorted(theta(2, 2, 3).edges()) == [
        (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (4, 5)]
    assert pyramid(1, 2, 2).n == 6
    assert sorted(pyramid(1, 2, 2).edges()) == [
        (0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]
    assert sorted(prism(1, 2, 1).edges()) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 6), (2, 5), (3, 4), (3, 5),
        (4, 5), (4, 6)]


_REJECTED = [
    (theta, (1, 2, 2), "theta paths must have length >= 2"),
    (pyramid, (0, 2, 2), "pyramid paths must have length >= 1"),
    (pyramid, (1, 1, 2), "at most one pyramid path may have length exactly 1"),
    (prism, (1, 0, 1), "prism paths must have length >= 1"),
    (pinched_prism, (1, 2),
     "pinched prism connecting paths must have length >= 2"),
    (complete_bipartite, (-1, 3), "complete bipartite sides must be >= 0"),
    (complete_bipartite, (3, -1), "complete bipartite sides must be >= 0"),
    (cycle, (2,), "cycle needs n >= 3"),
    (wall, (1,), "wall needs k >= 2"),
]


@pytest.mark.parametrize(
    "family, params, message", _REJECTED,
    ids=[f"{f.__name__}({','.join(map(str, p))})" for f, p, _ in _REJECTED])
def test_family_rejects_bad_parameters(family, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        family(*params)


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
    ok, cert = detect.in_class_Ct(g, 3, caps=g.n)
    assert ok and cert is None


def test_random_in_class_matches_whole_graph_sampling(capsys):
    # checking each draw atom by atom accepts exactly the draws the
    # whole-graph check accepts; p is dense enough that some are rejected
    rejected = 0
    for n in (16, 64, 128):
        for seed in (1, 2, 3):
            draws = (random_graph(n, 1.5 / n, seed * 100003 + i)
                     for i in range(200))
            for want in draws:
                if detect.in_class_Ct(want, 3, caps=n)[0]:
                    break
                rejected += 1
            got = random_in_class(n, 1.5 / n, 3, seed)
            assert sorted(got.edges()) == sorted(want.edges()), (n, seed)
    assert rejected >= 10
    # `logtw gen random-in-class 64 0.02 3 --seed 1`, recorded from the
    # whole-graph sampler
    from logtw.cli import main
    assert main(["gen", "random-in-class", "64", "0.02", "3",
                 "--seed", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "3adafc5f29a6102bc382ed1f6d914c78cc06f24c6ac68e0a8aeea5636ce393e1")


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
    ("theta", detect.find_theta),
    ("pyramid", detect.find_pyramid),
    ("prism", detect.find_prism),
    ("pinched_prism", detect.find_pinched_prism),
    ("cube", detect.find_cube),
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


def test_random_in_class_searches_the_whole_draw():
    # no size cap applies to the draws: n = 64 is above the detector's
    # default cap of 30, and the graph is the one a search capped at
    # n <= 64 accepts
    g = random_in_class(64, 1.2 / 64, 3, seed=1)
    assert (g.n, g.m) == (64, 38)
    assert hashlib.sha256(repr(sorted(g.edges())).encode()).hexdigest() == (
        "acc343310b12a0293d4839949d6eb875f54a7abfb4e27bf3439a6c74fcdd1276")
