"""Shared corpora for the test suites.

Class-member corpora are rejection-sampled once per (n, t) and cached; all
sampling is seeded, so every run sees the same graphs.
"""

import random
from functools import lru_cache
from itertools import combinations

from logtw import detect
from logtw.generators import random_graph, random_in_class
from logtw.graph import Graph

import lemmas


@lru_cache(maxsize=None)
def class_members(t, n, count, p=None, seed_base=0):
    """Up to `count` seeded graphs on n vertices excluding thetas,
    pyramids, generalized prisms and K_t."""
    if p is None:
        p = min(0.3, 2.2 / n)
    out = []
    seed = seed_base
    while len(out) < count and seed < seed_base + 12 * count:
        g = random_in_class(n, p, t, seed=seed, max_tries=30, caps=n)
        if g is not None:
            out.append(g)
        seed += 1
    return tuple(out)


@lru_cache(maxsize=None)
def random_corpus(n, count, p=0.3, seed_base=100):
    return tuple(random_graph(n, p, seed=seed_base + i) for i in range(count))


def relabelled(g, seed):
    """g under a seeded random permutation of its vertex ids."""
    perm = list(g.vertices())
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def cycle_with_hubs(length, *spokes):
    """A hole of the given length plus one vertex per spoke tuple, adjacent
    to the hole vertices it lists."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    for k, ends in enumerate(spokes):
        edges += [(length + k, x) for x in ends]
    return Graph(length + len(spokes), edges)


@lru_cache(maxsize=None)
def wheel_bearing_cstar_graphs():
    """Restricted members that actually contain hubs: a hole plus one
    extra vertex seeing three spread-out hole vertices."""
    out = []
    for length in (7, 8, 9, 10):
        for spokes in combinations(range(length), 3):
            g = cycle_with_hubs(length, spokes)
            if detect.hubs(g, hole_cap=g.n) and \
                    lemmas.in_class_Cstar(g, caps=g.n)[0]:
                out.append(g)
    assert len(out) >= 10
    return tuple(out)


def hub_layer_cases():
    """(graph, branch of each report level) for t = 3 class members whose
    certified builds walk the hub layers: one shrink, a shrink then a
    balanced vertex, and a balanced vertex at once (two adjacent hubs; a
    layer with two balanced hubs; one hub)."""
    cases = [(cycle_with_hubs(12, (5, 7, 9)), ["shrink"]),
             (cycle_with_hubs(13, (1, 3, 6), (0, 8, 10)),
              ["shrink", "balanced"]),
             (cycle_with_hubs(12, (2, 4, 8), (1, 9, 11)).with_edges(
                 [(12, 13)]), ["balanced"]),
             (cycle_with_hubs(14, (1, 5, 13), (6, 8, 13), (1, 3, 5)),
              ["balanced"])]
    return cases + [(g, ["balanced"]) for g in wheel_bearing_cstar_graphs()]
