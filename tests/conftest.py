"""Shared corpora for the test suites.

Class-member corpora are rejection-sampled once per (n, t) and cached; all
sampling is seeded, so every run sees the same graphs.
"""

import random
from functools import lru_cache

from logtw.generators import random_graph, random_in_class
from logtw.graph import Graph


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
