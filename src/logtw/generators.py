"""Constructors for the named graph families used throughout the tests:
walls, thetas, pyramids, prisms, pinched prisms, the cube, cycles,
cliques, complete bipartite graphs, and seeded random graphs with
rejection sampling into the forbidden-structure-free classes.
"""

import random

from . import builder, detect
from .graph import Graph


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    if a < 0 or b < 0:
        raise ValueError("complete bipartite sides must be >= 0")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _with_legs(n, edges, legs, lengths):
    """Graph with n numbered vertices and `edges`, plus one path of the
    given length per (start, end) leg; interiors are numbered from n on,
    leg by leg."""
    edges = list(edges)
    for (prev, end), l in zip(legs, lengths):
        for _ in range(l - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, end))
    return Graph(n, edges)


def theta(l1, l2, l3):
    """Two nonadjacent branch vertices joined by three internally disjoint,
    pairwise anticomplete paths of lengths l1, l2, l3 (all >= 2)."""
    lengths = (l1, l2, l3)
    if any(l < 2 for l in lengths):
        raise ValueError("theta paths must have length >= 2")
    # vertex 0 = a, vertex 1 = b, then interiors
    return _with_legs(2, [], [(0, 1)] * 3, lengths)


def pyramid(l1, l2, l3):
    """Apex 0 joined by paths of the given lengths to the corners of the
    triangle {1,2,3}; at most one length may be exactly 1."""
    lengths = (l1, l2, l3)
    if any(l < 1 for l in lengths):
        raise ValueError("pyramid paths must have length >= 1")
    if lengths.count(1) > 1:
        raise ValueError("at most one pyramid path may have length exactly 1")
    return _with_legs(4, [(1, 2), (1, 3), (2, 3)],
                      [(0, 1), (0, 2), (0, 3)], lengths)


def prism(l1, l2, l3):
    """Triangles {0,1,2} and {3,4,5} joined by three disjoint paths of the
    given lengths (all >= 1), with no other edges."""
    lengths = (l1, l2, l3)
    if any(l < 1 for l in lengths):
        raise ValueError("prism paths must have length >= 1")
    return _with_legs(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
                      [(0, 3), (1, 4), (2, 5)], lengths)


def pinched_prism(l1, l2):
    """A hole plus a center whose neighborhood in the hole is an induced
    two-edge matching; l1, l2 (>= 2) are the lengths of the two hole paths
    joining the matched edges."""
    if l1 < 2 or l2 < 2:
        raise ValueError("pinched prism connecting paths must have length >= 2")
    # hole: p - q - (l1-1 inner) - r - s - (l2-1 inner) - back to p
    # center adjacent to {p,q,r,s}
    hole_len = 2 + (l1 - 1) + 2 + (l2 - 1)
    g = cycle(hole_len)
    center = hole_len
    p, q, r, s = 0, 1, 1 + l1, 2 + l1
    edges = list(g.edges()) + [(center, x) for x in (p, q, r, s)]
    return Graph(hole_len + 1, edges)


def cube():
    """The 8-vertex cube: hole 0..5 plus 6 complete to {0,2,4} and 7
    complete to {1,3,5}."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6, 0), (6, 2), (6, 4), (7, 1), (7, 3), (7, 5)]
    return Graph(8, edges)


def wall(k):
    """The k-by-k brick wall: planar, maximum degree three, treewidth k.

    Rows 0..k-1; the top row sits on even columns, the bottom row on columns
    of parity (k-2) mod 2, middle rows span all 2k columns. Vertical rungs
    between rows i and i+1 alternate column parity with i.
    """
    if k < 2:
        raise ValueError("wall needs k >= 2")
    cols = 2 * k
    ids = {}

    def row_columns(i):
        if i == 0:
            return range(0, cols, 2)
        if i == k - 1:
            return range((k - 2) % 2, cols, 2)
        return range(cols)

    n = 0
    for i in range(k):
        for c in row_columns(i):
            ids[(i, c)] = n
            n += 1
    edges = []
    for i in range(k):
        rc = list(row_columns(i))
        for a, b in zip(rc, rc[1:]):
            edges.append((ids[(i, a)], ids[(i, b)]))
    for i in range(k - 1):
        parity = i % 2
        for c in range(parity, cols, 2):
            if (i, c) in ids and (i + 1, c) in ids:
                edges.append((ids[(i, c)], ids[(i + 1, c)]))
    return Graph(n, edges)


def random_graph(n, p, seed):
    """Seeded G(n, p); identical output for identical arguments."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


# the draws random_in_class makes before it gives up
MAX_TRIES = 200


def random_in_class(n, p, t, seed):
    """Rejection-sample G(n, p) until the graph excludes thetas, pyramids,
    generalized prisms and K_t; returns None when tries are exhausted.
    Each draw is searched whole, with no size cap, atom by atom on the
    builder's class_atoms; in_class_Ct checks the certificate of every
    rejected draw."""
    for i in range(MAX_TRIES):
        g = random_graph(n, p, seed * 100003 + i)
        atoms = builder.class_atoms(g, builder.split(g), t)
        ok, _ = detect.in_class_Ct(g, t, caps=g.n, atoms=atoms)
        if ok:
            return g
    return None
