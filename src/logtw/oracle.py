"""Brute-force references for the solvers.

Everything here is deliberately naive: exhaustive search with small caps.
These functions share no search logic with the solvers, so the
benchmark's output checks and the tests use them as independent
cross-checks.
"""

from itertools import combinations

from .graph import SizeCapExceeded

SOLVER_CAP = 16
CHROMATIC_CAP = 12


def _cap(g, cap, what):
    if g.n > cap:
        raise SizeCapExceeded(f"{what} oracle capped at n <= {cap}, "
                              f"got n = {g.n}")


def brute_stable_set(g):
    _cap(g, SOLVER_CAP, "stable set")
    best = 0
    verts = list(g.vertices())
    for mask in range(1 << g.n):
        s = [verts[i] for i in range(g.n) if mask >> i & 1]
        if len(s) <= best:
            continue
        if all(not g.has_edge(u, v) for u, v in combinations(s, 2)):
            best = len(s)
    return best


def brute_vertex_cover(g):
    _cap(g, SOLVER_CAP, "vertex cover")
    edges = list(g.edges())
    best = g.n
    verts = list(g.vertices())
    for mask in range(1 << g.n):
        s = {verts[i] for i in range(g.n) if mask >> i & 1}
        if len(s) >= best:
            continue
        if all(u in s or v in s for u, v in edges):
            best = len(s)
    return best


def brute_dominating_set(g):
    _cap(g, SOLVER_CAP, "dominating set")
    if g.n == 0:
        return 0
    best = g.n
    verts = list(g.vertices())
    closed = [g.adj[v] | {v} for v in verts]
    for mask in range(1 << g.n):
        s = [i for i in range(g.n) if mask >> i & 1]
        if len(s) >= best:
            continue
        covered = set()
        for i in s:
            covered |= closed[i]
        if len(covered) == g.n:
            best = len(s)
    return best


def brute_chromatic(g):
    _cap(g, CHROMATIC_CAP, "chromatic number")
    if g.n == 0:
        return 0
    for q in range(1, g.n + 1):
        if _colorable(g, q):
            return q
    return g.n


def _colorable(g, q):
    color = {}

    def assign(i, used_count):
        if i == g.n:
            return True
        banned = {color[w] for w in g.adj[i] if w in color}
        # colors beyond the first unused one are interchangeable
        for c in range(min(q, used_count + 1)):
            if c in banned:
                continue
            color[i] = c
            if assign(i + 1, max(used_count, c + 1)):
                return True
            del color[i]
        return False

    return assign(0, 0)
