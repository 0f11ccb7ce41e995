"""Brute-force references that only the tests use: treewidth,
induced-pattern containment, minimal separators and holes.

Everything here is deliberately naive: subset enumeration and exhaustive
search with small caps.  These functions share no search logic with the
main modules, so they serve as independent cross-checks; the solver
references the benchmark also uses are in logtw.oracle.
"""

from itertools import combinations

from logtw.oracle import _cap

TW_CAP = 12
SUBSET_CAP = 12


def brute_treewidth(g):
    """Exact treewidth by exhaustive elimination-order search.

    The cost of eliminating v after the set S is the number of remaining
    vertices reachable from v through S; this depends on S only, so the
    search memoizes on the eliminated set.
    """
    _cap(g, TW_CAP, "treewidth")
    if g.n == 0:
        return 0
    all_v = frozenset(g.vertices())
    memo = {}

    def reach_cost(done, v):
        seen = {v}
        stack = [v]
        out = set()
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w in seen:
                    continue
                seen.add(w)
                if w in done:
                    stack.append(w)
                else:
                    out.add(w)
        return len(out)

    def best(done):
        if len(done) == g.n:
            return -1
        if done in memo:
            return memo[done]
        ans = g.n
        for v in sorted(all_v - done):
            cost = reach_cost(done, v)
            if cost >= ans:
                continue
            ans = min(ans, max(cost, best(done | {v})))
        memo[done] = ans
        return ans

    return best(frozenset())


# -- induced-pattern containment ---------------------------------------------

def brute_contains_induced(g, pattern_kind):
    """Does g contain the named pattern as an induced subgraph?

    Checks every vertex subset against the pattern's definition directly.
    Kinds: theta, pyramid, prism, pinched_prism, cube.
    """
    _cap(g, SUBSET_CAP, "containment")
    checker = _PATTERN_CHECKS[pattern_kind]
    verts = list(g.vertices())
    lo, hi = _PATTERN_SIZES[pattern_kind]
    for k in range(lo, min(hi, g.n) + 1):
        for subset in combinations(verts, k):
            if checker(g, set(subset)):
                return True
    return False


def _comps_in(g, s):
    remaining = set(s)
    out = []
    while remaining:
        v = min(remaining)
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in g.adj[u] & remaining:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        remaining -= comp
        out.append(comp)
    return out


def _is_path_set(g, s, comp):
    """Is g[comp] a path? comp assumed connected within s."""
    degs = [len(g.adj[v] & comp) for v in comp]
    if len(comp) == 1:
        return degs == [0]
    return sorted(degs)[:2] == [1, 1] and all(d <= 2 for d in degs) and \
        sum(degs) == 2 * (len(comp) - 1)


def _is_theta_set(g, s):
    for a, b in combinations(sorted(s), 2):
        if g.has_edge(a, b):
            continue
        if len(g.adj[a] & s) != 3 or len(g.adj[b] & s) != 3:
            continue
        rest = s - {a, b}
        if any(len(g.adj[v] & s) != 2 for v in rest):
            continue
        comps = _comps_in(g, rest)
        if len(comps) != 3:
            continue
        if all(_is_path_set(g, rest, c) and
               len(g.adj[a] & c) == 1 and len(g.adj[b] & c) == 1
               for c in comps):
            return True
    return False


def _is_pyramid_set(g, s):
    for a in sorted(s):
        if len(g.adj[a] & s) != 3:
            continue
        for tri in combinations(sorted(s - {a}), 3):
            tset = set(tri)
            if not all(g.has_edge(u, v) for u, v in combinations(tri, 2)):
                continue
            if len(g.adj[a] & tset) > 1:
                continue
            rest = s - tset - {a}
            if any(len(g.adj[v] & s) != 2 for v in rest):
                continue
            comps = _comps_in(g, rest)
            if not all(_is_path_set(g, rest, c) for c in comps):
                continue
            if _match_legs(g, a, tri, comps):
                return True
    return False


def _match_legs(g, a, tri, comps):
    """Each triangle corner must be reached from a along exactly one leg:
    either a direct edge or a path component touching a once and that
    corner once (and no other corner)."""
    assigned = {}
    for c in comps:
        if len(g.adj[a] & c) != 1:
            return False
        touched = [b for b in tri if g.adj[b] & c]
        if len(touched) != 1 or len(g.adj[touched[0]] & c) != 1:
            return False
        if touched[0] in assigned:
            return False
        # leg ends must be path endpoints (or the single shared vertex)
        a_end = next(iter(g.adj[a] & c))
        b_end = next(iter(g.adj[touched[0]] & c))
        if len(c) > 1:
            if a_end == b_end:
                return False
            for end in (a_end, b_end):
                if len(g.adj[end] & c) != 1:
                    return False
        assigned[touched[0]] = c
    for b in tri:
        if b not in assigned and not g.has_edge(a, b):
            return False
    return len(assigned) + sum(1 for b in tri if g.has_edge(a, b)) == 3


def _is_prism_set(g, s):
    for tri_a in combinations(sorted(s), 3):
        if not all(g.has_edge(u, v) for u, v in combinations(tri_a, 2)):
            continue
        for tri_b in combinations(sorted(s - set(tri_a)), 3):
            if not all(g.has_edge(u, v) for u, v in combinations(tri_b, 2)):
                continue
            if _prism_body_ok(g, s, tri_a, tri_b):
                return True
    return False


def _prism_body_ok(g, s, tri_a, tri_b):
    aset, bset = set(tri_a), set(tri_b)
    rest = s - aset - bset
    if any(len(g.adj[v] & s) != 2 for v in rest):
        return False
    if any(len(g.adj[v] & s) != 3 for v in aset | bset):
        return False
    comps = _comps_in(g, rest)
    if not all(_is_path_set(g, rest, c) for c in comps):
        return False
    # pair corners through the paths and the direct cross edges
    pairs = set()
    for c in comps:
        touch_a = [x for x in tri_a if g.adj[x] & c]
        touch_b = [x for x in tri_b if g.adj[x] & c]
        if len(touch_a) != 1 or len(touch_b) != 1:
            return False
        if len(g.adj[touch_a[0]] & c) != 1 or len(g.adj[touch_b[0]] & c) != 1:
            return False
        if len(c) > 1:
            ea = next(iter(g.adj[touch_a[0]] & c))
            eb = next(iter(g.adj[touch_b[0]] & c))
            if ea == eb:
                return False
            if len(g.adj[ea] & c) != 1 or len(g.adj[eb] & c) != 1:
                return False
        pairs.add((touch_a[0], touch_b[0]))
    for x in tri_a:
        for y in tri_b:
            if g.has_edge(x, y):
                pairs.add((x, y))
    if len(pairs) != 3:
        return False
    return ({p[0] for p in pairs} == aset) and ({p[1] for p in pairs} == bset)


def _is_pinched_prism_set(g, s):
    if len(s) < 7:
        return False
    for c in sorted(s):
        nbrs = g.adj[c] & s
        if len(nbrs) != 4:
            continue
        ring = s - {c}
        if any(len(g.adj[v] & ring) != 2 for v in ring):
            continue
        if len(_comps_in(g, ring)) != 1:
            continue
        matching = [(u, v) for u, v in combinations(sorted(nbrs), 2)
                    if g.has_edge(u, v)]
        if len(matching) == 2 and \
                len({x for e in matching for x in e}) == 4:
            return True
    return False


def _is_cube_set(g, s):
    if len(s) != 8:
        return False
    if any(len(g.adj[v] & s) != 3 for v in s):
        return False
    for b1, b2 in combinations(sorted(s), 2):
        if g.has_edge(b1, b2):
            continue
        ring = s - {b1, b2}
        if any(len(g.adj[v] & ring) != 2 for v in ring):
            continue
        if len(_comps_in(g, ring)) != 1:
            continue
        n1 = g.adj[b1] & ring
        n2 = g.adj[b2] & ring
        if len(n1) == 3 and n2 == ring - n1 and \
                not any(g.has_edge(u, v) for u, v in combinations(sorted(n1), 2)):
            return True
    return False


_PATTERN_CHECKS = {
    "theta": _is_theta_set,
    "pyramid": _is_pyramid_set,
    "prism": _is_prism_set,
    "pinched_prism": _is_pinched_prism_set,
    "cube": _is_cube_set,
}

# feasible subset sizes per pattern (min vertices, max = n)
_PATTERN_SIZES = {
    "theta": (5, 99),
    "pyramid": (6, 99),
    "prism": (6, 99),
    "pinched_prism": (7, 99),
    "cube": (8, 8),
}


def brute_minimal_separators(g):
    """All minimal separators by subset enumeration (n <= 12)."""
    _cap(g, SUBSET_CAP, "minimal separators")
    verts = list(g.vertices())
    out = set()
    for mask in range(1 << g.n):
        x = {verts[i] for i in range(g.n) if mask >> i & 1}
        if len(x) >= g.n - 1:
            continue
        comps = _comps_in(g, set(verts) - x)
        full = [c for c in comps if all(g.adj[v] & c for v in x)]
        if len(full) >= 2:
            out.add(frozenset(x))
    return out


def brute_holes(g):
    """All holes (induced cycles, length >= 4) by subset enumeration."""
    _cap(g, SUBSET_CAP, "hole enumeration")
    out = []
    verts = list(g.vertices())
    for k in range(4, g.n + 1):
        for subset in combinations(verts, k):
            s = set(subset)
            if all(len(g.adj[v] & s) == 2 for v in s) and \
                    len(_comps_in(g, s)) == 1:
                out.append(frozenset(s))
    return out
