"""Exact, certificate-producing recognition of the forbidden structures
(theta, pyramid, prism, pinched prism, cube, large cliques), the class
membership test built on it, and the hub search.

Every detector is an exhaustive search with pruning, capped by vertex count
(DEFAULT_CAP, overridable per call); every positive answer carries a
certificate whose verify() re-checks the full definition against the host
graph.
"""

from dataclasses import dataclass, field
from itertools import permutations

from .graph import (SizeCapExceeded, adjacency_masks, degeneracy_order,
                    enumerate_holes, is_induced_path)

DEFAULT_CAP = 30


def _check_cap(g, cap):
    cap = DEFAULT_CAP if cap is None else cap
    if g.n > cap:
        raise SizeCapExceeded(f"detector capped at n <= {cap}, got n = {g.n}")


@dataclass(frozen=True)
class Certificate:
    """Tagged witness of a forbidden structure, with named vertex roles.

    Roles use host-graph vertex ids so certificates found on induced
    subgraphs can be relabeled losslessly by the caller.
    """
    kind: str  # Theta | Pyramid | Prism | PinchedPrism | Cube | CliqueKt
    roles: dict = field(compare=False)

    def verify(self, g):
        return _VERIFIERS[self.kind](g, self.roles)


# -- definition checks on explicit roles -----------------------------------

def _verify_theta(g, roles):
    a, b, paths = roles["a"], roles["b"], roles["paths"]
    if g.has_edge(a, b) or len(paths) != 3:
        return False
    interiors = []
    for p in paths:
        if p[0] != a or p[-1] != b or len(p) < 3:  # length >= 2
            return False
        if not is_induced_path(g, p):
            return False
        interiors.append(set(p[1:-1]))
    for i in range(3):
        for j in range(i + 1, 3):
            if interiors[i] & interiors[j]:
                return False
            if not g.is_anticomplete_between(interiors[i], interiors[j]):
                return False
    return True


def _verify_pyramid(g, roles):
    a, base, paths = roles["apex"], roles["base"], roles["paths"]
    if len(base) != 3 or not g.is_clique(base) or a in base:
        return False
    if sum(1 for p in paths if len(p) == 2) > 1:
        return False
    sides = []
    for p, b in zip(paths, base):
        if p[0] != a or p[-1] != b or len(p) < 2:
            return False
        if not is_induced_path(g, p):
            return False
        sides.append(set(p[1:]))
    for i in range(3):
        for j in range(i + 1, 3):
            if sides[i] & sides[j]:
                return False
            cross = {(u, v) for u in sides[i] for v in sides[j]
                     if g.has_edge(u, v)}
            if cross != {(base[i], base[j])}:
                return False
    return True


def _verify_prism(g, roles):
    tri_a, tri_b, paths = roles["triangle_a"], roles["triangle_b"], roles["paths"]
    if not (g.is_clique(tri_a) and g.is_clique(tri_b)):
        return False
    sides = []
    for p, ai, bi in zip(paths, tri_a, tri_b):
        if p[0] != ai or p[-1] != bi or len(p) < 2:
            return False
        if not is_induced_path(g, p):
            return False
        sides.append(set(p))
    for i in range(3):
        for j in range(i + 1, 3):
            if sides[i] & sides[j]:
                return False
            cross = {frozenset((u, v)) for u in sides[i] for v in sides[j]
                     if g.has_edge(u, v)}
            expected = {frozenset((tri_a[i], tri_a[j])),
                        frozenset((tri_b[i], tri_b[j]))}
            if cross != expected:
                return False
    return True


def _verify_pinched_prism(g, roles):
    center, hole = roles["center"], roles["hole"]
    if len(hole) < 6 or center in hole or \
            not is_induced_path(g, hole, cycle=True):
        return False
    nbrs = [x for x in hole if g.has_edge(center, x)]
    if len(nbrs) != 4:
        return False
    edges = {frozenset((u, v)) for u in nbrs for v in nbrs
             if u < v and g.has_edge(u, v)}
    if len(edges) != 2:
        return False
    return not (set.union(*map(set, edges)) - set(nbrs)) and \
        len(set.union(*map(set, edges))) == 4


def _verify_cube(g, roles):
    a = roles["ring"]
    b1, b2 = roles["b1"], roles["b2"]
    verts = list(a) + [b1, b2]
    if len(set(verts)) != 8 or len(a) != 6:
        return False
    expected = {frozenset((a[i], a[(i + 1) % 6])) for i in range(6)}
    expected |= {frozenset((b1, a[i])) for i in (0, 2, 4)}
    expected |= {frozenset((b2, a[i])) for i in (1, 3, 5)}
    actual = {frozenset((u, v)) for u in verts for v in verts
              if u < v and g.has_edge(u, v)}
    return actual == expected


def _verify_clique(g, roles):
    return g.is_clique(roles["vertices"])


_VERIFIERS = {
    "Theta": _verify_theta,
    "Pyramid": _verify_pyramid,
    "Prism": _verify_prism,
    "PinchedPrism": _verify_pinched_prism,
    "Cube": _verify_cube,
    "CliqueKt": _verify_clique,
}


# -- induced path enumeration ----------------------------------------------

def _induced_paths(g, a, b, allowed):
    """Yield induced a-b paths whose interior lies in `allowed`.

    `allowed` must exclude a and b. Interior vertices are free to be
    adjacent to a or b only as the path's own edges dictate (induced).
    """
    adj = g.adj

    def extend(path, path_set, blocked):
        last = path[-1]
        for w in sorted(adj[last]):
            if w == b:
                if len(path) == 1 or b not in blocked:
                    yield path + [b]
                continue
            if w not in allowed or w in path_set or w in blocked:
                continue
            path.append(w)
            path_set.add(w)
            yield from extend(path, path_set, blocked | (adj[last] - {w}))
            path.pop()
            path_set.remove(w)

    yield from extend([a], {a}, set())


def _shortest_within(g, a, b, allowed):
    """Shortest a-b path with interior in `allowed` (None if none exists)."""
    ok = set(allowed) | {a, b}
    forbidden = [v for v in g.vertices() if v not in ok]
    return g.shortest_path(a, b, forbidden)


# -- three-path-configuration detectors ------------------------------------

def find_theta(g, cap=None):
    _check_cap(g, cap)
    all_v = set(g.vertices())
    for a in g.vertices():
        if g.degree(a) < 3:
            continue
        for b in range(a + 1, g.n):
            if g.degree(b) < 3 or g.has_edge(a, b):
                continue
            allowed1 = all_v - {a, b}
            for p1 in _induced_paths(g, a, b, allowed1):
                int1 = set(p1[1:-1])
                allowed2 = allowed1 - g.closed_neighborhood(int1)
                for p2 in _induced_paths(g, a, b, allowed2):
                    int2 = set(p2[1:-1])
                    allowed3 = allowed2 - g.closed_neighborhood(int2)
                    p3 = _shortest_within(g, a, b, allowed3)
                    if p3 is not None:
                        return Certificate("Theta",
                                           {"a": a, "b": b,
                                            "paths": [p1, p2, p3]})
    return None


def _triangles(g):
    for u in g.vertices():
        for v in sorted(g.adj[u]):
            if v <= u:
                continue
            for w in sorted(g.adj[u] & g.adj[v]):
                if w > v:
                    yield (u, v, w)


def find_pyramid(g, cap=None):
    _check_cap(g, cap)
    all_v = set(g.vertices())
    for base in _triangles(g):
        bset = set(base)
        for a in g.vertices():
            if a in bset:
                continue
            direct = [b for b in base if g.has_edge(a, b)]
            if len(direct) > 1:
                continue
            for b1, b2, b3 in _base_orders(base):
                cert = _pyramid_paths(g, all_v, a, (b1, b2, b3))
                if cert is not None:
                    return cert
    return None


def _base_orders(base):
    # which corner is reached last (by the shortest-path leg) matters,
    # so try each as b3; the first two legs are enumerated exhaustively.
    b1, b2, b3 = base
    return [(b1, b2, b3), (b1, b3, b2), (b2, b3, b1)]


def _pyramid_paths(g, all_v, a, corners):
    b1, b2, b3 = corners
    bset = {b1, b2, b3}
    allowed1 = all_v - bset - {a} - g.open_neighborhood({b2, b3})
    for p1 in _leg_paths(g, a, b1, allowed1):
        used1 = set(p1[1:])
        allowed2 = (all_v - bset - {a} - g.closed_neighborhood(used1)
                    - g.open_neighborhood({b3}))
        for p2 in _leg_paths(g, a, b2, allowed2):
            used2 = set(p2[1:])
            allowed3 = (all_v - {a}
                        - g.closed_neighborhood(used1)
                        - g.closed_neighborhood(used2))
            p3 = _shortest_within(g, a, b3, allowed3)
            if p3 is not None:
                paths = [p1, p2, p3]
                if sum(1 for p in paths if len(p) == 2) <= 1:
                    return Certificate("Pyramid",
                                       {"apex": a, "base": list(corners),
                                        "paths": paths})
    return None


def _leg_paths(g, a, b, allowed):
    if g.has_edge(a, b):
        yield [a, b]
    else:
        yield from _induced_paths(g, a, b, allowed)


def find_prism(g, cap=None):
    _check_cap(g, cap)
    all_v = set(g.vertices())
    tris = list(_triangles(g))
    for i, ta in enumerate(tris):
        for tb in tris[i + 1:]:
            if set(ta) & set(tb):
                continue
            for perm in permutations(tb):
                if any(g.has_edge(ta[x], perm[y])
                       for x in range(3) for y in range(3) if x != y):
                    continue
                cert = _prism_paths(g, all_v, ta, perm)
                if cert is not None:
                    return cert
    return None


def _prism_paths(g, all_v, ta, tb):
    aset, bset = set(ta), set(tb)
    ends = aset | bset
    ban1 = g.open_neighborhood({ta[1], ta[2], tb[1], tb[2]})
    for p1 in _leg_paths(g, ta[0], tb[0], all_v - ends - ban1):
        used1 = set(p1)
        ban2 = (g.closed_neighborhood(used1)
                | g.open_neighborhood({ta[2], tb[2]}))
        for p2 in _leg_paths(g, ta[1], tb[1], all_v - ends - ban2):
            used2 = set(p2)
            allowed3 = (all_v - g.closed_neighborhood(used1)
                        - g.closed_neighborhood(used2))
            p3 = _shortest_within(g, ta[2], tb[2], allowed3)
            if p3 is not None:
                return Certificate("Prism",
                                   {"triangle_a": list(ta),
                                    "triangle_b": list(tb),
                                    "paths": [p1, p2, p3]})
    return None


def find_pinched_prism(g, cap=None):
    _check_cap(g, cap)
    for hole in enumerate_holes(g, min_len=6, cap=g.n):
        hset = set(hole)
        for c in g.vertices():
            if c in hset:
                continue
            nbrs = [x for x in hole if g.has_edge(c, x)]
            if len(nbrs) != 4:
                continue
            edges = [(u, v) for i, u in enumerate(nbrs)
                     for v in nbrs[i + 1:] if g.has_edge(u, v)]
            if len(edges) == 2 and len({x for e in edges for x in e}) == 4:
                return Certificate("PinchedPrism",
                                   {"center": c, "hole": list(hole)})
    return None


def cubes(g):
    """Every induced cube of g as a list ring + [b1, b2]: a 6-hole ring,
    b1 seeing ring[0], ring[2], ring[4] and b2 the other three, in hole
    enumeration order."""
    for hole in enumerate_holes(g, max_len=6, min_len=6, cap=g.n):
        hset = set(hole)
        for cls in (0, 1):
            ring = list(hole[cls:] + hole[:cls])
            want1 = {ring[0], ring[2], ring[4]}
            want2 = hset - want1
            for b1 in g.vertices():
                if b1 in hset or g.adj[b1] & hset != want1:
                    continue
                for b2 in g.vertices():
                    if b2 in hset or b2 == b1 or g.has_edge(b1, b2):
                        continue
                    if g.adj[b2] & hset == want2:
                        yield ring + [b1, b2]


def find_cube(g, cap=None):
    # an 8-vertex pattern; polynomial enumeration, no cap needed, but we
    # honor an explicit one for symmetry with the other detectors.
    if cap is not None:
        _check_cap(g, cap)
    for c in cubes(g):
        return Certificate("Cube", {"ring": c[:6], "b1": c[6], "b2": c[7]})
    return None


# -- cliques ---------------------------------------------------------------

def clique_number(g):
    """Exact maximum clique size, by branch and bound along the reverse
    degeneracy order."""
    order, _ = degeneracy_order(g)
    pos = {v: i for i, v in enumerate(order)}
    best = [0]
    best_set = [frozenset()]

    def expand(current, cands):
        if not cands:
            if len(current) > best[0]:
                best[0] = len(current)
                best_set[0] = frozenset(current)
            return
        if len(current) + len(cands) <= best[0]:
            return
        for v in sorted(cands):
            cands = cands - {v}
            if len(current) + 1 + len(cands & g.adj[v]) <= best[0]:
                continue
            expand(current | {v}, cands & g.adj[v])

    for v in order:
        later = {w for w in g.adj[v] if pos[w] > pos[v]}
        expand({v}, later)
    return best[0], sorted(best_set[0])


def has_clique(g, t):
    size, verts = clique_number(g)
    if size >= t:
        return Certificate("CliqueKt", {"vertices": verts[:t]})
    return None


# -- hubs -----------------------------------------------------------------

def hubs(g, hole_cap=None, budget=None, partial=False):
    """The set of hub vertices: each is the center of at least one wheel,
    a hole of length >= 5 plus a vertex off it with >= 3 neighbours on
    it, at least two pairs of them cyclically consecutive yet apart on
    the hole (the wheel's long sectors).

    `budget` bounds the holes examined to the first `budget` holes of
    length >= 5 in `enumerate_holes` order; past it the scan either
    raises SizeCapExceeded or, with partial=True, returns the hubs found
    so far (a subset of the true hub set).
    """
    amask = adjacency_masks(g)
    found = 0
    for count, hole in enumerate(enumerate_holes(g, min_len=5, cap=hole_cap)):
        if budget is not None and count >= budget:
            if partial:
                break
            raise SizeCapExceeded(
                f"hub search budget of {budget} holes exhausted")
        hmask = 0
        near = 0
        for x in hole:
            hmask |= 1 << x
            near |= amask[x]
        cands = near & ~hmask & ~found
        while cands:
            bit = cands & -cands
            cands ^= bit
            on = amask[bit.bit_length() - 1] & hmask
            if on.bit_count() < 3:
                continue
            # a wheel: >= 2 long sectors, i.e. >= 2 gaps of >= 2 between
            # cyclically consecutive neighbour positions on the hole
            pos = [i for i, x in enumerate(hole) if on >> x & 1]
            gaps = [b - a for a, b in zip(pos, pos[1:])]
            gaps.append(len(hole) - pos[-1] + pos[0])
            if sum(1 for d in gaps if d >= 2) >= 2:
                found |= bit
    return frozenset(v for v in range(g.n) if found >> v & 1)


# -- class membership --------------------------------------------------------

def in_class_Ct(g, t, caps=None):
    """Is g (theta, pyramid, generalized prism, K_t)-free?

    Returns (bool, certificate-of-first-violation-or-None).
    """
    cert = has_clique(g, t)
    if cert is not None:
        return False, cert
    for finder in (find_theta, find_pyramid, find_prism, find_pinched_prism):
        cert = finder(g, cap=caps)
        if cert is not None:
            return False, cert
    return True, None
