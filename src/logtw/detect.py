"""Exact, certificate-producing recognition of the forbidden structures
(theta, pyramid, prism, pinched prism, cube, large cliques) and of wheels
and hubs.

Every detector is an exhaustive search with pruning, capped by vertex count
(DEFAULT_CAP, overridable per call); every positive answer carries a
certificate whose verify() re-checks the full definition against the host
graph.
"""

from dataclasses import dataclass, field
from itertools import permutations

from .graph import (Graph, SizeCapExceeded, adjacency_masks, enumerate_holes,
                    is_hole)

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
    kind: str  # Theta | Pyramid | Prism | PinchedPrism | Cube | CliqueKt | Wheel
    roles: dict = field(compare=False)

    def verify(self, g):
        return _VERIFIERS[self.kind](g, self.roles)


# -- definition checks on explicit roles -----------------------------------

def _is_induced_path(g, path):
    k = len(path)
    if len(set(path)) != k or k < 1:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(path[i], path[j]) != (j - i == 1):
                return False
    return True


def _verify_theta(g, roles):
    a, b, paths = roles["a"], roles["b"], roles["paths"]
    if g.has_edge(a, b) or len(paths) != 3:
        return False
    interiors = []
    for p in paths:
        if p[0] != a or p[-1] != b or len(p) < 3:  # length >= 2
            return False
        if not _is_induced_path(g, p):
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
        if not _is_induced_path(g, p):
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
        if not _is_induced_path(g, p):
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
    if len(hole) < 6 or center in hole or not is_hole(g, hole):
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


def _verify_wheel(g, roles):
    try:
        w = Wheel(tuple(roles["hole"]), roles["hub"])
    except (KeyError, TypeError):
        return False
    return is_valid_wheel(g, w)


_VERIFIERS = {
    "Theta": _verify_theta,
    "Pyramid": _verify_pyramid,
    "Prism": _verify_prism,
    "PinchedPrism": _verify_pinched_prism,
    "Cube": _verify_cube,
    "CliqueKt": _verify_clique,
    "Wheel": _verify_wheel,
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


def find_cube(g, cap=None):
    # an 8-vertex pattern; polynomial enumeration, no cap needed, but we
    # honor an explicit one for symmetry with the other detectors.
    if cap is not None:
        _check_cap(g, cap)
    for hole in enumerate_holes(g, max_len=6, min_len=6, cap=g.n):
        hset = set(hole)
        for cls in (0, 1):
            want1 = {hole[cls], hole[cls + 2], hole[(cls + 4) % 6]}
            want2 = hset - want1
            cand1 = [v for v in g.vertices() if v not in hset
                     and g.adj[v] & hset == want1]
            cand2 = [v for v in g.vertices() if v not in hset
                     and g.adj[v] & hset == want2]
            for b1 in cand1:
                for b2 in cand2:
                    if b1 != b2 and not g.has_edge(b1, b2):
                        ring = (hole[cls:] + hole[:cls]) if cls else hole
                        return Certificate("Cube",
                                           {"ring": list(ring),
                                            "b1": b1, "b2": b2})
    return None


# -- cliques ---------------------------------------------------------------

def clique_number(g):
    """Exact maximum clique size, by branch and bound along the reverse
    degeneracy order."""
    from .graph import degeneracy_order
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


# -- wheels and hubs ---------------------------------------------------------

@dataclass(frozen=True)
class Wheel:
    """A hole of length >= 5 together with a hub seeing >= 3 of its
    vertices across >= 2 long sectors."""
    hole: tuple
    hub: int


def sectors(g, wheel):
    """Sector paths of the wheel in clockwise (hole tuple) order.

    Each sector is the vertex list of a hole path between consecutive hub
    neighbors, both ends inclusive.
    """
    hole, v = wheel.hole, wheel.hub
    k = len(hole)
    nbr_pos = [i for i in range(k) if g.has_edge(v, hole[i])]
    if len(nbr_pos) < 2:
        raise ValueError("not a wheel: hub has fewer than two hole-neighbors")
    out = []
    for idx, p in enumerate(nbr_pos):
        q = nbr_pos[(idx + 1) % len(nbr_pos)]
        seg = []
        i = p
        while True:
            seg.append(hole[i])
            if i == q and seg != [hole[q]]:
                break
            i = (i + 1) % k
            if i == p:  # full loop (only when len(nbr_pos) == 1)
                break
        out.append(seg)
    return out


def long_sectors(g, wheel):
    return [s for s in sectors(g, wheel) if len(s) > 2]


def is_valid_wheel(g, wheel):
    hole, v = wheel.hole, wheel.hub
    if len(hole) < 5 or v in hole or not is_hole(g, hole):
        return False
    nbrs = sum(1 for x in hole if g.has_edge(v, x))
    return nbrs >= 3 and len(long_sectors(g, wheel)) >= 2


def wheels_at(g, v, hole_cap=None):
    """All wheels with hub v, in canonical hole order."""
    for hole in enumerate_holes(g, min_len=5, cap=hole_cap):
        if v in hole:
            continue
        w = Wheel(hole, v)
        if is_valid_wheel(g, w):
            yield w


def hubs(g, hole_cap=None, budget=None, partial=False):
    """The set of hub vertices: each is the center of at least one wheel.

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


def optimal_wheel(g, v, hole_cap=None):
    """A wheel at v minimizing the hub's hole-neighbor count; ties broken
    by lexicographically least canonical hole. None if v is not a hub."""
    best = None
    best_key = None
    for w in wheels_at(g, v, hole_cap=hole_cap):
        key = (len(g.adj[v] & set(w.hole)), w.hole)
        if best_key is None or key < best_key:
            best, best_key = w, key
    return best


def is_stranded(g, wheel):
    """If the wheel is stranded, return its contour (a_1..a_k, b); else None.

    Stranded: the hub's hole-neighbors are one consecutive run a_1..a_k
    (k >= 2) plus a single further vertex b, with long sectors on both
    sides of b.
    """
    hole, v = wheel.hole, wheel.hub
    L = len(hole)
    pos = [i for i in range(L) if g.has_edge(v, hole[i])]
    s = len(pos)
    if s < 3:
        raise ValueError("malformed wheel")
    gaps = [(pos[(i + 1) % s] - pos[i]) % L for i in range(s)]
    big = [i for i, d in enumerate(gaps) if d >= 2]
    if len(big) != 2:
        return None
    i, j = big
    # the two long gaps must flank a single neighbor position (= b)
    if (i + 1) % s == j:
        b_idx = j
    elif (j + 1) % s == i:
        b_idx = i
    else:
        return None
    b = pos[b_idx]
    run = [pos[(b_idx + 1 + r) % s] for r in range(s - 1)]
    return tuple(hole[p] for p in run) + (hole[b],)


def is_local_vertex(g, wheel, x):
    """x (outside N[hub] and the hole) is local iff its hole-neighbors all
    sit inside a single sector."""
    hole, v = wheel.hole, wheel.hub
    if x in hole or x == v or g.has_edge(x, v):
        raise ValueError("x must avoid the hole and the hub's closed "
                         "neighborhood")
    nbrs = g.adj[x] & set(hole)
    return any(nbrs <= set(s) for s in sectors(g, wheel))


def is_local_component(g, wheel, component):
    """A component D of G minus N[hub] is local iff N_W[D] sits inside a
    single sector (D may itself meet the hole)."""
    comp = set(component)
    touched = g.closed_neighborhood(comp) & set(wheel.hole)
    return any(touched <= set(s) for s in sectors(g, wheel))


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


def in_class_Cstar(g, caps=None):
    """Is g cube-free and (theta, pyramid, generalized prism)-free?"""
    for finder in (find_cube, find_theta, find_pyramid, find_prism,
                   find_pinched_prism):
        cert = finder(g, cap=caps)
        if cert is not None:
            return False, cert
    return True, None


# -- minimal connected connectors (three-attachment classification) ---------

def minimal_connected_connector(g, x1, x2, x3):
    """An inclusion-minimal connected set H touching all of x1, x2, x3,
    classified into one of the three shapes such sets always take:

      ("i",  {"path": P, "pair": (xi, xj), "third": xk})  -- H plus two of
            the x's forms a path (or a hole when xi xj is an edge);
      ("ii", {"center": a, "legs": [P1, P2, P3]})          -- a spider;
      ("iii", {"triangle": (a1,a2,a3), "legs": [...]})     -- a triangle
            with three disjoint paths out.
    """
    xs = (x1, x2, x3)
    if len(set(xs)) != 3:
        raise ValueError("attachment vertices must be distinct")
    comp = None
    for c in g.components(removed=xs):
        if all(g.adj[x] & c for x in xs):
            comp = set(c)
            break
    if comp is None:
        raise ValueError("no component sees all three vertices")

    h = comp
    changed = True
    while changed:
        changed = False
        for v in sorted(h):
            cand = h - {v}
            if not cand:
                continue
            sub, ids = g.induced(cand)
            if not sub.is_connected():
                continue
            if all(g.adj[x] & cand for x in xs):
                h = cand
                changed = True
                break

    outcome = _classify_connector(g, h, xs)
    return frozenset(h), outcome


def _classify_connector(g, h, xs):
    sub, ids = g.induced(h)
    degs = {v: len(g.adj[v] & h) for v in h}

    # (i): H is a path whose ends attach to two of the x's
    if all(d <= 2 for d in sub_degrees(sub)) and sub.is_connected() and \
            not _has_cycle(sub):
        hpath = _path_order(g, h)
        if hpath is not None:
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    xi, xj, xk = xs[i], xs[j], xs[3 - i - j]
                    full = [xi] + hpath + [xj]
                    # with the end edge present the cycle must be a hole,
                    # i.e. have length at least four
                    if g.has_edge(xi, xj) and len(full) < 4:
                        continue
                    if _is_path_with_ends(g, full, allow_end_edge=True):
                        nk = g.adj[xk] & h
                        nonadj_pair = any(not g.has_edge(u, v)
                                          for u in nk for v in nk if u < v)
                        two_adjacent = (len(nk) == 2 and
                                        g.has_edge(*sorted(nk)))
                        if nonadj_pair or two_adjacent:
                            return ("i", {"path": full, "pair": (xi, xj),
                                          "third": xk})

    # (ii): a spider centered at some a in H
    for a in sorted(h):
        legs = _spider_legs(g, h, a, xs)
        if legs is not None:
            return ("ii", {"center": a, "legs": legs})

    # (iii): a triangle with three paths out
    for tri in _triangles(g):
        if not set(tri) <= h:
            continue
        for perm in permutations(range(3)):
            legs = _triangle_legs(g, h, [tri[p] for p in perm], xs)
            if legs is not None:
                return ("iii", {"triangle": tuple(tri[p] for p in perm),
                                "legs": legs})
    raise AssertionError("minimal connector did not match any outcome")


def sub_degrees(sub):
    return [sub.degree(v) for v in sub.vertices()]


def _has_cycle(sub):
    return sub.m >= sub.n and sub.n > 0


def _path_order(g, h):
    """Order the vertices of a path-shaped set; None if not a path."""
    hs = set(h)
    if len(hs) == 1:
        return sorted(hs)
    ends = [v for v in hs if len(g.adj[v] & hs) == 1]
    if len(ends) != 2:
        return None
    order = [min(ends)]
    prev = None
    while True:
        nxt = (g.adj[order[-1]] & hs) - ({prev} if prev is not None else set())
        nxt -= set(order)
        if not nxt:
            break
        prev = order[-1]
        order.append(min(nxt))
    return order if len(order) == len(hs) else None


def _is_path_with_ends(g, seq, allow_end_edge=False):
    k = len(seq)
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(seq[i], seq[j])
            if i == 0 and j == k - 1 and allow_end_edge:
                continue  # a hole containing the edge xi xj is allowed
            if adjacent != (j - i == 1):
                return False
    return True


def _spider_legs(g, h, a, xs):
    rest = set(h) - {a}
    if rest:
        sub, ids = g.induced(rest)
        comps = [{ids[v] for v in c} for c in sub.components()]
    else:
        comps = []
    legs = {}
    used_x = set()
    for c in comps:
        ordered = _path_order(g, c)
        if ordered is None:
            return None
        if not g.adj[a] & c:
            return None
        attach_x = [x for x in xs if g.adj[x] & c]
        if len(attach_x) != 1:
            return None
        x = attach_x[0]
        leg = [a] + ordered if g.has_edge(a, ordered[0]) else \
            [a] + ordered[::-1]
        if not _is_path_with_ends(g, leg + [x]):
            return None
        legs[x] = leg + [x]
        used_x.add(x)
    for x in xs:
        if x not in used_x:
            if not g.has_edge(a, x):
                return None
            legs[x] = [a, x]
    if len(legs) != 3:
        return None
    # leg interiors pairwise anticomplete (except shared a and xi xj edges)
    for i in range(3):
        for j in range(i + 1, 3):
            li = set(legs[xs[i]]) - {a, xs[i]}
            lj = set(legs[xs[j]]) - {a, xs[j]}
            if li & lj or not g.is_anticomplete_between(li, lj):
                return None
    return [legs[x] for x in xs]


def _triangle_legs(g, h, tri, xs):
    rest = set(h) - set(tri)
    legs = []
    for a, x in zip(tri, xs):
        if g.has_edge(a, x):
            legs.append([a, x])
        else:
            legs.append(None)
    if rest:
        sub, ids = g.induced(rest)
        comps = [{ids[v] for v in c} for c in sub.components()]
    else:
        comps = []
    for c in comps:
        ordered = _path_order(g, c)
        if ordered is None:
            return None
        attach_a = [i for i, a in enumerate(tri) if g.adj[a] & c]
        attach_x = [x for x in xs if g.adj[x] & c]
        if len(attach_a) != 1 or len(attach_x) != 1:
            return None
        i = attach_a[0]
        x = attach_x[0]
        if x != xs[i] or legs[i] is not None:
            return None
        leg = [tri[i]] + (ordered if g.has_edge(tri[i], ordered[0])
                          else ordered[::-1]) + [x]
        if not _is_path_with_ends(g, leg):
            return None
        legs[i] = leg
    if any(l is None for l in legs):
        return None
    for i in range(3):
        for j in range(i + 1, 3):
            si = set(legs[i]) - {xs[i]}
            sj = set(legs[j]) - {xs[j]}
            if si & sj:
                return None
            cross = {frozenset((u, v)) for u in si for v in sj
                     if g.has_edge(u, v)}
            if cross != {frozenset((tri[i], tri[j]))}:
                return None
    return legs


# -- cube partitions ---------------------------------------------------------

_CUBE_ADJ = {
    0: {1, 5, 6}, 1: {0, 2, 7}, 2: {1, 3, 6}, 3: {2, 4, 7},
    4: {3, 5, 6}, 5: {4, 0, 7}, 6: {0, 2, 4}, 7: {1, 3, 5},
}


def find_cube_partition(g):
    """A partition (V1, V2) of V(g) where V1 is a clique blow-up of the
    cube and V2 is a clique complete to V1, or None.

    Seeded from each induced cube; every other vertex is assigned by its
    adjacency fingerprint against the seed, then the partition is verified
    exactly.
    """
    for seed in _all_cubes(g):
        assignment = _assign_by_fingerprint(g, seed)
        if assignment is not None:
            classes, v2 = assignment
            if _verify_cube_partition(g, classes, v2):
                return classes, frozenset(v2)
    return None


def _all_cubes(g):
    for hole in enumerate_holes(g, max_len=6, min_len=6, cap=g.n):
        hset = set(hole)
        for cls in (0, 1):
            ring = hole[cls:] + hole[:cls]
            want1 = {ring[0], ring[2], ring[4]}
            want2 = hset - want1
            for b1 in g.vertices():
                if b1 in hset or g.adj[b1] & hset != want1:
                    continue
                for b2 in g.vertices():
                    if b2 in hset or b2 == b1 or g.has_edge(b1, b2):
                        continue
                    if g.adj[b2] & hset == want2:
                        yield list(ring) + [b1, b2]


def _assign_by_fingerprint(g, seed):
    classes = {i: {seed[i]} for i in range(8)}
    v2 = set()
    seed_set = set(seed)
    for w in g.vertices():
        if w in seed_set:
            continue
        nbrs = g.adj[w] & seed_set
        if nbrs == seed_set:
            v2.add(w)
            continue
        placed = False
        for i in range(8):
            want = {seed[j] for j in _CUBE_ADJ[i]} | {seed[i]}
            if nbrs == want:
                classes[i].add(w)
                placed = True
                break
        if not placed:
            return None
    return classes, v2


def _verify_cube_partition(g, classes, v2):
    for i in range(8):
        if not g.is_clique(classes[i]):
            return False
        for j in range(i + 1, 8):
            if j in _CUBE_ADJ[i]:
                if not g.is_complete_between(classes[i], classes[j]):
                    return False
            elif not g.is_anticomplete_between(classes[i], classes[j]):
                return False
    if not g.is_clique(v2):
        return False
    v1 = set().union(*classes.values())
    return not v2 or g.is_complete_between(v1, v2)
