"""Checks of the lemmas behind the construction's proof, kept beside the
tests that exercise them: wheels and their sectors, stranded wheels and
local vertices and components, the restricted class C*, minimal connected
connectors, cube partitions, minimal separators, potential maximal
cliques, component closures and the low-degree half; and the theta,
pyramid and prism checks as first written, property by property, a
reference for detect's definition checks.  The builder needs none of
them; the tests import this module the way they import conftest.
"""

from dataclasses import dataclass
from itertools import permutations

from logtw import detect
from logtw.graph import (SizeCapExceeded, enumerate_holes, is_induced_path,
                         strict_degeneracy)
from logtw.separators import perfect_elimination_order

SEPARATOR_ENUM_CAP = 20


def is_complete_between(g, x, y):
    xs, ys = set(x), set(y)
    if xs & ys:
        raise ValueError("sets must be disjoint")
    return all(ys <= g.adj[v] for v in xs)


def is_anticomplete_between(g, x, y):
    xs, ys = set(x), set(y)
    if xs & ys:
        raise ValueError("sets must be disjoint")
    return all(not (ys & g.adj[v]) for v in xs)


# -- theta, pyramid and prism checks, property by property -------------------
#
# A reference for detect's verifiers, which check the definition (any two
# legs close into a hole) instead: these restate it as induced legs,
# disjoint and anticomplete interiors, cross-edge sets and cliques.

def reference_verify_theta(g, roles):
    a, b, paths = roles["a"], roles["b"], roles["paths"]
    if g.has_edge(a, b) or len(paths) != 3:
        return False
    interiors = []
    for p in paths:
        if len(p) < 3 or p[0] != a or p[-1] != b:  # length >= 2
            return False
        if not is_induced_path(g, p):
            return False
        interiors.append(set(p[1:-1]))
    for i in range(3):
        for j in range(i + 1, 3):
            if interiors[i] & interiors[j]:
                return False
            if not is_anticomplete_between(g, interiors[i], interiors[j]):
                return False
    return True


def reference_verify_pyramid(g, roles):
    a, base, paths = roles["apex"], roles["base"], roles["paths"]
    if len(base) != 3 or len(paths) != 3 or not g.is_clique(base) or \
            a in base:
        return False
    if sum(1 for p in paths if len(p) == 2) > 1:
        return False
    sides = []
    for p, b in zip(paths, base):
        if len(p) < 2 or p[0] != a or p[-1] != b:
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


def reference_verify_prism(g, roles):
    tri_a, tri_b, paths = roles["triangle_a"], roles["triangle_b"], roles["paths"]
    if len(tri_a) != 3 or len(tri_b) != 3 or len(paths) != 3:
        return False
    if not (g.is_clique(tri_a) and g.is_clique(tri_b)):
        return False
    sides = []
    for p, ai, bi in zip(paths, tri_a, tri_b):
        if len(p) < 2 or p[0] != ai or p[-1] != bi:
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


REFERENCE_VERIFIERS = {
    "Theta": reference_verify_theta,
    "Pyramid": reference_verify_pyramid,
    "Prism": reference_verify_prism,
}


# -- wheels ------------------------------------------------------------------

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
    return [[hole[(p + d) % k] for d in range((q - p) % k + 1)]
            for p, q in zip(nbr_pos, nbr_pos[1:] + nbr_pos[:1])]


def long_sectors(g, wheel):
    return [s for s in sectors(g, wheel) if len(s) > 2]


def is_valid_wheel(g, wheel):
    hole, v = wheel.hole, wheel.hub
    if len(hole) < 5 or v in hole or not is_induced_path(g, hole, cycle=True):
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


def optimal_wheel(g, v, hole_cap=None):
    """A wheel at v minimizing the hub's hole-neighbor count; ties broken
    by lexicographically least canonical hole. None if v is not a hub."""
    return min(wheels_at(g, v, hole_cap=hole_cap), default=None,
               key=lambda w: (len(g.adj[v] & set(w.hole)), w.hole))


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


def in_class_Cstar(g, caps=None):
    """Is g cube-free and (theta, pyramid, generalized prism)-free?"""
    for finder in (detect.find_cube, detect.find_theta, detect.find_pyramid,
                   detect.find_prism, detect.find_pinched_prism):
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
    h = next((set(c) for c in g.components(removed=xs)
              if all(g.adj[x] & c for x in xs)), None)
    if h is None:
        raise ValueError("no component sees all three vertices")

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

    # (i): H is a path whose ends attach to two of the x's; h is never
    # empty, so a connected sub with fewer edges than vertices and no
    # degree above 2 is a path
    if all(sub.degree(v) <= 2 for v in sub.vertices()) and \
            sub.is_connected() and sub.m < sub.n:
        hpath = _path_order(g, h)
        for i, j in permutations(range(3), 2):
            xi, xj, xk = xs[i], xs[j], xs[3 - i - j]
            full = [xi] + hpath + [xj]
            # with the end edge present the cycle must be a hole, i.e.
            # have length at least four
            if g.has_edge(xi, xj) and len(full) < 4:
                continue
            if _is_path_with_ends(g, full, allow_end_edge=True):
                nk = g.adj[xk] & h
                nonadj_pair = any(not g.has_edge(u, v)
                                  for u in nk for v in nk if u < v)
                two_adjacent = len(nk) == 2 and g.has_edge(*sorted(nk))
                if nonadj_pair or two_adjacent:
                    return ("i", {"path": full, "pair": (xi, xj),
                                  "third": xk})

    # (ii): a spider centered at some a in H
    for a in sorted(h):
        legs = _spider_legs(g, h, a, xs)
        if legs is not None:
            return ("ii", {"center": a, "legs": legs})

    # (iii): a triangle with three paths out
    for tri in detect._triangles(g):
        if not set(tri) <= h:
            continue
        for perm in permutations(range(3)):
            legs = _triangle_legs(g, h, [tri[p] for p in perm], xs)
            if legs is not None:
                return ("iii", {"triangle": tuple(tri[p] for p in perm),
                                "legs": legs})
    raise AssertionError("minimal connector did not match any outcome")


def _path_order(g, h):
    """Order the vertices of a path-shaped set; None if not a path."""
    hs = set(h)
    if len(hs) == 1:
        return sorted(hs)
    ends = [v for v in hs if len(g.adj[v] & hs) == 1]
    if len(ends) != 2:
        return None
    order = [min(ends)]
    while True:
        nxt = (g.adj[order[-1]] & hs) - set(order)
        if not nxt:
            break
        order.append(min(nxt))
    return order if len(order) == len(hs) else None


def _is_path_with_ends(g, seq, allow_end_edge=False):
    """seq is an induced path, or with allow_end_edge also a hole closed
    by the edge between its ends."""
    return is_induced_path(g, seq) or (
        allow_end_edge and is_induced_path(g, seq, cycle=True))


def _spider_legs(g, h, a, xs):
    legs = {}
    for c in g.components(removed=set(g.vertices()) - (set(h) - {a})):
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
    for x in xs:
        if x not in legs:
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
            if li & lj or not is_anticomplete_between(g, li, lj):
                return None
    return [legs[x] for x in xs]


def _triangle_legs(g, h, tri, xs):
    legs = [[a, x] if g.has_edge(a, x) else None for a, x in zip(tri, xs)]
    for c in g.components(removed=set(g.vertices()) - (set(h) - set(tri))):
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
    for seed in detect.cubes(g):
        assignment = _assign_by_fingerprint(g, seed)
        if assignment is not None:
            classes, v2 = assignment
            if _verify_cube_partition(g, classes, v2):
                return classes, frozenset(v2)
    return None


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
        for i in range(8):
            if nbrs == {seed[j] for j in _CUBE_ADJ[i]} | {seed[i]}:
                classes[i].add(w)
                break
        else:
            return None
    return classes, v2


def _verify_cube_partition(g, classes, v2):
    for i in range(8):
        if not g.is_clique(classes[i]):
            return False
        for j in range(i + 1, 8):
            if j in _CUBE_ADJ[i]:
                if not is_complete_between(g, classes[i], classes[j]):
                    return False
            elif not is_anticomplete_between(g, classes[i], classes[j]):
                return False
    if not g.is_clique(v2):
        return False
    v1 = set().union(*classes.values())
    return not v2 or is_complete_between(g, v1, v2)


# -- minimal separators and potential maximal cliques ------------------------

def full_components(g, x):
    """Components D of g minus x with N(D) = x."""
    xs = frozenset(x)
    return [c for c in g.components(removed=xs)
            if g.open_neighborhood(c) == xs]


def is_minimal_separator(g, x):
    """x is a minimal separator iff at least two components of g minus x
    see all of x."""
    return len(full_components(g, x)) >= 2


def enumerate_minimal_separators(g, cap=SEPARATOR_ENUM_CAP):
    """Every minimal separator exactly once.

    Seeds with the component neighborhoods N(C) for C a component of
    g minus N[v], then closes under the substitution step: for X found and
    x in X, the neighborhoods of components of g minus (X union N(x)) are
    minimal separators too.
    """
    if g.n > cap:
        raise SizeCapExceeded(f"separator enumeration capped at n <= {cap}, "
                              f"got n = {g.n}")
    seen = set()
    queue = []
    if is_minimal_separator(g, frozenset()):  # g disconnected
        seen.add(frozenset())

    def visit(removed):
        for c in g.components(removed=removed):
            y = frozenset(g.open_neighborhood(c))
            if y and y not in seen and is_minimal_separator(g, y):
                seen.add(y)
                queue.append(y)

    for v in g.vertices():
        visit(g.closed_neighborhood({v}))
    while queue:
        x = queue.pop()
        for v in sorted(x):
            visit(set(x) | g.closed_neighborhood({v}))
    yield from sorted(seen, key=lambda s: (len(s), sorted(s)))


def is_pmc(g, omega):
    """Is omega a potential maximal clique?

    (1) every non-edge of omega is covered by a component of g minus
    omega, and (2) no component sees all of omega.
    """
    om = frozenset(omega)
    nbhds = [g.open_neighborhood(c) for c in g.components(removed=om)]
    if om and om in nbhds:
        return False
    return all(g.has_edge(u, v) or any(u in nb and v in nb for nb in nbhds)
               for u in om for v in om if u < v)


def is_chordal(g):
    return perfect_elimination_order(g) is not None


# -- component closures and the low-degree half ------------------------------

def local_closure(g, v, component):
    """The vertex set D union N(D) union {v} (the piece of g that a
    component of g minus N[v] sees, closed back up to v)."""
    d = set(component)
    return frozenset(d | g.open_neighborhood(d) | {v})


def low_degree_half(g):
    """Vertices of degree <= 4*delta; always at least half of them.

    delta is the strict degeneracy bound, so the average degree is below
    2*delta and fewer than half the vertices can exceed 4*delta.
    """
    delta = strict_degeneracy(g)
    return frozenset(v for v in g.vertices() if g.degree(v) <= 4 * delta)
