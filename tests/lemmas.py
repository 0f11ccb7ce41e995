"""Checks of the lemmas behind the construction's proof, kept beside the
tests that exercise them: wheels and their sectors, stranded wheels and
local vertices and components, the restricted class C*, minimal connected
connectors, cube partitions, minimal separators, potential maximal
cliques, component closures and the low-degree half; the theta,
pyramid and prism checks as first written, property by property, a
reference for detect's definition checks; the pinched-prism search over
holes, its centre-and-hole check and the maximum-clique search as first
written, references for detect's three-path and direct K_t searches;
the recursive induced-path search, a reference for the leg walk; a
brute-force block test; the clique-cutset split, elimination and
degeneracy orders and the exact-treewidth DP as first written,
references for the heap-selected and unbucketed versions; the
elimination bags and the Blair-Peyton clique-tree walk, references for
the reduced elimination tree; a graph with edges added, for chordal
completions; the table DP with its solvers as first written, counting
each vertex at introduce, a reference for the forget-time counting; and
the `.gr` and `.td` readers as first written, references for the
readers that split each line once.  The builder needs none of them; the
tests import this module the way they import conftest.
"""

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations

from logtw import detect
from logtw.formats import FormatError
from logtw.graph import (BuildCheckFailed, Graph, SizeCapExceeded,
                         adjacency_masks, degeneracy_order, enumerate_holes,
                         is_induced_path, strict_degeneracy)
from logtw.separators import perfect_elimination_order
from logtw.treedec import TreeDecomposition, _require_valid

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


# -- pinched prisms and cliques as first found ------------------------------
#
# The pinched-prism search over every hole of length >= 6, its check of a
# centre and a hole, and the maximum-clique search: references for
# detect's three-path pinched-prism finder, its prism-with-a-shared-vertex
# check and its direct K_t search.

def reference_find_pinched_prism(g):
    for hole, _ in enumerate_holes(g, min_len=6):
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
                return detect.Certificate("PinchedPrism",
                                          {"center": c, "hole": list(hole)})
    return None


def reference_verify_pinched_prism(g, roles):
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


def reference_verify_pinched_prism_legs(g, roles):
    """The centre-and-hole check on a pinched prism given as a prism: the
    one-vertex leg is the centre, both triangles are cliques holding it at
    its index, and the two other legs, running from triangle_a to
    triangle_b over at least two vertices, close into the hole."""
    tri_a, tri_b, paths = roles["triangle_a"], roles["triangle_b"], \
        roles["paths"]
    if not len(tri_a) == len(tri_b) == len(paths) == 3:
        return False
    centre = [i for i, p in enumerate(paths) if len(p) == 1]
    if len(centre) != 1 or not (g.is_clique(tri_a) and g.is_clique(tri_b)):
        return False
    i = centre[0]
    c = paths[i][0]
    if tri_a[i] != c or tri_b[i] != c:
        return False
    legs = [j for j in range(3) if j != i]
    if any(len(paths[j]) < 2 or paths[j][0] != tri_a[j] or
           paths[j][-1] != tri_b[j] for j in legs):
        return False
    hole = list(paths[legs[0]]) + list(paths[legs[1]])[::-1]
    return reference_verify_pinched_prism(g, {"center": c, "hole": hole})


def reference_clique_number(g):
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


REFERENCE_VERIFIERS = {
    "Theta": reference_verify_theta,
    "Pyramid": reference_verify_pyramid,
    "Prism": reference_verify_prism,
    "PinchedPrism": reference_verify_pinched_prism_legs,
}


# -- the leg search as first written -----------------------------------------
#
# One Python frame per path vertex, and the branches past a vertex that
# sees b are walked although none of them yields: a reference for
# detect's leg walk on an explicit stack.

def _reference_induced_paths(g, a, b, banned):
    """Yield induced a-b paths whose interior avoids `banned`.

    Interior vertices are free to be adjacent to a or b only as the path's
    own edges dictate (induced).
    """
    adj = g.adj

    def extend(path, path_set, blocked):
        last = path[-1]
        for w in sorted(adj[last]):
            if w == b:
                if len(path) == 1 or b not in blocked:
                    yield path + [b]
                continue
            if w in banned or w in path_set or w in blocked:
                continue
            path.append(w)
            path_set.add(w)
            yield from extend(path, path_set, blocked | (adj[last] - {w}))
            path.pop()
            path_set.remove(w)

    yield from extend([a], {a}, set())


def reference_leg_paths(g, a, b, banned):
    if a == b:
        yield [a]
    elif g.has_edge(a, b):
        yield [a, b]
    else:
        yield from _reference_induced_paths(g, a, b, banned)


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


def wheels_at(g, v):
    """All wheels with hub v, in canonical hole order."""
    for hole, _ in enumerate_holes(g, min_len=5):
        if v in hole:
            continue
        w = Wheel(hole, v)
        if is_valid_wheel(g, w):
            yield w


def optimal_wheel(g, v):
    """A wheel at v minimizing the hub's hole-neighbor count; ties broken
    by lexicographically least canonical hole. None if v is not a hub."""
    return min(wheels_at(g, v), default=None,
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


def in_class_Cstar(g):
    """Is g cube-free and (theta, pyramid, generalized prism)-free?"""
    for finder in (detect.find_cube, detect.find_theta, detect.find_pyramid,
                   detect.find_prism, detect.find_pinched_prism):
        cert = finder(g)
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


def with_edges(g, extra):
    """g with the edges in extra added."""
    return Graph(g.n, list(g.edges()) + list(extra))


def is_chordal(g):
    return perfect_elimination_order(g.adj) is not None


def reference_validate(g, t):
    """treedec.validate as first written, from a vertex -> holding bags
    index: None if t is a valid tree decomposition of g, else the first
    violated condition with a witness, in the same words.  Once the bag
    graph is known to be a tree, the bags holding v induce a subforest,
    whose component count is its node count minus its edge count; so
    they are connected exactly when (bags holding v) - (tree edges with v
    in both end bags) equals 1."""
    n_nodes = len(t.bags)
    if n_nodes == 0:
        return "no bags"
    if len(t.edges) != n_nodes - 1:
        return f"not a tree: {n_nodes} bags, {len(t.edges)} edges"
    adj = [[] for _ in range(n_nodes)]
    for a, b in t.edges:
        if a < 0 or b >= n_nodes:
            return f"tree edge out of range: {a},{b}"
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n_nodes:
        return "not a tree: disconnected"
    holding = [set() for _ in range(g.n)]
    for i, b in enumerate(t.bags):
        if b and (min(b) < 0 or max(b) >= g.n):
            return f"bag contains non-vertices: {sorted(b)}"
        for v in b:
            holding[v].add(i)
    for v in g.vertices():
        if not holding[v]:
            return f"vertex {v} in no bag"
    for u, v in g.edges():
        if holding[u].isdisjoint(holding[v]):
            return f"edge {u},{v} in no bag"
    inner = [0] * g.n
    for a, b in t.edges:
        for v in t.bags[a] & t.bags[b]:
            inner[v] += 1
    for v in g.vertices():
        if len(holding[v]) - inner[v] != 1:
            return f"bags containing vertex {v} are not connected in the tree"
    return None


def nested_tree_edges(t):
    """The tree edges of t that join a bag to one inside it."""
    return [(a, b) for a, b in t.edges
            if t.bags[a] <= t.bags[b] or t.bags[b] <= t.bags[a]]


def reference_elimination_bags(g, order):
    """The bag {v} | N(v) of each v in order, N(v) its neighbours left in
    the graph completed on the neighbourhoods eliminated before it."""
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    bags = []
    for v in order:
        bags.append(frozenset(adj[v] | {v}))
        for a in adj[v]:
            adj[a] |= adj[v] - {a}
            adj[a].discard(v)
    return bags


def reference_clique_tree(g):
    """A tree decomposition of a chordal graph whose bags are exactly its
    maximal cliques, read off a maximum cardinality search by the walk
    first written (Blair and Peyton 1993), a reference for the reduced
    elimination tree that make_structured builds.

    Walking the search, a vertex v with |madj(v)| no larger than its
    predecessor's starts a new bag madj(v) + {v}, hung off the bag of the
    most recently searched vertex of madj(v); any other vertex joins the
    current bag. A bag with empty madj starts a new component and hangs
    off bag 0.
    """
    order, madj = perfect_elimination_order(g.adj)
    if not order:
        return TreeDecomposition([frozenset()], [])
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    edges = []
    bag_of = {}
    prev = 0
    for v in reversed(order):
        s = madj[v]
        if len(s) <= prev:
            if bags:
                edges.append((bag_of[min(s, key=pos.get)] if s else 0,
                              len(bags)))
            bags.append(set(s))
        bags[-1].add(v)
        bag_of[v] = len(bags) - 1
        prev = len(s)
    return TreeDecomposition(bags, edges)


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


# -- the split and elimination orders as first written ------------------------
#
# References for separators' heap-selected searches and the madj they
# record, the builder's in-place split, treedec's heap-selected min-fill,
# its exact-treewidth DP walking masks in numeric order and graph's
# heap-selected degeneracy order, which must give the same output: each
# rescans every unnumbered vertex per step or every component per
# generator, recomputes madj over the completed graph, induces and
# relabels every component it splits, or buckets the DP's masks by size.

def reference_madj(adj, order):
    """madj(x) for every x: the neighbours of x (under adj) that come
    after x in the elimination order."""
    pos = {v: i for i, v in enumerate(order)}
    return {v: frozenset(w for w in adj[v] if pos[w] > pos[v])
            for v in order}


def is_block(g, b):
    """b is a block of g of at least three vertices, by brute force: g[b]
    is connected and no one vertex disconnects it, and every component of
    g minus b has at most one neighbour in b, so no path outside b joins
    two of its vertices and no larger vertex set is 2-connected."""
    sub, _ = g.induced(b)
    return (len(b) >= 3 and sub.is_connected()
            and all(len(sub.components(removed={x})) == 1
                    for x in sub.vertices())
            and all(len(g.open_neighborhood(c) & b) <= 1
                    for c in g.components(removed=b)))


def reference_split(g):
    """The clique-cutset split of g: one (atoms, glue) per component of g,
    in g.components() order, atoms and glue cliques in g's ids.  A
    component of at most two vertices is its own single atom; every other
    is induced and cut by clique_cutset_atoms once."""
    out = []
    for c in g.components():
        if len(c) <= 2:
            out.append(([c], []))
            continue
        comp, ids = g.induced(c)
        atoms, glue = reference_clique_cutset_atoms(comp)
        out.append(([frozenset(ids[x] for x in a) for a in atoms],
                    [(i, j, frozenset(ids[x] for x in s))
                     for i, j, s in glue]))
    return out


def reference_minimal_triangulation(g):
    """An inclusion-minimal chordal fill via maximum cardinality search
    with fill tracking (MCS-M). Returns (fill, order) where g plus fill
    is chordal with minimal fill and order is a perfect elimination
    order of the completion."""
    weight = {v: 0 for v in g.vertices()}
    remaining = set(g.vertices())
    order = []
    fill = set()
    while remaining:
        # heaviest unnumbered vertex, smallest id on ties
        v = max(remaining, key=lambda u: (weight[u], -u))
        remaining.discard(v)
        # u joins S(v) when some path v..u runs through unnumbered
        # vertices all lighter than u; minimax search over path weights
        dist = {}
        heap = []
        for w in sorted(g.adj[v] & remaining):
            dist[w] = -1
            heapq.heappush(heap, (-1, w))
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            for z in sorted(g.adj[u] & remaining):
                nd = max(d, weight[u])
                if nd < dist.get(z, float("inf")):
                    dist[z] = nd
                    heapq.heappush(heap, (nd, z))
        reached = {u for u, d in dist.items() if d < weight[u]}
        for u in reached:
            weight[u] += 1
            if not g.has_edge(u, v):
                fill.add(frozenset((u, v)))
        order.append(v)
    order.reverse()  # eliminate in this order
    return fill, order


def reference_clique_cutset_atoms(g):
    """Clique minimal separator decomposition of a connected graph, read
    off one MCS-M elimination order (Berry, Pogorelcnik and Simonet 2010).

    Returns (atoms, glue_tree): atoms are vertex sets with no clique
    cutset; glue_tree is a list of (i, j, clique) entries meaning atoms i
    and j were split along that clique. Gluing the atoms back along the
    recorded cliques reproduces g.

    x generates the minimal separator madj(x) of the completion when
    |madj(x)| <= |madj(next vertex)|, the MCS-M weight test. Walking the
    order, each generator whose separator S is a clique of g cuts off the
    component of what is left that holds x, together with S, as an atom.
    """
    if not g.is_connected():
        raise ValueError("clique-cutset decomposition expects a connected "
                         "graph; decompose components separately")
    fill, order = reference_minimal_triangulation(g)
    madj = reference_madj(
        with_edges(g, (tuple(sorted(e)) for e in fill)).adj, order)
    removed = set()
    atoms = []
    cuts = []
    for x, y in zip(order, order[1:]):
        s = madj[x]
        if len(s) <= len(madj[y]) and g.is_clique(s):
            comp = next(c for c in g.components(removed=removed | s)
                        if x in c)
            atoms.append(comp | s)
            cuts.append(s)
            removed |= comp
    atoms.append(frozenset(g.vertices()) - removed)
    # atom i hangs off the first later atom that holds its separator
    glue = [(i, next(j for j in range(i + 1, len(atoms)) if s <= atoms[j]),
             s) for i, s in enumerate(cuts)]
    return atoms, glue


def reference_perfect_elimination_order(g):
    """A PEO via maximum cardinality search, or None if g is not chordal."""
    weight = {v: 0 for v in g.vertices()}
    order = []
    remaining = set(g.vertices())
    while remaining:
        v = max(remaining, key=lambda u: (weight[u], -u))
        order.append(v)
        remaining.discard(v)
        for w in g.adj[v] & remaining:
            weight[w] += 1
    order.reverse()  # eliminate in this order
    if not all(g.is_clique(s)
               for s in reference_madj(g.adj, order).values()):
        return None
    return order


def reference_min_fill_order(g):
    """The minimum-fill-in elimination order, smallest id on ties, as
    greedy_fill_decomposition first took it."""
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    remaining = set(g.vertices())
    order = []

    def fill_needed(v):
        # each missing edge ab is counted once from a and once from b;
        # nbrs - adj[a] also holds a itself
        nbrs = adj[v] & remaining
        return sum(len(nbrs - adj[a]) - 1 for a in nbrs) // 2

    while remaining:
        v = min(remaining, key=lambda x: (fill_needed(x), x))
        order.append(v)
        nbrs = adj[v] & remaining
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        remaining.discard(v)
    return order


def reference_degeneracy_order(g):
    """(order, d) of degeneracy_order as first written: a minimum-degree
    vertex, smallest id on ties, taken by a scan of every live vertex."""
    deg = {v: g.degree(v) for v in g.vertices()}
    alive = set(g.vertices())
    order = []
    d = 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        d = max(d, deg[v])
        order.append(v)
        alive.remove(v)
        for w in g.adj[v]:
            if w in alive:
                deg[w] -= 1
    return order, d


def reference_optimal_order(g):
    """(treewidth, optimal elimination order) of a nonempty graph, as
    _optimal_order first walked the masks: in buckets by size.

    Dynamic program over subsets of eliminated vertices (as bitmasks): the
    cost of eliminating v after the set S is the number of vertices
    outside S reachable from v through S, which is order-independent.
    """
    n = g.n
    nbr_mask = adjacency_masks(g)

    def cost(mask, v):
        # vertices outside mask reachable from v via mask
        seen = 1 << v
        frontier = 1 << v
        out = 0
        while frontier:
            reach = 0
            f = frontier
            while f:
                u = (f & -f).bit_length() - 1
                f &= f - 1
                reach |= nbr_mask[u]
            reach &= ~seen
            seen |= reach
            out |= reach & ~mask
            frontier = reach & mask
        return bin(out).count("1")

    full = (1 << n) - 1
    dp = {0: 0}
    choice = {}
    masks_by_size = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        masks_by_size[bin(mask).count("1")].append(mask)
    for size in range(n):
        for mask in masks_by_size[size]:
            if mask not in dp:
                continue
            base = dp[mask]
            rest = full & ~mask
            f = rest
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                val = max(base, cost(mask, v))
                nxt = mask | (1 << v)
                if nxt not in dp or val < dp[nxt]:
                    dp[nxt] = val
                    choice[nxt] = v
    tw = dp[full]
    order = []
    mask = full
    while mask:
        v = choice[mask]
        order.append(v)
        mask &= ~(1 << v)
    order.reverse()
    return tw, order


# -- the DP as first written --------------------------------------------------
#
# A reference for treedec's forget-time counting, which must give the same
# values and witnesses: here each vertex is counted when it is introduced,
# and every solver undoes the double count at joins through its own
# join_key and merge.

_JOIN = object()  # tags a witness node that joins two witness chains


def reference_dp(g, t, k, introduce, keep, join_key, merge):
    """Run one table DP over t, rooted at bag 0; returns the (value,
    witness) of the empty state at the root, or None if no state survives.

    A state is one int holding a k-bit field per vertex of the current
    bag, fields in ascending vertex-id order: the vertex of rank r (the
    r-th smallest id in the bag) owns bits r*k .. r*k+k-1. A table maps
    a state to (value, witness). Along each tree edge the child-only
    vertices are forgotten, largest id first, then the parent-only
    vertices are introduced, smallest id first; a leaf introduces its bag
    from the empty state 0, the arms of a bag's children are joined left
    to right in t.edges order, and the root bag is forgotten at the end.

    Forgetting v drops its field and shifts the higher fields down, after
    keep(field) says whether the state survives (keep None keeps every
    state). Introducing v opens a zero field at v's rank, at bit offset f,
    and introduce(state, f, nb, v) gives (state', gain, item) candidates;
    nb has bit 0 of the field of each bag neighbour of v, so that
    state & nb << c tests bit c of v's neighbours. At a join, the states
    of both sides with equal join_key(state) pair up, and
    merge(left, right) gives (state', gain). A candidate replaces a table
    entry only when its value is strictly larger, so the first of
    equal-valued candidates is kept.

    A witness is a back-pointer chain: None, (item, previous) for an
    introduce with an item, or (_JOIN, left, right) at a join. Only the
    root's chain is walked, iteratively, into the frozenset of its items.
    The caller has validated t.
    """
    adj = [[] for _ in t.bags]
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)
    order = [0]
    children = [[] for _ in t.bags]
    seen = {0}
    for i in order:
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                children[i].append(j)
                order.append(j)
    ones = (1 << k) - 1

    def move(tab, bag, target):
        ranks = sorted(bag)  # the vertices of tab's fields, in field order
        for v in sorted(bag - target, reverse=True):
            r = bisect_left(ranks, v)
            del ranks[r]
            f = r * k
            low = (1 << f) - 1
            out = {}
            for s, entry in tab.items():
                if keep is None or keep(s >> f & ones):
                    s2 = s & low | s >> f + k << f
                    if s2 not in out or entry[0] > out[s2][0]:
                        out[s2] = entry
            tab = out
        for v in sorted(target - bag):
            r = bisect_left(ranks, v)
            ranks.insert(r, v)
            f = r * k
            low = (1 << f) - 1
            nbrs = g.adj[v]
            nb = sum(1 << i * k for i, w in enumerate(ranks) if w in nbrs)
            out = {}
            for s, (val, wit) in tab.items():
                for s2, gain, item in introduce(s & low | s >> f << f + k,
                                                f, nb, v):
                    old = out.get(s2)
                    if old is None or val + gain > old[0]:
                        out[s2] = (val + gain,
                                   wit if item is None else (item, wit))
            tab = out
        return tab

    def join(left, right):
        buckets = {}
        for s, entry in right.items():
            buckets.setdefault(join_key(s), []).append((s, entry))
        out = {}
        for ls, (lv, lw) in left.items():
            for rs, (rv, rw) in buckets.get(join_key(ls), ()):
                s, gain = merge(ls, rs)
                old = out.get(s)
                if old is None or lv + rv + gain > old[0]:
                    out[s] = (lv + rv + gain, (_JOIN, lw, rw))
        return out

    tables = {}
    for i in reversed(order):
        bag = t.bags[i]
        tab = None
        for j in children[i]:
            arm = move(tables.pop(j), t.bags[j], bag)
            tab = arm if tab is None else join(tab, arm)
        if tab is None:
            tab = move({0: (0, None)}, frozenset(), bag)
        tables[i] = tab
    root = move(tables[0], t.bags[0], frozenset()).get(0)
    if root is None:
        return None
    items = set()
    stack = [root[1]]
    while stack:
        wit = stack.pop()
        while wit is not None:
            if wit[0] is _JOIN:
                stack.append(wit[2])
            else:
                items.add(wit[0])
            wit = wit[1]
    return root[0], frozenset(items)


def reference_stable_set(g, t):
    """(maximum stable set size, witness set).

    State: one bit per bag vertex, set when it is in the stable set.
    """
    _require_valid(g, t)

    def introduce(s, f, nb, v):
        if s & nb:
            return ((s, 0, None),)
        return (s, 0, None), (s | 1 << f, 1, v)

    val, wit = reference_dp(g, t, 1, introduce, None, lambda s: s,
                            lambda ls, rs: (ls, -ls.bit_count()))
    if not (g.is_stable(wit) and len(wit) == val):
        raise BuildCheckFailed(f"stable-set witness {sorted(wit)} is not a "
                               f"stable set of size {val}")
    return val, wit


def reference_dominating_set(g, t):
    """(minimum dominating set size, witness set).

    State: two bits per bag vertex, bit 0 set when it is in the set
    (taken), bit 1 when it is not taken but has a taken neighbour
    (dominated); a vertex with neither still waits, and is dropped when
    forgotten. Values are negated sizes.
    """
    _require_valid(g, t)
    taken = sum(1 << 2 * i for i in range(t.width + 1))  # every bit 0

    def introduce(s, f, nb, v):
        return ((s | 1 << f | (nb & ~s) << 1, -1, v),
                (s | 2 << f if s & nb else s, 0, None))

    val, wit = reference_dp(g, t, 2, introduce, bool, lambda s: s & taken,
                            lambda ls, rs: (ls | rs, (ls & taken).bit_count()))
    if len(g.closed_neighborhood(wit)) != g.n or len(wit) != -val:
        raise BuildCheckFailed(f"dominating-set witness {sorted(wit)} does "
                               f"not dominate g with {-val} vertices")
    return -val, wit


def reference_q_coloring(g, t, q):
    """(colorable, witness coloring dict or None) with q colors, on a
    decomposition t already validated."""
    def introduce(s, f, nb, v):
        return [(s | 1 << f + c, 0, (v, c)) for c in range(q)
                if not s & nb << c]

    root = reference_dp(g, t, q, introduce, None, lambda s: s,
                        lambda ls, rs: (ls, 0))
    if root is None:
        return False, None
    wit = dict(root[1])
    if len(wit) != g.n or any(wit[u] == wit[v] for u, v in g.edges()):
        raise BuildCheckFailed(f"{q}-coloring witness is not a proper "
                               "coloring of g")
    return True, wit


# -- the .gr and .td readers as first written ---------------------------------

def _reference_lines(fh, key, fmt, size, before):
    """formats._lines as first written: it strips each line and yields
    (line number, fields, stripped line) after the header's counts."""
    counts = None
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != key:
            if counts is None:
                raise FormatError(
                    f"line {lineno}: {before(parts)} before header")
            yield lineno, parts, line
        elif counts is not None:
            raise FormatError(f"line {lineno}: duplicate header")
        elif len(parts) != size + 2 or parts[1] != fmt:
            raise FormatError(f"line {lineno}: bad header {line!r}")
        else:
            counts = _reference_ints(parts[2:], lineno)
            if min(counts) < 0:
                raise FormatError(f"line {lineno}: negative count in {line!r}")
            yield counts
    if counts is None:
        raise FormatError(f"missing `{key} {fmt}` header")


def _reference_ints(parts, lineno):
    try:
        return list(map(int, parts))
    except ValueError as e:
        raise FormatError(f"line {lineno}: expected integers") from e


def reference_read_graph(fh):
    """formats.read_graph as first written, with the same messages."""
    lines = _reference_lines(fh, "p", "tw", 2, lambda parts: "edge")
    n, m = next(lines)
    edges = []
    where = []
    for lineno, parts, line in lines:
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: bad edge {line!r}")
        u, v = _reference_ints(parts, lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"line {lineno}: vertex out of range")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        edges.append((u - 1, v - 1))
        where.append(lineno)
    if len(edges) != m:
        raise FormatError(f"header says {m} edges, found {len(edges)}")
    g = Graph(n, edges)
    if g.m != m:
        seen = set()
        for (u, v), lineno in zip(edges, where):
            if frozenset((u, v)) in seen:
                raise FormatError(
                    f"line {lineno}: repeated edge {u + 1} {v + 1}")
            seen.add(frozenset((u, v)))
    return g


def reference_read_td(fh):
    """formats.read_td as first written: bag ids and tree-edge ends are
    checked against 1..N after the last line, with the messages `bag ids
    must be exactly 1..N` and `tree edge out of range`, which name no
    line; every other message is the same."""
    lines = _reference_lines(
        fh, "s", "td", 3,
        lambda parts: "bag" if parts[0] == "b" else "tree edge")
    count, width_plus_1, n = next(lines)
    bags = {}
    edges = []
    for lineno, parts, line in lines:
        if parts[0] == "b":
            if len(parts) < 2:
                raise FormatError(f"line {lineno}: bag without an id")
            i, *verts = _reference_ints(parts[1:], lineno)
            if i in bags:
                raise FormatError(f"line {lineno}: duplicate bag {i}")
            if verts and not 1 <= min(verts) <= max(verts) <= n:
                raise FormatError(f"line {lineno}: vertex out of range")
            bags[i] = frozenset(v - 1 for v in verts)
        else:
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: bad tree edge {line!r}")
            a, b = _reference_ints(parts, lineno)
            edges.append((a - 1, b - 1))
    if sorted(bags) != list(range(1, count + 1)):
        raise FormatError("bag ids must be exactly 1..N")
    ordered = [bags[i] for i in range(1, count + 1)]
    if any(not (0 <= a < count and 0 <= b < count) for a, b in edges):
        raise FormatError("tree edge out of range")
    td = TreeDecomposition(ordered, edges)
    if td.width + 1 != width_plus_1:
        raise FormatError(
            f"header says width {width_plus_1 - 1}, bags give {td.width}")
    return td, n
