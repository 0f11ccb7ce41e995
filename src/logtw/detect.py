"""Exact, certificate-producing recognition of the forbidden structures
(theta, pyramid, prism, pinched prism, cube, large cliques), the class
membership test built on it, and the hub search.

Every detector is an exhaustive search with pruning, and the first
structure it finds ends it.  A caller bounds its cost through check_cap,
once per graph, before any finder runs, with the cap it is given; the
class membership test too takes its cap from its caller.  The hub search
owns both of its limits: it checks the hole cap it is given against g
and counts the holes it examines against HUB_BUDGET.  Every positive
answer carries a certificate whose verify() re-checks the full
definition against the host graph.  A pinched prism is a prism whose two
triangles share a vertex: that vertex is its third leg, a path of length
zero.  So the theta, pyramid, prism and pinched-prism finders differ only
in which ends they try: each is three induced paths between two ends (a
vertex or a triangle), found by the one search `_three_paths`, whose
legs come from a depth-first walk on an explicit stack, so no recursion
limit bounds a leg's length.  Their verifiers check the definition
itself, three legs between the given ends any two of which close into a
hole, a one-vertex leg in a pinched prism only, and share no code with
that search.
"""

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .graph import (BuildCheckFailed, SizeCapExceeded, degeneracy_order,
                    enumerate_holes, is_induced_path)

HUB_BUDGET = 5000  # holes examined per hub search; it fails loudly past it


def check_cap(g, cap):
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

    def check(self, g):
        """The certificate itself, or BuildCheckFailed unless verify(g)
        holds; a detector's answer is reported only after this check."""
        if not self.verify(g):
            raise BuildCheckFailed(f"{self.kind} certificate fails its "
                                   f"check: {dict(sorted(self.roles.items()))}")
        return self


# -- definition checks on explicit roles -----------------------------------

def _legs(paths, starts, ends, pinched=0):
    """There are exactly three paths, path i running from starts[i] to
    ends[i], and exactly `pinched` of them are a single vertex (one that
    a prism's triangles share)."""
    return len(paths) == len(starts) == len(ends) == 3 and all(
        p and p[0] == s and p[-1] == e
        for p, s, e in zip(paths, starts, ends)) and \
        sum(len(p) == 1 for p in paths) == pinched


def _closes_holes(g, paths, back):
    """Any two of the paths close into a hole: p followed by back(q), the
    reversal of q less the ends p already holds, dropped by position."""
    return all(is_induced_path(g, list(p) + back(q), cycle=True)
               for p, q in combinations(paths, 2))


def _verify_theta(g, roles):
    a, b, paths = roles["a"], roles["b"], roles["paths"]
    return _legs(paths, [a] * 3, [b] * 3) and \
        _closes_holes(g, paths, lambda q: q[-2:0:-1])


def _verify_pyramid(g, roles):
    a, base, paths = roles["apex"], roles["base"], roles["paths"]
    return _legs(paths, [a] * 3, base) and \
        _closes_holes(g, paths, lambda q: q[:0:-1])


def _verify_prism(g, roles):
    paths = roles["paths"]
    return _legs(paths, roles["triangle_a"], roles["triangle_b"]) and \
        _closes_holes(g, paths, lambda q: q[::-1])


def _verify_pinched_prism(g, roles):
    paths = roles["paths"]
    return _legs(paths, roles["triangle_a"], roles["triangle_b"],
                 pinched=1) and \
        _closes_holes(g, paths, lambda q: q[::-1])


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


# -- three-path-configurations ---------------------------------------------

def _leg_paths(g, a, b, banned):
    """Yield the induced a-b paths whose interior avoids `banned`, depth
    first, each vertex's neighbours tried in ascending id; [a] if a == b.

    The untried paths wait on an explicit stack, each as its last vertex,
    its depth and the vertices its successors may not take: banned, a and
    the neighbours of the path before it.  A path whose last vertex sees b
    ends there, since every longer path through it has a chord to b; so
    when a sees b, [a, b] is the only path.
    """
    if a == b:
        yield [a]
        return
    adj = g.adj
    path = []
    stack = [(a, 0, banned | {a})]
    while stack:
        v, depth, taken = stack.pop()
        del path[depth:]
        path.append(v)
        if b in adj[v]:
            yield path + [b]
            continue
        below = taken | adj[v]
        stack += [(w, depth + 1, below)
                  for w in sorted(adj[v] - taken, reverse=True)]


def _three_paths(g, legs):
    """Three induced paths, one per (start, end) leg, with disjoint
    interiors and no edge between two of them except among the ends, or
    None: the legs of a theta, pyramid, prism or pinched prism.

    An end shared by all three legs (a theta's a and b, a pyramid's apex)
    may be seen by every leg; any other end only by its own leg, so a
    leg's interior avoids the ends, the neighbours of the other legs'
    unshared ends and the closed neighbourhoods of the earlier legs'
    interiors.  Legs 1 and 2 are enumerated in `_leg_paths` order, leg 3
    is the shortest path that fits beside them, and the first fit is
    returned.
    """
    ends = {x for leg in legs for x in leg}
    shared = set.intersection(*(set(leg) for leg in legs))
    ban = [ends | g.open_neighborhood(ends - shared - set(leg))
           for leg in legs]
    (a1, b1), (a2, b2), (a3, b3) = legs
    for p1 in _leg_paths(g, a1, b1, ban[0]):
        near1 = g.closed_neighborhood(p1[1:-1])
        for p2 in _leg_paths(g, a2, b2, ban[1] | near1):
            banned = ban[2] | near1 | g.closed_neighborhood(p2[1:-1])
            p3 = g.shortest_path(a3, b3, banned - {a3, b3})
            if p3 is not None:
                return [p1, p2, p3]
    return None


def find_theta(g):
    for a in g.vertices():
        if g.degree(a) < 3:
            continue
        for b in range(a + 1, g.n):
            if g.degree(b) < 3 or g.has_edge(a, b):
                continue
            paths = _three_paths(g, [(a, b)] * 3)
            if paths is not None:
                return Certificate("Theta", {"a": a, "b": b, "paths": paths})
    return None


def _edges_within(g, vs):
    """The edges of g[vs], each as (u, v) with u < v, in id order."""
    return [(u, v) for u in sorted(vs) for v in sorted(g.adj[u] & vs)
            if u < v]


def _triangles(g):
    for u, v in _edges_within(g, set(g.vertices())):
        for w in sorted(g.adj[u] & g.adj[v]):
            if w > v:
                yield (u, v, w)


def find_pyramid(g):
    for base in _triangles(g):
        for a in g.vertices():
            # a pyramid has at most one leg of length 1, so its apex sees
            # at most one corner
            if a in base or sum(g.has_edge(a, b) for b in base) > 1:
                continue
            # the corner reached by the shortest-path leg matters, so each
            # takes that place in turn
            for last in reversed(base):
                corners = [b for b in base if b != last] + [last]
                paths = _three_paths(g, [(a, b) for b in corners])
                if paths is not None:
                    return Certificate("Pyramid", {"apex": a, "base": corners,
                                                   "paths": paths})
    return None


def find_prism(g):
    tris = list(_triangles(g))
    for i, ta in enumerate(tris):
        # the edges between a prism's triangles are its one-edge legs, a
        # matching; a second triangle that meets ta, or whose edges to ta
        # are no matching, fits no permutation below
        sa = set(ta)
        sees = {x: g.adj[x] & sa for x in g.vertices() if x not in sa}
        once = {x for x, seen in sees.items() if len(seen) <= 1}
        for tb in tris[i + 1:]:
            if not once.issuperset(tb):
                continue
            seen = [a for x in tb for a in sees[x]]
            if len(set(seen)) < len(seen):
                continue
            for perm in permutations(tb):
                if any(g.has_edge(ta[x], perm[y])
                       for x in range(3) for y in range(3) if x != y):
                    continue
                paths = _three_paths(g, list(zip(ta, perm)))
                if paths is not None:
                    return Certificate("Prism", {"triangle_a": list(ta),
                                                 "triangle_b": list(perm),
                                                 "paths": paths})
    return None


def find_pinched_prism(g):
    for c in g.vertices():
        for p, q in _edges_within(g, g.adj[c]):
            # rs shares no vertex with pq and has no edge to it; each pair
            # of edges is tried once, the one with the smaller end first
            far = {x for x in g.adj[c] - g.adj[p] - g.adj[q] if x > p}
            for r, s in _edges_within(g, far):
                for end in ([c, r, s], [c, s, r]):
                    paths = _three_paths(g, list(zip([c, p, q], end)))
                    if paths is not None:
                        return Certificate("PinchedPrism", {
                            "triangle_a": [c, p, q], "triangle_b": end,
                            "paths": paths})
    return None


def cubes(g):
    """Every induced cube of g as a list ring + [b1, b2]: a 6-hole ring,
    b1 seeing ring[0], ring[2], ring[4] and b2 the other three, in hole
    enumeration order.  Both centres see three ring vertices, so b1 and b2
    are drawn, ids ascending, from the vertices the walk yields as seeing
    three of the hole."""
    for hole, three in enumerate_holes(g, max_len=6, min_len=6):
        hset = set(hole)
        centres = []
        while three:
            bit = three & -three
            three ^= bit
            b = bit.bit_length() - 1
            centres.append((b, g.adj[b] & hset))
        for cls in (0, 1):
            ring = list(hole[cls:] + hole[:cls])
            want1 = {ring[0], ring[2], ring[4]}
            want2 = hset - want1
            for b1, on1 in centres:
                if on1 != want1:
                    continue
                for b2, on2 in centres:
                    if on2 == want2 and not g.has_edge(b1, b2):
                        yield ring + [b1, b2]


def find_cube(g):
    for c in cubes(g):
        return Certificate("Cube", {"ring": c[:6], "b1": c[6], "b2": c[7]})
    return None


# -- cliques ---------------------------------------------------------------

def has_clique(g, t):
    """A K_t of g, or None: cliques grow along the degeneracy order, each
    vertex extended by its later neighbours, smallest id first, and the
    first one of t vertices is returned."""
    if t < 1:
        raise ValueError(f"the clique size t must be >= 1, got t = {t}")
    order, _ = degeneracy_order(g)
    pos = {v: i for i, v in enumerate(order)}

    def grow(clique, cands):
        if len(clique) == t:
            return clique
        for v in sorted(cands):
            if len(clique) + len(cands) < t:
                return None
            cands = cands - {v}
            found = grow(clique + [v], cands & g.adj[v])
            if found is not None:
                return found
        return None

    for v in order:
        found = grow([v], {w for w in g.adj[v] if pos[w] > pos[v]})
        if found is not None:
            return Certificate("CliqueKt", {"vertices": sorted(found)})
    return None


# -- hubs -----------------------------------------------------------------

def hubs(g, hole_cap):
    """The set of hub vertices: each is the center of at least one wheel,
    a hole of length >= 5 plus a vertex off it with >= 3 neighbours on
    it, at least two pairs of them cyclically consecutive yet apart on
    the hole (the wheel's long sectors).

    The search owns its two limits, and each raises SizeCapExceeded: g
    may have at most hole_cap vertices, checked before any hole is
    walked, and only the first HUB_BUDGET holes of length >= 5 in
    `enumerate_holes` order are examined.

    Each hole comes from the walk with the mask of the vertices that see
    at least three of its vertices, none of them on the hole; a candidate
    hub is one of those that is not a hub yet.  The mask cannot stand in
    for the sector test: a vertex that sees three consecutive hole
    vertices has one long sector and is no hub.  The holes are drawn
    through this module's `enumerate_holes` binding, where the
    benchmark's tracer counts them.
    """
    if g.n > hole_cap:
        raise SizeCapExceeded(
            f"hole enumeration capped at n <= {hole_cap}, got {g.n}")
    adj = g.adj
    found = 0
    holes = enumerate_holes(g, min_len=5)
    for count, (hole, three) in enumerate(holes):
        if count >= HUB_BUDGET:
            raise SizeCapExceeded(
                f"hub search budget of {HUB_BUDGET} holes exhausted")
        cands = three & ~found
        while cands:
            bit = cands & -cands
            cands ^= bit
            on = adj[bit.bit_length() - 1]
            # a wheel: >= 2 long sectors, i.e. >= 2 gaps of >= 2 between
            # cyclically consecutive neighbour positions on the hole
            pos = [i for i, x in enumerate(hole) if x in on]
            gaps = [b - a for a, b in zip(pos, pos[1:])]
            gaps.append(len(hole) - pos[-1] + pos[0])
            if sum(1 for d in gaps if d >= 2) >= 2:
                found |= bit
    return frozenset(v for v in range(g.n) if found >> v & 1)


# -- class membership --------------------------------------------------------

def _in_host(cert, ids):
    """cert with its roles mapped from a piece's ids to the host's, through
    the piece's new id -> old id list (from Graph.induced, or range(g.n)
    for the host itself)."""
    def host(x):
        return [host(y) for y in x] if isinstance(x, list) else ids[x]
    return Certificate(cert.kind, {k: host(v) for k, v in cert.roles.items()})


def in_class_Ct(g, t, caps, atoms=None):
    """Is g (theta, pyramid, generalized prism, K_t)-free?

    Returns (bool, certificate-of-first-violation-or-None).

    None of these structures has a clique cutset, so each lies inside one
    clique-cutset atom (Tarjan 1985), and g is in the class exactly when
    every atom is.  Given `atoms`, the (sub, ids) pairs that
    builder.class_atoms induces from g's split, each finder runs over the
    atoms in turn before the next finder starts, so the kind found is the
    one the whole-graph search finds; the certificate's roles are in g's
    ids.  Without atoms g is searched whole.  Every certificate is checked
    against g before it is returned, so a finder's answer that fails the
    definition raises BuildCheckFailed instead.  The size cap, at most
    caps vertices, applies to g either way, after the clique search.
    """
    pieces = [(g, range(g.n))] if atoms is None else atoms
    for sub, ids in pieces:
        cert = has_clique(sub, t)
        if cert is not None:
            return False, _in_host(cert, ids).check(g)
    check_cap(g, caps)
    for finder in (find_theta, find_pyramid, find_prism, find_pinched_prism):
        for sub, ids in pieces:
            cert = finder(sub)
            if cert is not None:
                return False, _in_host(cert, ids).check(g)
    return True, None
