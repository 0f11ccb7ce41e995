"""Canonical star separations, the A-side partial order, cores and central
bags, the hub-contraction graph, and the two tree-decomposition extension
constructions (from a neighborhood decomposition, and from a central-bag
decomposition)."""

from dataclasses import dataclass

from .graph import BuildCheckFailed, Graph
from .treedec import TreeDecomposition
from .hub_partition import big_component


@dataclass(frozen=True)
class StarSeparation:
    """(A, C, B) around an unbalanced vertex v: B is the unique big
    component of g minus N[v], C = {v} plus N(B), A is the rest."""
    v: int
    a: frozenset
    c: frozenset
    b: frozenset


def star_separation(g, v):
    b = big_component(g, v)
    if b is None:
        raise ValueError(f"vertex {v} is balanced; no star separation")
    c = frozenset({v} | g.open_neighborhood(b))
    a = frozenset(g.vertices()) - b - c
    return StarSeparation(v, a, c, frozenset(b))


def local_closure(g, v, component):
    """The vertex set D union N(D) union {v} (the piece of g that a
    component of g minus N[v] sees, closed back up to v)."""
    d = set(component)
    return frozenset(d | g.open_neighborhood(d) | {v})


def are_star_twins(g, u, v, stars=None):
    """Unbalanced u, v are star twins when their separations agree up to
    swapping the centers."""
    su = stars[u] if stars else star_separation(g, u)
    sv = stars[v] if stars else star_separation(g, v)
    return su.b == sv.b and su.c - {u} == sv.c - {v}


def leq_A(g, x, y, stars):
    """The A-side partial order on a stable set of unbalanced vertices;
    star twins are tie-broken by vertex id."""
    if x == y:
        return True
    if are_star_twins(g, x, y, stars):
        return x < y
    return y in stars[x].a


def core(g, s, stars=None):
    """The leq_A-minimal elements of the stable set s."""
    s = sorted(s)
    if stars is None:
        stars = {v: star_separation(g, v) for v in s}
    return frozenset(x for x in s
                     if not any(leq_A(g, y, x, stars)
                                for y in s if y != x))


def central_bag(g, s):
    """(beta, core_set, stars): beta is the intersection of B(v) union
    C(v) over the core; for an empty set it is all of V(g). stars maps
    each vertex of s to its canonical star separation."""
    s = sorted(s)
    stars = {v: star_separation(g, v) for v in s}
    core_set = core(g, s, stars)
    beta = set(g.vertices())
    for v in sorted(core_set):
        beta &= stars[v].b | stars[v].c
    return frozenset(beta), core_set, stars


# -- the contraction graph ---------------------------------------------------

@dataclass(frozen=True)
class ContractionGraph:
    """g with the closed hub-neighborhood of v removed and each component
    of g minus N[v] contracted to a single vertex.

    h's vertices 0..len(kept)-1 are the non-hub neighbors of v (g ids in
    `kept`); the remaining vertices are the contracted components, listed
    in `parts`.
    """
    h: Graph
    v: int
    hub_nbrs: frozenset  # N(v) in the hub set, g ids
    kept: tuple          # h id -> g id for the non-contracted part
    parts: tuple         # component vertex sets, g ids; part j has h id
                         # len(kept) + j

    def d_vertices(self):
        return range(len(self.kept), self.h.n)

    def part_of(self, h_id):
        return self.parts[h_id - len(self.kept)]

    def to_g(self, h_id):
        return self.kept[h_id]


def build_contraction(g, v, hub):
    """The contraction graph for v with the given hub set."""
    hub = frozenset(hub)
    kept = tuple(sorted(g.adj[v] - hub))
    pos = {x: i for i, x in enumerate(kept)}
    parts = tuple(g.components(removed=g.closed_neighborhood({v})))
    edges = [(pos[x], pos[y]) for x in kept for y in g.adj[x]
             if y in pos and x < y]
    for j, d in enumerate(parts):
        dj = len(kept) + j
        for x in sorted(g.open_neighborhood(d) - hub):
            edges.append((pos[x], dj))
    h = Graph(len(kept) + len(parts), edges)
    return ContractionGraph(h, v, frozenset(g.adj[v] & hub), kept, parts)


def extend_neighborhood(g, cg, t0, part_tds):
    """Tree decomposition of g from one of the contraction graph (t0, in
    h ids) and one of each contracted component (part_tds, in g ids).

    A node over the contraction graph keeps its non-contracted vertices
    and picks up v, v's hub neighbors, and the attachment set of every
    contracted vertex it holds; a node over component j keeps its bag
    plus that component's attachment set and v's hub neighbors. Each
    component tree hangs off a node of t0 whose bag holds its contracted
    vertex.
    """
    v, hub_nbrs = cg.v, cg.hub_nbrs
    n_kept = len(cg.kept)
    bags = []
    for u, bag0 in enumerate(t0.bags):
        bag = {cg.to_g(x) for x in bag0 if x < n_kept}
        bag |= hub_nbrs | {v}
        for x in bag0:
            if x >= n_kept:
                # attachments avoid the hub set: N(D) lies in N(v), whose
                # hub part is exactly hub_nbrs
                bag |= g.open_neighborhood(cg.part_of(x)) - hub_nbrs
        bags.append(frozenset(bag))
    edges = list(t0.edges)
    for j, td in enumerate(part_tds):
        dj = n_kept + j
        anchor = next(u for u, bag0 in enumerate(t0.bags) if dj in bag0)
        offset = len(bags)
        attach = frozenset(g.open_neighborhood(cg.parts[j])) | hub_nbrs
        for bag in td.bags:
            bags.append(frozenset(bag) | attach)
        edges.extend((a + offset, b + offset) for a, b in td.edges)
        edges.append((anchor, offset))
    return TreeDecomposition(bags, edges)


def extend_tree(g, central, t_beta, part_tds):
    """Tree decomposition of g from one of the central bag beta (bags in
    g ids) and one of each component of g minus beta (in g ids), where
    central is the (beta, core_set, stars) triple that central_bag
    returned for g.

    Central-bag nodes absorb C(v) for every core vertex v they hold; the
    tree over component D absorbs C(r(D)) where r(D) is the smallest-id
    core vertex whose A-side contains D, and hangs off a central-bag node
    holding r(D).
    """
    beta, core_set, stars = central
    comps = g.components(removed=beta)
    if len(comps) != len(part_tds):
        raise BuildCheckFailed(f"{len(part_tds)} component decompositions "
                               f"for {len(comps)} components")

    bags = []
    for bag0 in t_beta.bags:
        bag = set(bag0)
        for v in sorted(core_set & bag0):
            bag |= stars[v].c
        bags.append(frozenset(bag))
    edges = list(t_beta.edges)
    for d, td in zip(comps, part_tds):
        roots = [v for v in sorted(core_set) if d <= stars[v].a]
        if not roots:
            raise ValueError("component not inside any core A-side")
        r = roots[0]
        anchor = next(u for u, bag0 in enumerate(t_beta.bags)
                      if r in bag0)
        offset = len(bags)
        for bag in td.bags:
            bags.append(frozenset(bag) | stars[r].c)
        edges.extend((a + offset, b + offset) for a, b in td.edges)
        edges.append((anchor, offset))
    return TreeDecomposition(bags, edges)
