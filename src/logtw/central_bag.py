"""Canonical star separations, the A-side partial order, cores and central
bags, the hub-contraction graph, and the two tree-decomposition extension
constructions (from a neighborhood decomposition, and from a central-bag
decomposition)."""

from dataclasses import dataclass
from itertools import chain

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


def are_star_twins(g, u, v, stars):
    """Unbalanced u, v are star twins when their separations (stars maps
    each vertex to its star separation) agree up to swapping the
    centers."""
    su, sv = stars[u], stars[v]
    return su.b == sv.b and su.c - {u} == sv.c - {v}


def leq_A(g, x, y, stars):
    """The A-side partial order on a stable set of unbalanced vertices;
    star twins are tie-broken by vertex id."""
    if x == y:
        return True
    if are_star_twins(g, x, y, stars):
        return x < y
    return y in stars[x].a


def core(g, s, stars):
    """The leq_A-minimal elements of the stable set s; stars maps each
    vertex of s to its star separation."""
    s = sorted(s)
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


def _extend(base, image, parts, every=frozenset()):
    """A decomposition of g in g's ids, written once: first base's bags,
    each the union of every and of image[x], a set of g ids, over its
    vertices x (base ids), then each part's.  A part is
    (anchor, absorbed, td, ids): td's bags map through ids to g ids, each
    joins absorbed, and td hangs off the first base bag holding anchor,
    looked up in base's own ids, before any image is joined."""
    bags = [every.union(chain.from_iterable(map(image.__getitem__, bag0)))
            for bag0 in base.bags]
    edges = list(base.edges)
    for anchor, absorbed, td, ids in parts:
        hook = next(u for u, bag0 in enumerate(base.bags) if anchor in bag0)
        offset = len(bags)
        bags.extend(absorbed.union(map(ids.__getitem__, bag))
                    for bag in td.bags)
        edges.extend((a + offset, b + offset) for a, b in td.edges)
        edges.append((hook, offset))
    return TreeDecomposition(bags, edges)


def extend_neighborhood(g, cg, t0, parts):
    """Tree decomposition of g from one of the contraction graph (t0, in
    h ids) and one of each contracted component (parts, in cg.parts order:
    the (td, ids) pairs Graph.induced gives, td in the component's ids).

    A node over the contraction graph keeps its non-contracted vertices
    and picks up v, v's hub neighbors, and the attachment set N(D) of
    every contracted vertex D it holds; a node over component D keeps its
    bag plus N(D) and v's hub neighbors. N(D) is computed once per
    component. Each component tree hangs off a node of t0 whose bag holds
    its contracted vertex.
    """
    attach = [frozenset(g.open_neighborhood(d)) for d in cg.parts]
    return _extend(t0, [{x} for x in cg.kept] + attach,
                   [(len(cg.kept) + j, nd | cg.hub_nbrs, td, ids)
                    for j, (nd, (td, ids)) in enumerate(zip(attach, parts))],
                   cg.hub_nbrs | {cg.v})


def extend_tree(central, t_beta, beta_ids, parts):
    """Tree decomposition of a graph g from one of its central bag beta
    and one of each component of g minus beta: central is the
    (beta, core_set, stars) triple that central_bag returned for g, t_beta
    is in g[beta]'s ids, which beta_ids maps to g's, and parts lists each
    component's (td, ids) pair from Graph.induced, td in its own ids.

    Central-bag nodes absorb C(v) for every core vertex v they hold; the
    tree over component D absorbs C(r(D)) where r(D) is the smallest-id
    core vertex whose A-side contains D, and hangs off a central-bag node
    holding r(D).  A component inside no core vertex's A-side is a fault
    of the central bag and raises BuildCheckFailed.
    """
    _, core_set, stars = central
    hung = []
    for td, ids in parts:
        roots = [v for v in sorted(core_set) if stars[v].a.issuperset(ids)]
        if not roots:
            raise BuildCheckFailed("component not inside any core A-side")
        r = roots[0]
        hung.append((beta_ids.index(r), stars[r].c, td, ids))
    return _extend(t_beta, [stars[x].c if x in core_set else {x}
                            for x in beta_ids], hung)
