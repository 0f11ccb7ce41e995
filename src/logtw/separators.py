"""Clique-cutset atoms, minimal chordal completions, clique trees, bag
structuring into potential maximal cliques, and the Ramsey table used by
the width bounds."""

import heapq
from math import comb

from . import treedec

# exact small Ramsey numbers R(s, t) = R(t, s); beyond the table we fall
# back to the binomial upper bound, which keeps every width inequality sound
_RAMSEY_EXACT = {
    (3, 3): 6, (3, 4): 9, (4, 3): 9, (4, 4): 18, (5, 3): 14, (5, 4): 25,
    (3, 5): 14, (4, 5): 25,
}


def ramsey(t, s):
    """R(t, s), exact from the table for small arguments, else the
    binomial upper bound C(t+s-2, t-1)."""
    if t < 1 or s < 1:
        raise ValueError("Ramsey arguments must be positive")
    if t == 1 or s == 1:
        return 1
    if t == 2:
        return s
    if s == 2:
        return t
    if (t, s) in _RAMSEY_EXACT:
        return _RAMSEY_EXACT[(t, s)]
    return comb(t + s - 2, t - 1)


# -- clique cutsets ----------------------------------------------------------

def minimal_triangulation(g):
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


def _madj(adj, order):
    """madj(x) for every x: the neighbours of x (under adj) that come
    after x in the elimination order."""
    pos = {v: i for i, v in enumerate(order)}
    return {v: frozenset(w for w in adj[v] if pos[w] > pos[v])
            for v in order}


def find_clique_cutset(g):
    """A clique whose removal disconnects g, with the component list, or
    None when g is disconnected or has no clique cutset: the first glue
    clique of clique_cutset_atoms."""
    if g.n == 0 or not g.is_connected():
        return None
    _, glue = clique_cutset_atoms(g)
    if not glue:
        return None
    clique = glue[0][2]
    return clique, g.components(removed=clique)


def clique_cutset_atoms(g):
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
    fill, order = minimal_triangulation(g)
    madj = _madj(g.with_edges(tuple(sorted(e)) for e in fill).adj, order)
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


# -- chordality, fills, clique trees ------------------------------------------

def perfect_elimination_order(g):
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
    if not all(g.is_clique(s) for s in _madj(g.adj, order).values()):
        return None
    return order


def clique_tree(g):
    """A tree decomposition of a chordal graph whose bags are exactly its
    maximal cliques, read off a maximum cardinality search (Blair and
    Peyton 1993).

    Walking the search, a vertex v with |madj(v)| no larger than its
    predecessor's starts a new bag madj(v) + {v}, hung off the bag of the
    most recently searched vertex of madj(v); any other vertex joins the
    current bag. A bag with empty madj starts a new component and hangs
    off bag 0.
    """
    order = perfect_elimination_order(g)
    if order is None:
        raise ValueError("clique_tree requires a chordal graph")
    if not order:
        return treedec.TreeDecomposition([frozenset()], [])
    pos = {v: i for i, v in enumerate(order)}
    madj = _madj(g.adj, order)
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
    return treedec.TreeDecomposition(bags, edges)


def make_structured(g, t):
    """Rebuild a valid tree decomposition so that every bag is a potential
    maximal clique, without increasing the width.

    Completes each bag into a clique, which gives a chordal completion,
    shrinks that fill to an inclusion-minimal one and returns the clique
    tree of the result. Fill edges are scanned in sorted order, sweep
    after sweep until none goes. A fill edge uv goes when the common
    neighbourhood of u and v in the current completion is a clique: then
    uv lies in exactly one maximal clique, which is exactly when the
    completion minus uv stays chordal (Rose, Tarjan and Lueker 1976).
    """
    report = treedec.validate(g, t)
    if report is not None:
        raise ValueError(f"invalid input decomposition: {report}")
    adj = [set(nb) for nb in g.adj]
    fill = set()
    for bag in t.bags:
        for u in bag:
            for v in bag:
                if u < v and v not in adj[u]:
                    fill.add((u, v))
    for u, v in fill:
        adj[u].add(v)
        adj[v].add(u)
    changed = True
    while changed:
        changed = False
        for u, v in sorted(fill):
            common = adj[u] & adj[v]
            if all(common <= adj[w] | {w} for w in common):
                adj[u].discard(v)
                adj[v].discard(u)
                fill.discard((u, v))
                changed = True
    return clique_tree(g.with_edges(fill))
