"""Clique-cutset atoms, minimal chordal completions, clique trees, bag
structuring into potential maximal cliques, and the Ramsey table used by
the width bounds.

Both maximum cardinality searches (MCS for elimination orders, MCS-M for
minimal completions) run on a union of components of the graph, in the
graph's own ids, and record as they go which vertices bumped which.  That
record is each vertex's neighbourhood later in the order, in the graph the
search completes, so the clique-cutset atoms and the clique trees read
their separators straight off it: no completed graph is built, and no
component is induced or relabelled."""

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

def _max_cardinality_search(g, vertices, bump):
    """Maximum cardinality search over vertices, a union of components of
    g, in g's ids: number the heaviest unnumbered vertex, smallest id on
    ties, then add one to the weight of each vertex that
    bump(v, weight, remaining, top) returns, where top is the largest
    weight left among unnumbered vertices.  The next vertex comes off a
    lazy max-heap of (-weight, id) entries, one pushed per increment;
    stale entries are dropped as they surface.

    Returns (order, madj): order is the numbering reversed, an
    elimination order, and madj[u] is the set of vertices whose numbering
    bumped u.  Those are u's neighbours after it in the order, in the
    graph that joins every vertex to the vertices it bumps: g itself when
    bump returns unnumbered neighbours, its completion under MCS-M."""
    weight = dict.fromkeys(vertices, 0)
    madj = {v: set() for v in weight}
    remaining = set(weight)
    heap = [(0, v) for v in sorted(weight)]  # sorted, so already a heap
    order = []

    def top():
        while heap and (heap[0][1] not in remaining
                        or -heap[0][0] != weight[heap[0][1]]):
            heapq.heappop(heap)
        return -heap[0][0] if heap else 0

    while remaining:
        top()
        v = heapq.heappop(heap)[1]
        remaining.discard(v)
        order.append(v)
        for u in bump(v, weight, remaining, top()):
            weight[u] += 1
            madj[u].add(v)
            heapq.heappush(heap, (-weight[u], u))
    order.reverse()  # eliminate in this order
    return order, madj


def minimal_triangulation(g, vertices):
    """An inclusion-minimal chordal completion of g on vertices, a union
    of its components, by maximum cardinality search with fill tracking
    (MCS-M).  Returns (order, madj): order is a perfect elimination order
    of the completion and madj[x] the neighbours of x after it there, so
    the fill is every pair {x, y}, y in madj[x], that is not an edge of
    g."""

    def bump(v, weight, remaining, top):
        # u joins S(v) when some path v..u runs through unnumbered
        # vertices all lighter than u; minimax search over path weights.
        # No weight left exceeds top and a path's maximum never falls, so
        # a path whose maximum reaches top reaches nothing: prune it
        dist = {w: -1 for w in g.adj[v] & remaining}
        heap = [(-1, w) for w in dist]
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            nd = max(d, weight[u])
            if d > dist[u] or nd >= top:
                continue
            for z in g.adj[u] & remaining:
                if nd < dist.get(z, top):
                    dist[z] = nd
                    heapq.heappush(heap, (nd, z))
        return [u for u, d in dist.items() if d < weight[u]]

    return _max_cardinality_search(g, vertices, bump)


def find_clique_cutset(g):
    """A clique whose removal disconnects g, with the component list, or
    None when g is disconnected or has no clique cutset: the first glue
    clique of clique_cutset_atoms."""
    if g.n == 0 or not g.is_connected():
        return None
    _, glue = clique_cutset_atoms(g, g.vertices())
    if not glue:
        return None
    clique = glue[0][2]
    return clique, g.components(removed=clique)


def clique_cutset_atoms(g, component):
    """Clique minimal separator decomposition of one component of g, in
    g's ids, read off one MCS-M elimination order (Berry, Pogorelcnik and
    Simonet 2010).

    Returns (atoms, glue_tree): atoms are vertex sets with no clique
    cutset; glue_tree is a list of (i, j, clique) entries meaning atoms i
    and j were split along that clique. Gluing the atoms back along the
    recorded cliques reproduces g[component].

    x generates the minimal separator madj(x) of the completion when
    |madj(x)| <= |madj(next vertex)|, the MCS-M weight test. Walking the
    order, each generator whose separator S is a clique of g cuts off the
    component of what is left that holds x, together with S, as an atom.
    """
    order, madj = minimal_triangulation(g, component)
    removed = set()
    atoms = []
    cuts = []
    for x, y in zip(order, order[1:]):
        s = madj[x]
        if len(s) <= len(madj[y]) and g.is_clique(s):
            # the component of g - removed - s that holds x
            comp = {x}
            stack = [x]
            while stack:
                for w in g.adj[stack.pop()]:
                    if w not in comp and w not in removed and w not in s:
                        comp.add(w)
                        stack.append(w)
            atoms.append(frozenset(comp | s))
            cuts.append(frozenset(s))
            removed |= comp
    atoms.append(frozenset(component) - removed)
    # atom i hangs off the first later atom that holds its separator
    glue = [(i, next(j for j in range(i + 1, len(atoms)) if s <= atoms[j]),
             s) for i, s in enumerate(cuts)]
    return atoms, glue


# -- chordality, fills, clique trees ------------------------------------------

def perfect_elimination_order(g):
    """(order, madj) from a maximum cardinality search of g, or None if
    g is not chordal: order is then a PEO, and madj[x] the neighbours of
    x after it in order."""
    order, madj = _max_cardinality_search(
        g, g.vertices(),
        lambda v, weight, remaining, top: g.adj[v] & remaining)
    if not all(g.is_clique(s) for s in madj.values()):
        return None
    return order, madj


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
    peo = perfect_elimination_order(g)
    if peo is None:
        raise ValueError("clique_tree requires a chordal graph")
    order, madj = peo
    if not order:
        return treedec.TreeDecomposition([frozenset()], [])
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
