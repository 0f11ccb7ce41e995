"""Minimal separators, full components, clique cutsets, potential maximal
cliques, minimal chordal completions, clique trees, and the Ramsey table
used by the width bounds."""

import heapq
from math import comb

from .graph import Graph, SizeCapExceeded

SEPARATOR_ENUM_CAP = 20

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
    empty = frozenset()
    if is_minimal_separator(g, empty):  # g disconnected
        seen.add(empty)
    for v in g.vertices():
        closed = g.closed_neighborhood({v})
        for c in g.components(removed=closed):
            x = frozenset(g.open_neighborhood(c))
            if x and x not in seen and is_minimal_separator(g, x):
                seen.add(x)
                queue.append(x)
    while queue:
        x = queue.pop()
        for v in sorted(x):
            removed = set(x) | g.closed_neighborhood({v})
            for c in g.components(removed=removed):
                y = frozenset(g.open_neighborhood(c))
                if y and y not in seen and is_minimal_separator(g, y):
                    seen.add(y)
                    queue.append(y)
    yield from sorted(seen, key=lambda s: (len(s), sorted(s)))


# -- clique cutsets ----------------------------------------------------------

def minimal_triangulation(g):
    """An inclusion-minimal chordal fill via maximum cardinality search
    with fill tracking (MCS-M). Returns (fill, order) where g plus fill
    is chordal with minimal fill and order is a perfect elimination
    order of the completion."""
    weight = {v: 0 for v in g.vertices()}
    numbered = set()
    order = []
    fill = set()
    for _ in range(g.n):
        v = max(sorted(set(g.vertices()) - numbered), key=lambda u: weight[u])
        # u joins S(v) when some path v..u runs through unnumbered
        # vertices all lighter than u; minimax search over path weights
        dist = {}
        heap = []
        for w in sorted(g.adj[v] - numbered):
            dist[w] = -1
            heapq.heappush(heap, (-1, w))
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            for z in sorted(g.adj[u] - numbered - {v}):
                nd = max(d, weight[u])
                if nd < dist.get(z, float("inf")):
                    dist[z] = nd
                    heapq.heappush(heap, (nd, z))
        reached = {u for u, d in dist.items() if d < weight[u]}
        for u in reached:
            weight[u] += 1
            if not g.has_edge(u, v):
                fill.add(frozenset((u, v)))
        numbered.add(v)
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


# -- potential maximal cliques ------------------------------------------------

def is_pmc(g, omega, explain=False):
    """Is omega a potential maximal clique?

    (1) every non-edge of omega is covered by a component of g minus
    omega, and (2) no component sees all of omega.
    """
    om = frozenset(omega)
    comps = g.components(removed=om)
    nbhds = [g.open_neighborhood(c) for c in comps]
    for nb in nbhds:
        if nb == om and om:
            return (False, "a component sees all of omega") if explain \
                else False
    for u in sorted(om):
        for v in sorted(om):
            if v <= u or g.has_edge(u, v):
                continue
            if not any(u in nb and v in nb for nb in nbhds):
                return (False, f"non-edge {u},{v} uncovered") if explain \
                    else False
    return (True, "ok") if explain else True


# -- chordality, fills, clique trees ------------------------------------------

def perfect_elimination_order(g):
    """A PEO via maximum cardinality search, or None if g is not chordal."""
    weight = {v: 0 for v in g.vertices()}
    order = []
    remaining = set(g.vertices())
    while remaining:
        v = max(sorted(remaining), key=lambda u: weight[u])
        order.append(v)
        remaining.discard(v)
        for w in g.adj[v] & remaining:
            weight[w] += 1
    order.reverse()  # eliminate in this order
    if not all(g.is_clique(s) for s in _madj(g.adj, order).values()):
        return None
    return order


def is_chordal(g):
    return perfect_elimination_order(g) is not None


def minimalize_fill(g, fill):
    """Shrink a chordal fill to an inclusion-minimal one.

    Scans fill edges in sorted order, removing any edge whose removal
    keeps the completion chordal, repeating until no edge can go.
    """
    fill = {frozenset(e) for e in fill}
    if not is_chordal(g.with_edges(tuple(sorted(e)) for e in fill)):
        raise ValueError("g plus fill must be chordal")
    changed = True
    while changed:
        changed = False
        for e in sorted(fill, key=sorted):
            trial = fill - {e}
            if is_chordal(g.with_edges(tuple(sorted(f)) for f in trial)):
                fill = trial
                changed = True
    return fill


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
    from .treedec import TreeDecomposition
    order = perfect_elimination_order(g)
    if order is None:
        raise ValueError("clique_tree requires a chordal graph")
    if not order:
        return TreeDecomposition([frozenset()], [])
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
    return TreeDecomposition(bags, edges)


def make_structured(g, t):
    """Rebuild a valid tree decomposition so that every bag is a potential
    maximal clique, without increasing the width.

    Completes each bag into a clique, shrinks that fill to an inclusion
    minimal one, and returns the clique tree of the resulting chordal
    completion.
    """
    from .treedec import validate
    report = validate(g, t)
    if report is not None:
        raise ValueError(f"invalid input decomposition: {report}")
    fill = set()
    for bag in t.bags:
        for u in sorted(bag):
            for v in sorted(bag):
                if u < v and not g.has_edge(u, v):
                    fill.add(frozenset((u, v)))
    fill = minimalize_fill(g, fill)
    completed = g.with_edges(tuple(sorted(e)) for e in fill)
    return clique_tree(completed)
