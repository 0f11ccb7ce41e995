"""Clique-cutset atoms, minimal chordal completions, bag structuring into
potential maximal cliques, and the Ramsey table used by the width bounds.

Both maximum cardinality searches (MCS for elimination orders, MCS-M for
minimal completions) run on adjacency sets, in the graph's own ids, and
record as they go which vertices bumped which.  That record is each
vertex's neighbourhood later in the order, in the graph the search
completes, so the clique-cutset atoms read their separators, and the
structured decompositions their bags, straight off it: no completed graph
is built, and no component is induced or relabelled.  MCS-M finds the
vertices each step bumps by a reach over weight levels, as published,
with no heap of its own.  The clique-cutset split cuts each component at
its cut vertices first, in one depth-first search that also finds the
component, so MCS-M runs only inside blocks of three or more vertices."""

import heapq
from math import comb

from . import treedec
from .graph import BuildCheckFailed

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

def _max_cardinality_search(vertices, bump, first=None):
    """Maximum cardinality search over vertices, a vertex set of a graph,
    in its ids: number first, if given, then each time the heaviest
    unnumbered vertex, smallest id on ties, and add one to the weight of
    each vertex that bump(v, weight, remaining, top) returns, where top is
    the largest weight left among unnumbered vertices.  The next vertex
    comes off a lazy max-heap of (-weight, id) entries, one pushed per
    increment; stale entries are dropped as they surface.

    Returns (order, madj): order is the numbering reversed, an
    elimination order, and madj[u] is the set of vertices whose numbering
    bumped u.  Those are u's neighbours after it in the order, in the
    graph that joins every vertex to the vertices it bumps: the graph
    itself when bump returns unnumbered neighbours, its completion under
    MCS-M."""
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
        v = first if first in remaining else heapq.heappop(heap)[1]
        remaining.discard(v)
        order.append(v)
        for u in bump(v, weight, remaining, top()):
            weight[u] += 1
            madj[u].add(v)
            heapq.heappush(heap, (-weight[u], u))
    order.reverse()  # eliminate in this order
    return order, madj


def minimal_triangulation(g, vertices, first=None):
    """An inclusion-minimal chordal completion of g[vertices] by maximum
    cardinality search with fill tracking (MCS-M, Berry, Blair, Heggernes
    and Peyton 2004), numbering first first when it is given.  Returns
    (order, madj): order is a perfect elimination order of the completion
    and madj[x] the neighbours of x after it there, so the fill is every
    pair {x, y}, y in madj[x], that is not an edge of g.

    Numbering v bumps S(v): the unnumbered u joined to v by a path
    through unnumbered vertices all lighter than u.  The search for S(v)
    is the published reach by levels: level j lists the vertices reached
    through vertices of weight at most j, and levels are emptied in
    increasing j.  A direct neighbour of v joins S(v) and enters its own
    level; a vertex y first reached from level j joins S(v) and its own
    level when weight[y] > j, and stays at level j otherwise.  No weight
    exceeds top, the largest weight left, so a vertex at level top or
    above reaches nothing new: those levels are never opened."""

    def bump(v, weight, remaining, top):
        seen = remaining & g.adj[v]  # a set, as remaining is
        s = list(seen)
        levels = [[] for _ in range(top)]
        for y in s:
            if weight[y] < top:
                levels[weight[y]].append(y)
        for j, level in enumerate(levels):
            while level:
                for y in g.adj[level.pop()]:
                    if y in seen or y not in remaining:
                        continue
                    seen.add(y)
                    w = weight[y]
                    if w <= j:
                        level.append(y)
                        continue
                    s.append(y)
                    if w < top:
                        levels[w].append(y)
        return s

    return _max_cardinality_search(vertices, bump, first)


def find_clique_cutset(g):
    """A clique whose removal disconnects g, with the component list, or
    None when g is disconnected or has no clique cutset: the first glue
    clique of clique_cutset_atoms."""
    if g.n == 0 or not g.is_connected():
        return None
    _, glue = clique_cutset_atoms(g, 0)
    if not glue:
        return None
    clique = glue[0][2]
    return clique, g.components(removed=clique)


def _blocks(g, root):
    """The blocks of root's component of g, its maximal 2-connected
    subgraphs and its bridges, by one depth-first search (Hopcroft and
    Tarjan 1973) from root that takes neighbours in ascending id; the
    search finds the component as it goes.  Yields (head, block) pairs in
    post-order: block is a vertex set, and head is its vertex the search
    reached first, the only one of its vertices a block yielded later can
    hold.  A lone vertex is its own block."""
    num = {root: 0}
    low = {root: 0}
    stack = [root]  # vertices whose block is not yet yielded
    frames = [(root, iter(sorted(g.adj[root])), 0)]
    while frames:
        v, nbrs, at = frames[-1]
        for w in nbrs:
            if w not in num:
                num[w] = low[w] = len(num)
                frames.append((w, iter(sorted(g.adj[w])), len(stack)))
                stack.append(w)
                break
            if num[w] < low[v]:
                low[v] = num[w]
        else:
            frames.pop()
            if frames:
                p = frames[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= num[p]:  # p cuts v's subtree off
                    block = frozenset([p, *stack[at:]])
                    del stack[at:]
                    yield p, block
    if len(num) == 1:
        yield root, frozenset(stack)


def _cut_block(g, block, head):
    """The clique minimal separator decomposition of g[block], block
    2-connected, read off one MCS-M elimination order that numbers head
    first (Berry, Pogorelcnik and Simonet 2010).  Returns (atoms, cuts):
    atom i < len(cuts) was cut off along the clique cuts[i], and the last
    atom, which holds head, was cut off along none.

    x generates the minimal separator madj(x) of the completion when
    |madj(x)| <= |madj(next vertex)|, the MCS-M weight test. Walking the
    order, each generator whose separator S is a clique of g cuts off the
    component of what is left of the block that holds x, together with S,
    as an atom.  The vertex numbered first is never cut off."""
    order, madj = minimal_triangulation(g, block, head)
    removed = set()
    atoms = []
    cuts = []
    for x, y in zip(order, order[1:]):
        s = madj[x]
        if len(s) <= len(madj[y]) and g.is_clique(s):
            # the component of g[block] - removed - s that holds x
            comp = {x}
            stack = [x]
            while stack:
                for w in g.adj[stack.pop()]:
                    if (w in block and w not in comp and w not in removed
                            and w not in s):
                        comp.add(w)
                        stack.append(w)
            atoms.append(frozenset(comp | s))
            cuts.append(frozenset(s))
            removed |= comp
    atoms.append(block - removed)
    return atoms, cuts


def clique_cutset_atoms(g, root):
    """Clique minimal separator decomposition of the component of g that
    holds root, in g's ids: _blocks' search from root finds the component
    and cuts it at its cut vertices into blocks at once, and each block of
    three or more vertices is cut by _cut_block.  The atoms are unique
    (Leimer 1993), so they are those of one MCS-M run over the whole
    component.

    Returns (atoms, glue_tree): atoms are vertex sets with no clique
    cutset; glue_tree is a list of (i, j, clique) entries meaning atom i
    was cut off along that clique and hangs off atom j. Each atom but the
    last is an i exactly once, j is always later than i, the clique lies
    in both atoms, and atom i meets every later atom only inside its
    clique. Gluing the atoms back along the recorded cliques reproduces
    root's component.

    Blocks come in post-order, so a block meets later blocks only at its
    head, which lies in its last atom.  Inside a block, atom i hangs off
    the first later atom that holds its clique; a block's last atom hangs
    at {head} off the last atom that holds the head, a later one for
    every block but the last, whose head is root."""
    atoms = []
    glue = []
    ends = []  # (a block's last atom, its head)
    for head, block in _blocks(g, root):
        if len(block) > 2:
            first = len(atoms)
            parts, cuts = _cut_block(g, block, head)
            atoms += parts
            glue += [(i, next(j for j in range(i + 1, len(atoms))
                              if s <= atoms[j]), s)
                     for i, s in enumerate(cuts, first)]
        else:
            atoms.append(block)
        ends.append((len(atoms) - 1, head))
    last = {v: k for k, a in enumerate(atoms) for v in a}
    glue += [(i, last[head], frozenset((head,))) for i, head in ends[:-1]]
    return atoms, glue


# -- chordality and structuring ----------------------------------------------

def perfect_elimination_order(adj):
    """(order, madj) from a maximum cardinality search of the graph with
    adjacency sets adj, indexed by vertex, or None if it is not chordal:
    order is then a PEO, and madj[x] the neighbours of x after it in
    order."""
    order, madj = _max_cardinality_search(
        range(len(adj)), lambda v, weight, remaining, top: adj[v] & remaining)
    if any(s - adj[x] - {x} for s in madj.values() for x in s):
        return None
    return order, madj


def make_structured(g, t):
    """Rebuild a valid tree decomposition so that every bag is a potential
    maximal clique, without increasing the width.

    Completes each bag into a clique, which gives a chordal completion,
    shrinks that fill to an inclusion-minimal one and returns the clique
    tree of the result: the reduced elimination tree of a maximum
    cardinality search order, whose bags {x} | madj(x) that lie in no
    bag below them are the maximal cliques (Blair and Peyton 1993).
    Fill edges are scanned in sorted order, sweep after sweep until none
    goes. A fill edge uv goes when the common neighbourhood of u and v in
    the current completion is a clique: then uv lies in exactly one
    maximal clique, which is exactly when the completion minus uv stays
    chordal (Rose, Tarjan and Lueker 1976).
    An invalid t, or a completion that is not chordal, raises
    BuildCheckFailed: the builder, the one caller, hands it its own
    decompositions.
    """
    report = treedec.validate(g, t)
    if report is not None:
        raise BuildCheckFailed(f"invalid input decomposition: {report}")
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
    peo = perfect_elimination_order(adj)
    if peo is None:
        raise BuildCheckFailed("the minimal completion is not chordal")
    order, madj = peo
    return treedec._elimination_tree(order, [madj[x] | {x} for x in order])
