"""Tree decompositions: data type, validation, exact small-n treewidth,
and the dynamic-programming solvers that run in 2^O(width) time per bag.

The solvers share one table walk over the decomposition (_dp), and
coloring runs it least: _color_bracket brackets chi between a clique
bound and a proper greedy coloring, which answer every q outside the
bracket, so only a q inside it runs the walk. A DP state is one int
packing a k-bit field per bag vertex, in ascending id order, so a state
operation costs O(width) whatever n is; witnesses are back-pointer
chains, turned into a set once at the root. A table's value counts only
the vertices already forgotten, each exactly once, so no join needs a
correction. Each solver supplies only its field width, the field bits
two joined states must agree on, the states introducing a vertex can
give, and what forgetting a field gains or whether it drops the state.
Introduce reads only the new vertex's neighbour fields and only sets
bits, so it is asked once per neighbour pattern, not once per state; a
join whose key is the whole state is one lookup per state.

Each public solver validates t, then runs its unchecked body
(solve_stable_set runs _stable_set, and so on); a caller whose
decomposition is already validated, as the builder's output is, calls
the body directly.

A TreeDecomposition computes its shape once, when first read: the tree
verdict, the breadth-first order and children from bag 0, and each
vertex's top bags.  validate reads the verdict and the top bags, so
only its O(n + m) graph checks run per call; _dp reads the order and
children, and takes its field ranks from the bags, sorted once.  Every
validate and DP run on one decomposition shares them.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import detect
from .graph import (BuildCheckFailed, SizeCapExceeded, adjacency_masks,
                    greedy_color_by_degeneracy)

EXACT_TW_CAP = 14
# the largest q that solve_q_coloring accepts, and of a q-coloring DP;
# one runs only when the greedy and clique bounds leave that q open
Q_COLORING_CAP = 8


class _Shape(NamedTuple):
    """TreeDecomposition.shape: the first way the bags and tree edges fail
    to form a tree, or None; then, for a tree rooted at bag 0, its bags
    breadth-first, each bag's children in t.edges order, and the top bags
    of each vertex v, those holding v whose parent does not: near maps
    each vertex id in a bag to the union of its top bags, and split holds
    the vertices with more than one."""
    verdict: object
    order: list = None
    children: list = None
    near: dict = None
    split: set = None


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..N-1 plus undirected tree edges between bag indices.

    A single bag and no edges is the trivial decomposition.  width,
    sorted_bags and shape depend on the bags and edges alone, so each is
    computed once, when first read, and stays out of ==, hash and repr:
    validate reads the shape's verdict and top bags, _dp its order and
    children and the sorted bags, write_td the sorted bags.
    """
    bags: tuple
    edges: tuple

    def __init__(self, bags, edges):
        object.__setattr__(self, "bags", tuple(map(frozenset, bags)))
        object.__setattr__(self, "edges", tuple(
            [(a, b) if a < b else (b, a) for a, b in edges]))

    @cached_property
    def width(self):
        return max(map(len, self.bags), default=0) - 1

    @cached_property
    def sorted_bags(self):
        return tuple(map(sorted, self.bags))

    @cached_property
    def shape(self):
        """The _Shape of the bag tree, rooted at bag 0."""
        n_nodes = len(self.bags)
        if n_nodes == 0:
            return _Shape("no bags")
        if len(self.edges) != n_nodes - 1:
            return _Shape(f"not a tree: {n_nodes} bags, "
                          f"{len(self.edges)} edges")
        adj = [[] for _ in range(n_nodes)]
        for a, b in self.edges:
            if a < 0 or b >= n_nodes:
                return _Shape(f"tree edge out of range: {a},{b}")
            adj[a].append(b)
            adj[b].append(a)
        order = [0]
        children = [[] for _ in range(n_nodes)]
        seen = {0}
        for i in order:
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    children[i].append(j)
                    order.append(j)
        if len(order) != n_nodes:
            return _Shape("not a tree: disconnected")
        near = dict.fromkeys(self.bags[0], self.bags[0])
        split = set()
        for i in order:
            for j in children[i]:
                for v in self.bags[j] - self.bags[i]:
                    if v not in near:
                        near[v] = self.bags[j]
                    else:
                        split.add(v)
                        near[v] |= self.bags[j]
        return _Shape(None, order, children, near, split)


def validate(g, t):
    """None if t is a valid tree decomposition of g, else a string naming
    the first violated condition with a witness.

    The bag tree's part is t.shape's verdict, computed once per
    decomposition; the graph's part reads the shape's top bags, in
    O(n + m).  Every id in a bag lies in a top bag, so the ids the top
    bags hold must be vertices of g.  The bags holding v form one
    subtree per top bag of v, so v is in some bag exactly when it has a
    top bag, and its bags are connected exactly when it has one.  Two
    subtrees of a rooted tree meet exactly when the top of one lies in
    the other (Gavril 1974), so an edge uv lies in a bag exactly when a
    top bag of u holds v or a top bag of v holds u.
    """
    shape = t.shape
    if shape.verdict is not None:
        return shape.verdict
    near = shape.near
    if near and (min(near) < 0 or max(near) >= g.n):
        return next(f"bag contains non-vertices: {b}"
                    for b in t.sorted_bags
                    if b and (b[0] < 0 or b[-1] >= g.n))
    for v in g.vertices():
        if v not in near:
            return f"vertex {v} in no bag"
    for u in g.vertices():
        held = near[u]
        if not g.adj[u] <= held:
            for v in g.adj[u]:
                if u < v and v not in held and u not in near[v]:
                    return f"edge {u},{v} in no bag"
    if shape.split:
        return (f"bags containing vertex {min(shape.split)} are not "
                "connected in the tree")
    return None


def decomposition_from_elimination(g, order):
    """Tree decomposition induced by an elimination order.

    Bag of v = v plus its neighbors at elimination time (in the graph
    progressively completed on eliminated neighborhoods); _elimination_tree
    links the bags into a reduced tree.
    """
    adj = [set(nb) for nb in g.adj]  # the remaining vertices only
    bags = []
    for v in order:
        nbrs = adj[v]
        bags.append(frozenset(nbrs | {v}))
        for a in nbrs:
            adj[a] |= nbrs
            adj[a] -= {a, v}
    return _elimination_tree(order, bags)


def _elimination_tree(order, bags):
    """The reduced elimination tree of bags[i], the bag of order[i] at its
    elimination (Kloks 1994).

    Bag i hangs off the bag of its first later-eliminated member, its
    parent, and the bags with no such member, one per component, are
    chained; _reduced then drops every bag that lies inside the bag of
    one of its children, which then stands for it.  A child's bag holds
    the child, which no bag above it holds, so no other nesting occurs.
    The edges go to _reduced from the last-eliminated child down, so a
    bag inside the bags of several children is merged into the last of
    them: under a maximum cardinality search order, the vertex searched
    right after it, so the bags and tree edges are those of the clique
    tree that search gives (Blair and Peyton 1993)."""
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    roots = []
    for i in reversed(range(len(order))):
        later = bags[i] - {order[i]}
        if later:
            edges.append((i, pos[min(later, key=pos.get)]))
        else:
            roots.append(i)
    return _reduced(bags, edges + list(zip(roots, roots[1:])))


def _reduced(bags, edges):
    """The tree decomposition with these bags and tree edges, each tree
    edge that joins a bag to one inside it contracted, edge by edge in
    the order given, pass after pass over the edges left until none is
    contracted: the smaller bag is not written and the larger stands for
    both.  Contracting such an edge keeps a decomposition valid and its
    width.  The bags written keep their order, and the edges come
    sorted, as write_td writes them; no bags give the one-empty-bag
    decomposition."""
    into = list(range(len(bags)))  # a merged bag's stand-in, else itself
    merged = True
    while merged:
        merged = False
        left = []
        for a, b in edges:
            while into[a] != a:
                into[a] = a = into[into[a]]
            while into[b] != b:
                into[b] = b = into[into[b]]
            if len(bags[a]) > len(bags[b]):
                a, b = b, a
            if a != b and bags[a] <= bags[b]:
                into[a] = b
                merged = True
            else:
                left.append((a, b))
        edges = left
    kept = [i for i, j in enumerate(into) if i == j]
    at = {i: k for k, i in enumerate(kept)}
    return TreeDecomposition([bags[i] for i in kept] or [frozenset()],
                             [(at[a], at[b])
                              for a, b in sorted(map(sorted, edges))])


def exact_treewidth(g):
    """Exact treewidth with an optimal witness decomposition, for g of at
    most EXACT_TW_CAP vertices; a larger g raises SizeCapExceeded.

    Treewidth is the maximum over connected components, so each component
    gets its own subset DP and the optimal orders are concatenated;
    decomposition_from_elimination chains the component roots.  The
    empty graph has treewidth -1, the width of its one empty bag.
    """
    if g.n > EXACT_TW_CAP:
        raise SizeCapExceeded(f"exact treewidth capped at n <= "
                              f"{EXACT_TW_CAP}, got n = {g.n}")
    tw = -1
    order = []
    for comp in g.components():
        sub, ids = g.induced(comp)
        sub_tw, sub_order = _optimal_order(sub)
        tw = max(tw, sub_tw)
        order.extend(ids[v] for v in sub_order)
    t = decomposition_from_elimination(g, order)
    if t.width != tw:
        raise BuildCheckFailed(f"elimination order gives width {t.width}, "
                               f"not the optimum {tw}")
    return tw, t


def _optimal_order(g):
    """(treewidth, optimal elimination order) of a nonempty graph.

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
    # every predecessor of a mask is numerically smaller, so ascending
    # order settles each mask before it is extended
    for mask in range(full):
        base = dp[mask]
        f = full & ~mask
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


def greedy_fill_decomposition(g):
    """Heuristic decomposition from a minimum-fill-in elimination order,
    smallest id on ties.  Valid at any size; width is not guaranteed
    optimal.

    The next vertex comes off a lazy min-heap of (fill, id) entries,
    stale ones dropped as they surface.  Eliminating v turns N(v) into a
    clique.  A vertex x outside N(v) keeps its neighbourhood, so its fill
    drops by exactly the number of new fill edges ab inside it: each new
    edge decrements every common neighbour of a and b outside N(v),
    counted before the update.  Only N(v) is recounted in full.  The bag
    {v} | N(v) is taken in the same pass, and _elimination_tree links the
    bags into a reduced tree."""
    adj = [set(nb) for nb in g.adj]  # the remaining vertices only

    def fill_needed(v):
        # each missing edge ab is counted once from a and once from b: a
        # misses the neighbours of v outside its own neighbourhood and a
        nbrs = adj[v]
        return sum(len(nbrs) - 1 - len(nbrs & adj[a]) for a in nbrs) // 2

    fill = [fill_needed(v) for v in g.vertices()]
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)
    order = []
    bags = []
    while len(order) < g.n:
        f, v = heapq.heappop(heap)
        if fill[v] != f:
            continue
        order.append(v)
        fill[v] = None
        nbrs = adj[v]
        bags.append(frozenset(nbrs | {v}))
        for a in nbrs:
            adj[a].discard(v)
        changed = set()
        for a in nbrs:
            for b in nbrs - adj[a]:
                if a < b:  # a new fill edge ab
                    for x in adj[a] & adj[b] - nbrs:
                        fill[x] -= 1
                        changed.add(x)
        for a in nbrs:
            adj[a] |= nbrs
            adj[a].discard(a)
        for a in nbrs:
            f = fill_needed(a)
            if f != fill[a]:
                fill[a] = f
                changed.add(a)
        for x in changed:
            heapq.heappush(heap, (fill[x], x))
    return _elimination_tree(order, bags)


# -- solvers ------------------------------------------------------------------

_JOIN = object()  # tags a witness node that joins two witness chains
_UNASKED = object()  # a field value forget has not been asked about yet


def _require_valid(g, t):
    report = validate(g, t)
    if report is not None:
        raise ValueError(f"invalid decomposition: {report}")


def _dp(g, t, k, key, introduce, forget):
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

    A value counts only the vertices already forgotten, and by the
    running-intersection property each vertex is forgotten exactly once
    (the root bag's at the end), so nothing is counted twice. Forgetting
    v asks forget(field, v), once for each field value that occurs in the
    table, when it first occurs, for None, which drops the state, or
    (gain, item), which adds gain to the value and item (if not None) to
    the witness; the field is dropped and the higher fields shift down.
    Introducing v opens a zero field at v's rank, at bit offset f, and
    introduce(state, f, nb) gives the candidate states; nb has bit 0 of
    the field of each bag neighbour of v, so that state & nb << c tests
    bit c of v's neighbours. introduce must read only the neighbours'
    fields and only set bits: introduce(s, f, nb) is
    [s | c for c in introduce(s & nb * ones, f, nb)], ones being a
    field of k set bits. So it is asked once per neighbour pattern
    s & nb * ones, and each state ORs the pattern's candidates into
    itself, in the same order. At a join, the states of both sides that
    agree on the key bits of every field pair up into left | right,
    valued left + right, since the two sides have forgotten disjoint
    vertex sets; when the key is every bit of a field, only equal states
    agree, and each left state looks its partner up. A candidate
    replaces a table entry only when its value is strictly larger, so
    the first of equal-valued candidates is kept.

    A witness is a back-pointer chain: None, (item, previous) for a
    forget with an item, or (_JOIN, left, right) at a join. Only the
    root's chain is walked, iteratively, into the frozenset of its items.
    The caller has validated t.

    The order and children come from t.shape, and the field ranks from
    t.sorted_bags, both computed once per decomposition: the child bag's
    vertices are forgotten from its sorted list backwards, so each keeps
    its index there as its rank, and a parent-only vertex's rank is its
    index in the parent's sorted list, as every smaller vertex of the
    parent bag is in the fields by then.
    """
    shape = t.shape
    ones = (1 << k) - 1
    mask = key * sum(1 << r * k for r in range(t.width + 1))  # in every field

    def move(tab, bag, ranks, target, target_ranks):
        # ranks: the vertices of tab's fields, in field order
        for r in reversed(range(len(ranks))):
            v = ranks[r]
            if v in target:
                continue
            f = r * k
            low = (1 << f) - 1
            outcome = [_UNASKED] * (ones + 1)
            out = {}
            for s, (val, wit) in tab.items():
                x = s >> f & ones
                kept = outcome[x]
                if kept is _UNASKED:
                    kept = outcome[x] = forget(x, v)
                if kept is not None:
                    gain, item = kept
                    s2 = s & low | s >> f + k << f
                    old = out.get(s2)
                    if old is None or val + gain > old[0]:
                        out[s2] = (val + gain,
                                   wit if item is None else (item, wit))
            tab = out
        ranks = [v for v in ranks if v in target]
        for r, v in enumerate(target_ranks):
            if v in bag:
                continue
            ranks.insert(r, v)
            f = r * k
            low = (1 << f) - 1
            nbrs = g.adj[v]
            nb = sum(1 << i * k for i, w in enumerate(ranks) if w in nbrs)
            nbm = nb * ones  # every bit of the neighbours' fields
            asked = {}
            out = {}
            for s, entry in tab.items():
                base = s & low | s >> f << f + k
                pattern = base & nbm
                cands = asked.get(pattern)
                if cands is None:
                    cands = asked[pattern] = introduce(pattern, f, nb)
                for c in cands:
                    s2 = base | c
                    old = out.get(s2)
                    if old is None or entry[0] > old[0]:
                        out[s2] = entry
            tab = out
        return tab

    def join(left, right):
        if key == ones:  # only equal states agree on every bit
            out = {}
            for s, (lv, lw) in left.items():
                r = right.get(s)
                if r is not None:
                    out[s] = (lv + r[0], (_JOIN, lw, r[1]))
            return out
        buckets = {}
        for s, entry in right.items():
            buckets.setdefault(s & mask, []).append((s, entry))
        out = {}
        for ls, (lv, lw) in left.items():
            for rs, (rv, rw) in buckets.get(ls & mask, ()):
                s = ls | rs
                old = out.get(s)
                if old is None or lv + rv > old[0]:
                    out[s] = (lv + rv, (_JOIN, lw, rw))
        return out

    bags, ranked = t.bags, t.sorted_bags
    tables = {}
    for i in reversed(shape.order):
        tab = None
        for j in shape.children[i]:
            arm = move(tables.pop(j), bags[j], ranked[j], bags[i], ranked[i])
            tab = arm if tab is None else join(tab, arm)
        if tab is None:
            tab = move({0: (0, None)}, (), (), bags[i], ranked[i])
        tables[i] = tab
    root = move(tables[0], bags[0], ranked[0], (), ()).get(0)
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


def solve_stable_set(g, t):
    """(maximum stable set size, witness set), after checking that t
    decomposes g."""
    _require_valid(g, t)
    return _stable_set(g, t)


def _stable_set(g, t):
    """solve_stable_set on a decomposition t already validated.

    State: one bit per bag vertex, set when it is in the stable set; a
    vertex in the set counts 1 when forgotten.
    """
    def introduce(s, f, nb):
        return (s,) if s & nb else (s, s | 1 << f)

    val, wit = _dp(g, t, 1, 1, introduce,
                   lambda x, v: (1, v) if x else (0, None))
    if not (g.is_stable(wit) and len(wit) == val):
        raise BuildCheckFailed(f"stable-set witness {sorted(wit)} is not a "
                               f"stable set of size {val}")
    return val, wit


def solve_vertex_cover(g, t):
    """(minimum vertex cover size, witness set), after checking that t
    decomposes g."""
    _require_valid(g, t)
    return _vertex_cover(g, t)


def _vertex_cover(g, t):
    """solve_vertex_cover on a decomposition t already validated: the
    complement of a maximum stable set, since tau = n - alpha (Gallai)."""
    alpha, stable = _stable_set(g, t)
    return g.n - alpha, frozenset(g.vertices()) - stable


def solve_dominating_set(g, t):
    """(minimum dominating set size, witness set), after checking that t
    decomposes g."""
    _require_valid(g, t)
    return _dominating_set(g, t)


def _dominating_set(g, t):
    """solve_dominating_set on a decomposition t already validated.

    State: two bits per bag vertex, bit 0 set when it is in the set
    (taken), bit 1 when it is not taken but has a taken neighbour
    (dominated); a vertex with neither still waits, and is dropped when
    forgotten. Values are negated sizes: a taken vertex counts -1 when
    forgotten.
    """
    def introduce(s, f, nb):
        return s | 1 << f | (nb & ~s) << 1, (s | 2 << f if s & nb else s)

    def forget(x, v):  # a vertex still waiting was never dominated
        return (-1, v) if x & 1 else (0, None) if x else None

    val, wit = _dp(g, t, 2, 1, introduce, forget)
    if len(g.closed_neighborhood(wit)) != g.n or len(wit) != -val:
        raise BuildCheckFailed(f"dominating-set witness {sorted(wit)} does "
                               f"not dominate g with {-val} vertices")
    return -val, wit


def solve_q_coloring(g, t, q):
    """(colorable: bool, witness coloring dict or None) with q colors,
    after checking q and that t decomposes g."""
    if q < 1 or q > Q_COLORING_CAP:
        raise ValueError(f"q must be between 1 and {Q_COLORING_CAP}")
    _require_valid(g, t)
    return _q_coloring(g, t, q)


def _q_coloring(g, t, q):
    """solve_q_coloring on a decomposition t already validated.

    _color_bracket answers every q outside [low, high): q >= high with
    its proper high-coloring, q < low with no. Only a q in the gap runs
    the table DP, _coloring_dp.
    """
    low, high, color = _color_bracket(g)
    if q >= high:
        return True, dict(enumerate(color))
    if q < low:
        return False, None
    return _coloring_dp(g, t, q)


def _coloring_dp(g, t, q):
    """The q-coloring table DP on a decomposition t already validated.

    State: q bits per bag vertex, one-hot: bit c set when it has color c;
    a forgotten vertex adds (vertex, color) to the witness.
    """
    def introduce(s, f, nb):
        return [s | 1 << f + c for c in range(q) if not s & nb << c]

    root = _dp(g, t, q, (1 << q) - 1, introduce,
               lambda x, v: (0, (v, x.bit_length() - 1)))
    if root is None:
        return False, None
    wit = dict(root[1])
    if len(wit) != g.n or any(wit[u] == wit[v] for u, v in g.edges()):
        raise BuildCheckFailed(f"{q}-coloring witness is not a proper "
                               "coloring of g")
    return True, wit


def _two_coloring(g):
    """A breadth-first 2-coloring of every component, as a list vertex ->
    color, or None if g is not bipartite."""
    side = [None] * g.n
    for r in g.vertices():
        if side[r] is not None:
            continue
        side[r] = 0
        queue = [r]
        for u in queue:
            for w in g.adj[u]:
                if side[w] is None:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return side


def _color_bracket(g):
    """(low, high, color): low <= chi <= high, and color, a list vertex ->
    color in range(high), is a proper coloring of g.

    A bipartite g is answered by its breadth-first 2-coloring, which uses
    color 1 exactly when g has an edge: low = high = 2, or 1 when g is
    edgeless (0 when empty). Otherwise a greedy coloring along the
    degeneracy order gives high, at most degeneracy + 1 (Szekeres and
    Wilf), and low starts at 3, as g has an odd cycle, and rises past
    every q for which g has a K_{q+1}.
    """
    color = _two_coloring(g)
    if color is not None:
        high = max(color, default=-1) + 1
        return high, high, color
    color = greedy_color_by_degeneracy(g)
    if any(color[u] == color[v] for u, v in g.edges()):
        raise BuildCheckFailed("the greedy degeneracy coloring is not a "
                               "proper coloring of g")
    high = max(color) + 1
    low = 3
    while low < high and detect.has_clique(g, low + 1) is not None:
        low += 1
    return low, high, color


def solve_chromatic(g, t):
    """Chromatic number of g, after checking that t decomposes g."""
    _require_valid(g, t)
    return _chromatic(g, t)


def _chromatic(g, t):
    """solve_chromatic on a decomposition t already validated.

    chi is bracketed first by _color_bracket; the q-coloring DP runs only
    for q from low up to high - 1, and high is the answer when each
    fails. On (theta, triangle)-free graphs, which always have a vertex of
    degree at most 2 (Radovanovic and Vuskovic), high is at most 3, so no
    DP runs.
    """
    low, high, _ = _color_bracket(g)
    for q in range(low, high):
        if q > Q_COLORING_CAP:
            raise SizeCapExceeded(f"chromatic search capped at q <= "
                                  f"{Q_COLORING_CAP}, got q = {q}")
        ok, _ = _coloring_dp(g, t, q)
        if ok:
            return q
    return high
