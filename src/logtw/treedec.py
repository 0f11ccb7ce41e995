"""Tree decompositions: data type, validation, exact small-n treewidth,
and the dynamic-programming solvers that run in 2^O(width) time per bag.

All solvers share one table walk over the decomposition (_dp). A DP
state is one int packing a k-bit field per bag vertex, in ascending id
order, so a state operation costs O(width) whatever n is; witnesses are
back-pointer chains, turned into a set once at the root. A table's
value counts only the vertices already forgotten, each exactly once, so
no join needs a correction. Each solver supplies only its field width,
the field bits two joined states must agree on, the states introducing a
vertex can give, and what forgetting a field gains or whether it drops
the state. Introduce reads only the new vertex's neighbour fields and
only sets bits, so it is asked once per neighbour pattern, not once per
state; a join whose key is the whole state is one lookup per state.
"""

import heapq
from bisect import bisect_left
from dataclasses import dataclass

from . import detect
from .graph import (BuildCheckFailed, SizeCapExceeded, adjacency_masks,
                    greedy_color_by_degeneracy)

EXACT_TW_CAP = 14
# the largest q of a q-coloring DP; solve_chromatic needs one only when
# its greedy and clique bounds leave a q above the clique bound open
Q_COLORING_CAP = 8


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..N-1 plus undirected tree edges between bag indices.

    A single bag and no edges is the trivial decomposition.
    """
    bags: tuple
    edges: tuple

    def __init__(self, bags, edges):
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in bags))
        object.__setattr__(self, "edges",
                           tuple((min(e), max(e)) for e in edges))

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0) - 1


def validate(g, t):
    """None if t is a valid tree decomposition of g, else a string naming
    the first violated condition with a witness.

    One pass over a vertex -> bags index. Once the bag graph is known to
    be a tree, the bags holding v induce a subforest, whose component
    count is its node count minus its edge count; so they are connected
    exactly when (bags holding v) - (tree edges with v in both end bags)
    equals 1.
    """
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


def decomposition_from_elimination(g, order):
    """Tree decomposition induced by an elimination order.

    Bag of v = v plus its neighbors at elimination time (in the graph
    progressively completed on eliminated neighborhoods); the bag of v
    hangs off the bag of the first later-eliminated bag member.
    """
    if g.n == 0:
        return TreeDecomposition([frozenset()], [])
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    for v in order:
        later = {w for w in adj[v] if pos[w] > pos[v]}
        bags.append(frozenset({v} | later))
        for a in later:
            for b in later:
                if a != b:
                    adj[a].add(b)
    edges = []
    roots = []
    for i, v in enumerate(order):
        later = bags[i] - {v}
        if later:
            parent = min(later, key=lambda w: pos[w])
            edges.append((i, pos[parent]))
        else:
            roots.append(i)
    # one root per connected component; chain them so the result is a tree
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    return TreeDecomposition(bags, edges)


def exact_treewidth(g, cap=EXACT_TW_CAP):
    """Exact treewidth with an optimal witness decomposition.

    Treewidth is the maximum over connected components, so each component
    gets its own subset DP and the optimal orders are concatenated;
    decomposition_from_elimination chains the component roots.
    """
    if g.n > cap:
        raise SizeCapExceeded(f"exact treewidth capped at n <= {cap}, "
                              f"got n = {g.n}")
    if g.n == 0:
        return 0, TreeDecomposition([frozenset()], [])
    tw = 0
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
        if mask not in dp:
            continue
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

    Eliminating v changes the fill-in of its neighbours (they lose v and
    gain edges) and of their neighbours (edges appear among theirs), and
    of no other vertex; so only those are recounted, and the next vertex
    comes off a lazy min-heap of (fill, id) entries, stale ones dropped as
    they surface."""
    if g.n == 0:
        return TreeDecomposition([frozenset()], [])
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
    while len(order) < g.n:
        f, v = heapq.heappop(heap)
        if fill[v] != f:
            continue
        order.append(v)
        fill[v] = None
        nbrs = adj[v]
        for a in nbrs:
            adj[a] |= nbrs
            adj[a] -= {a, v}
        touched = set(nbrs)
        for a in nbrs:
            touched |= adj[a]
        for x in touched:
            f = fill_needed(x)
            if f != fill[x]:
                fill[x] = f
                heapq.heappush(heap, (f, x))
    return decomposition_from_elimination(g, order)


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
    mask = key * sum(1 << r * k for r in range(t.width + 1))  # in every field

    def move(tab, bag, target):
        ranks = sorted(bag)  # the vertices of tab's fields, in field order
        for v in sorted(bag - target, reverse=True):
            r = bisect_left(ranks, v)
            del ranks[r]
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
        for v in sorted(target - bag):
            r = bisect_left(ranks, v)
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


def solve_stable_set(g, t):
    """(maximum stable set size, witness set).

    State: one bit per bag vertex, set when it is in the stable set; a
    vertex in the set counts 1 when forgotten.
    """
    _require_valid(g, t)

    def introduce(s, f, nb):
        return (s,) if s & nb else (s, s | 1 << f)

    val, wit = _dp(g, t, 1, 1, introduce,
                   lambda x, v: (1, v) if x else (0, None))
    if not (g.is_stable(wit) and len(wit) == val):
        raise BuildCheckFailed(f"stable-set witness {sorted(wit)} is not a "
                               f"stable set of size {val}")
    return val, wit


def solve_vertex_cover(g, t):
    """(minimum vertex cover size, witness set): the complement of a
    maximum stable set, since tau = n - alpha (Gallai)."""
    alpha, stable = solve_stable_set(g, t)
    return g.n - alpha, frozenset(g.vertices()) - stable


def solve_dominating_set(g, t):
    """(minimum dominating set size, witness set).

    State: two bits per bag vertex, bit 0 set when it is in the set
    (taken), bit 1 when it is not taken but has a taken neighbour
    (dominated); a vertex with neither still waits, and is dropped when
    forgotten. Values are negated sizes: a taken vertex counts -1 when
    forgotten.
    """
    _require_valid(g, t)

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
    """(colorable: bool, witness coloring dict or None) with q colors.

    State: q bits per bag vertex, one-hot: bit c set when it has color c;
    a forgotten vertex adds (vertex, color) to the witness.
    """
    if q < 1 or q > Q_COLORING_CAP:
        raise ValueError(f"q must be between 1 and {Q_COLORING_CAP}")
    _require_valid(g, t)
    return _q_coloring(g, t, q)


def _q_coloring(g, t, q):
    """solve_q_coloring on a decomposition t already validated."""
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


def _is_bipartite(g):
    """Whether a breadth-first 2-coloring of every component succeeds."""
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
                    return False
    return True


def solve_chromatic(g, t):
    """Chromatic number of g, after checking that t decomposes g.

    Edgeless and bipartite graphs are answered directly.  Otherwise chi
    is bracketed first: a greedy coloring along the degeneracy order
    gives the upper bound high, at most degeneracy + 1 (Szekeres and
    Wilf), and the lower bound starts at 3 and rises past every q for
    which g has a K_{q+1}.  The q-coloring DP runs only for q from the
    lower bound up to high - 1, and high is the answer when each fails.
    On (theta, triangle)-free graphs the greedy bound is already 3
    (Radovanovic and Vuskovic), so no DP runs.
    """
    _require_valid(g, t)
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    if _is_bipartite(g):
        return 2
    color = greedy_color_by_degeneracy(g)
    if any(color[u] == color[v] for u, v in g.edges()):
        raise BuildCheckFailed("the greedy degeneracy coloring is not a "
                               "proper coloring of g")
    high = max(color) + 1
    low = 3
    while low < high and detect.has_clique(g, low + 1) is not None:
        low += 1
    for q in range(low, high):
        if q > Q_COLORING_CAP:
            raise SizeCapExceeded(f"chromatic search capped at q <= "
                                  f"{Q_COLORING_CAP}, got q = {q}")
        ok, _ = _q_coloring(g, t, q)
        if ok:
            return q
    return high
