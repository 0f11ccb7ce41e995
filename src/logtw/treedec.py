"""Tree decompositions: data type, validation, exact small-n treewidth,
nice normal form, and the dynamic-programming solvers that run in
2^O(width) time per node."""

from dataclasses import dataclass

from .graph import Graph, SizeCapExceeded

EXACT_TW_CAP = 14
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
    assert t.width == tw
    return tw, t


def _optimal_order(g):
    """(treewidth, optimal elimination order) of a nonempty graph.

    Dynamic program over subsets of eliminated vertices (as bitmasks): the
    cost of eliminating v after the set S is the number of vertices
    outside S reachable from v through S, which is order-independent.
    """
    n = g.n
    nbr_mask = [0] * n
    for v in g.vertices():
        for w in g.adj[v]:
            nbr_mask[v] |= 1 << w

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


def greedy_fill_decomposition(g):
    """Heuristic decomposition from a minimum-fill-in elimination order.
    Valid at any size; width is not guaranteed optimal."""
    if g.n == 0:
        return TreeDecomposition([frozenset()], [])
    adj = {v: set(g.adj[v]) for v in g.vertices()}
    remaining = set(g.vertices())
    order = []

    def fill_needed(v):
        nbrs = sorted(adj[v] & remaining)
        return sum(1 for i in range(len(nbrs)) for j in range(i + 1, len(nbrs))
                   if nbrs[j] not in adj[nbrs[i]])

    while remaining:
        v = min(sorted(remaining), key=fill_needed)
        order.append(v)
        nbrs = adj[v] & remaining
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        remaining.discard(v)
    return decomposition_from_elimination(g, order)


# -- nice decompositions ------------------------------------------------------

@dataclass
class NiceNode:
    kind: str  # leaf | introduce | forget | join
    bag: frozenset
    vertex: int | None
    children: list


class NiceDecomposition:
    """Rooted binary normal form: leaves have empty bags; introduce and
    forget nodes change the bag by one vertex; join nodes duplicate it."""

    def __init__(self, root):
        self.root = root

    def postorder(self):
        out = []
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                out.append(node)
            else:
                stack.append((node, True))
                for c in node.children:
                    stack.append((c, False))
        return out

    @property
    def width(self):
        return max(len(n.bag) for n in self.postorder()) - 1


def _chain_down_to(bag, child_node):
    """Introduce/forget chain transforming child_node's bag into `bag`."""
    node = child_node
    current = set(node.bag)
    for v in sorted(current - bag, reverse=True):
        current.discard(v)
        node = NiceNode("forget", frozenset(current), v, [node])
    for v in sorted(bag - current):
        current.add(v)
        node = NiceNode("introduce", frozenset(current), v, [node])
    return node


def _leaf_chain(bag):
    node = NiceNode("leaf", frozenset(), None, [])
    return _chain_down_to(bag, node)


def make_nice(t, g=None):
    """Equivalent nice decomposition with the same width.

    If g is given, the input is validated first.
    """
    if g is not None:
        report = validate(g, t)
        if report is not None:
            raise ValueError(f"invalid input decomposition: {report}")
    adj = [[] for _ in t.bags]
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)

    def build(i, parent):
        children = [build(j, i) for j in adj[i] if j != parent]
        bag = t.bags[i]
        if not children:
            return _leaf_chain(bag)
        arms = [_chain_down_to(bag, c) for c in children]
        node = arms[0]
        for arm in arms[1:]:
            node = NiceNode("join", bag, None, [node, arm])
        return node

    root = build(0, None)
    # forget everything at the top so the root bag is empty
    root = _chain_down_to(frozenset(), root)
    return NiceDecomposition(root)


# -- solvers ------------------------------------------------------------------

def _prep(g, t):
    report = validate(g, t)
    if report is not None:
        raise ValueError(f"invalid decomposition: {report}")
    return make_nice(t)


def solve_stable_set(g, t):
    """(maximum stable set size, witness set)."""
    nice = _prep(g, t)
    tables = {}
    for node in nice.postorder():
        bag = node.bag
        if node.kind == "leaf":
            tab = {frozenset(): (0, frozenset())}
        elif node.kind == "introduce":
            v = node.vertex
            child = tables[id(node.children[0])]
            tab = {}
            for s, (val, wit) in child.items():
                _update(tab, s, val, wit)
                if not (g.adj[v] & s):
                    _update(tab, s | {v}, val + 1, wit | {v})
        elif node.kind == "forget":
            v = node.vertex
            child = tables[id(node.children[0])]
            tab = {}
            for s, (val, wit) in child.items():
                _update(tab, s - {v}, val, wit)
        else:  # join
            left = tables[id(node.children[0])]
            right = tables[id(node.children[1])]
            tab = {}
            for s, (lv, lw) in left.items():
                if s in right:
                    rv, rw = right[s]
                    _update(tab, s, lv + rv - len(s), lw | rw)
        tables[id(node)] = tab
        for c in node.children:
            del tables[id(c)]
    val, wit = tables[id(nice.root)][frozenset()]
    assert g.is_stable(wit) and len(wit) == val
    return val, wit


def _update(tab, key, val, wit):
    key = frozenset(key)
    if key not in tab or val > tab[key][0]:
        tab[key] = (val, frozenset(wit))


def solve_vertex_cover(g, t):
    """(minimum vertex cover size, witness set): the complement of a
    maximum stable set, since tau = n - alpha (Gallai)."""
    alpha, stable = solve_stable_set(g, t)
    return g.n - alpha, frozenset(g.vertices()) - stable


IN, DOM, WAIT = 2, 1, 0


def solve_dominating_set(g, t):
    """(minimum dominating set size, witness set)."""
    if g.n == 0:
        return 0, frozenset()
    nice = _prep(g, t)
    tables = {}
    for node in nice.postorder():
        bag = sorted(node.bag)
        if node.kind == "leaf":
            tab = {(): (0, frozenset())}
        elif node.kind == "introduce":
            v = node.vertex
            cbag = sorted(node.children[0].bag)
            child = tables[id(node.children[0])]
            tab = {}
            for state, (val, wit) in child.items():
                st = dict(zip(cbag, state))
                in_bag_nbrs = g.adj[v] & node.bag
                # v joins the set: it is its own dominator and upgrades
                # waiting neighbors
                st_in = dict(st)
                st_in[v] = IN
                for w in in_bag_nbrs:
                    if st_in[w] == WAIT:
                        st_in[w] = DOM
                _upd_dom(tab, bag, st_in, val + 1, wit | {v})
                # v stays out: dominated iff some bag neighbor is in
                st_out = dict(st)
                st_out[v] = DOM if any(st[w] == IN for w in in_bag_nbrs) \
                    else WAIT
                _upd_dom(tab, bag, st_out, val, wit)
        elif node.kind == "forget":
            v = node.vertex
            cbag = sorted(node.children[0].bag)
            child = tables[id(node.children[0])]
            tab = {}
            for state, (val, wit) in child.items():
                st = dict(zip(cbag, state))
                if st[v] == WAIT:
                    continue
                del st[v]
                _upd_dom(tab, bag, st, val, wit)
        else:
            left = tables[id(node.children[0])]
            right = tables[id(node.children[1])]
            tab = {}
            for ls, (lv, lw) in left.items():
                for rs, (rv, rw) in right.items():
                    merged = _merge_dom(ls, rs)
                    if merged is None:
                        continue
                    st = dict(zip(bag, merged))
                    n_in = sum(1 for x in merged if x == IN)
                    _upd_dom(tab, bag, st, lv + rv - n_in, lw | rw)
        tables[id(node)] = tab
        for c in node.children:
            del tables[id(c)]
    val, wit = tables[id(nice.root)][()]
    covered = set()
    for v in wit:
        covered |= g.adj[v] | {v}
    assert len(covered) == g.n and len(wit) == val
    return val, wit


def _upd_dom(tab, bag, st, val, wit):
    key = tuple(st[v] for v in bag)
    if key not in tab or val < tab[key][0]:
        tab[key] = (val, frozenset(wit))


def _merge_dom(ls, rs):
    out = []
    for a, b in zip(ls, rs):
        if (a == IN) != (b == IN):
            return None
        out.append(max(a, b))
    return tuple(out)


def solve_q_coloring(g, t, q):
    """(colorable: bool, witness coloring dict or None) with q colors."""
    if q < 1 or q > Q_COLORING_CAP:
        raise ValueError(f"q must be between 1 and {Q_COLORING_CAP}")
    nice = _prep(g, t)
    tables = {}
    for node in nice.postorder():
        bag = sorted(node.bag)
        if node.kind == "leaf":
            tab = {(): {}}
        elif node.kind == "introduce":
            v = node.vertex
            cbag = sorted(node.children[0].bag)
            child = tables[id(node.children[0])]
            tab = {}
            for state, wit in child.items():
                col = dict(zip(cbag, state))
                banned = {col[w] for w in g.adj[v] & node.bag if w in col}
                for c in range(q):
                    if c in banned:
                        continue
                    col2 = dict(col)
                    col2[v] = c
                    key = tuple(col2[u] for u in bag)
                    if key not in tab:
                        tab[key] = {**wit, v: c}
        elif node.kind == "forget":
            v = node.vertex
            cbag = sorted(node.children[0].bag)
            child = tables[id(node.children[0])]
            tab = {}
            for state, wit in child.items():
                col = dict(zip(cbag, state))
                del col[v]
                key = tuple(col[u] for u in bag)
                if key not in tab:
                    tab[key] = wit
        else:
            left = tables[id(node.children[0])]
            right = tables[id(node.children[1])]
            tab = {}
            for state, lw in left.items():
                rw = right.get(state)
                if rw is not None and state not in tab:
                    tab[state] = {**lw, **rw}
        tables[id(node)] = tab
        for c in node.children:
            del tables[id(c)]
    root_tab = tables[id(nice.root)]
    if not root_tab:
        return False, None
    wit = root_tab[()]
    assert all(wit[u] != wit[v] for u, v in g.edges())
    assert len(wit) == g.n
    return True, wit


def solve_chromatic(g, t):
    """Chromatic number, trying q = 1 upward; the strict degeneracy bound
    guarantees termination within the q-coloring cap when it is <= 8."""
    from .graph import strict_degeneracy
    if g.n == 0:
        return 0
    limit = min(strict_degeneracy(g), g.n)
    for q in range(1, limit + 1):
        if q > Q_COLORING_CAP:
            raise SizeCapExceeded(
                f"chromatic search needs q > {Q_COLORING_CAP}")
        ok, _ = solve_q_coloring(g, t, q)
        if ok:
            return q
    raise AssertionError("greedy degeneracy bound violated")
