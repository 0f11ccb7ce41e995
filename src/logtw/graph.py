"""Immutable simple graphs over dense 0-based vertex ids, plus the primitive
queries everything else is built on: neighborhoods, components, degeneracy,
shortest (hence induced) paths, induced-path and hole checks, and
induced-hole enumeration.

All iteration orders are deterministic (ids ascending) so that certificates
and decompositions are reproducible.
"""

import heapq
from collections import deque


class SizeCapExceeded(Exception):
    """An operation was asked to run beyond its configured exact-search cap."""


class BuildCheckFailed(Exception):
    """A check on the program's own output or invariants failed."""


class Graph:
    """Undirected simple graph on vertex set {0..n-1}.

    Immutable after construction; adjacency sets are frozensets and all
    queries are pure.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)

    # -- basic queries -------------------------------------------------

    def vertices(self):
        return range(self.n)

    def degree(self, v):
        return len(self.adj[v])

    def has_edge(self, u, v):
        return v in self.adj[u]

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def m(self):
        return sum(len(s) for s in self.adj) // 2

    def __eq__(self, other):
        if isinstance(other, Graph):
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def _check(self, x):
        for v in x:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")

    # -- neighborhoods -------------------------------------------------

    def open_neighborhood(self, x):
        """N(X): vertices outside X with at least one neighbor in X."""
        xs = set(x)
        self._check(xs)
        out = set()
        for v in xs:
            out |= self.adj[v]
        return out - xs

    def closed_neighborhood(self, x):
        xs = set(x)
        return self.open_neighborhood(xs) | xs

    def is_clique(self, x):
        xs = set(x)
        return all(xs - {v} <= self.adj[v] for v in xs)

    def is_stable(self, x):
        xs = set(x)
        return all(self.adj[v].isdisjoint(xs) for v in xs)

    # -- connectivity --------------------------------------------------

    def components(self, removed=()):
        """Connected components of G minus `removed`, ordered by minimum id."""
        rem = set(removed)
        self._check(rem)
        seen = set(rem)
        out = []
        for s in range(self.n):
            if s in seen:
                continue
            comp = {s}
            seen.add(s)
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        queue.append(w)
            out.append(frozenset(comp))
        return out

    def is_connected(self):
        return self.n <= 1 or len(self.components()) == 1

    def shortest_path(self, u, v, forbidden=()):
        """A shortest (hence induced) u-v path avoiding `forbidden`, or None.

        Ties are broken by preferring smaller predecessor ids, so the result
        is deterministic.
        """
        forb = set(forbidden)
        if u in forb or v in forb:
            raise ValueError("endpoints may not be forbidden")
        prev = {u: None}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                path = []
                while x is not None:
                    path.append(x)
                    x = prev[x]
                return path[::-1]
            for w in sorted(self.adj[x]):
                if w not in prev and w not in forb:
                    prev[w] = x
                    queue.append(w)
        return None

    # -- derived graphs ------------------------------------------------

    def induced(self, vertices):
        """Induced subgraph plus the map new id -> old id."""
        old_ids = sorted(set(vertices))
        self._check(old_ids)
        pos = {v: i for i, v in enumerate(old_ids)}
        edges = [(pos[u], pos[v]) for u in old_ids for v in self.adj[u]
                 if v in pos and u < v]
        return Graph(len(old_ids), edges), old_ids


# -- degeneracy ----------------------------------------------------------

def degeneracy_order(g):
    """Repeatedly remove a minimum-degree vertex (ties by smallest id).

    Returns (ordering, d) where d is the maximum degree seen at removal
    time; every subgraph of g then has a vertex of degree <= d, i.e. g is
    (d+1)-degenerate under the strict convention.

    The next vertex comes off a lazy min-heap of (degree, id) entries:
    a degree only falls, so an entry whose degree is no longer current,
    or whose vertex is gone, is stale and dropped as it surfaces.
    """
    deg = [g.degree(v) for v in g.vertices()]
    heap = [(k, v) for v, k in enumerate(deg)]
    heapq.heapify(heap)
    order = []
    d = 0
    while heap:
        k, v = heapq.heappop(heap)
        if deg[v] != k:
            continue
        d = max(d, k)
        order.append(v)
        deg[v] = None
        for w in g.adj[v]:
            if deg[w] is not None:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order, d


def strict_degeneracy(g):
    """The strict delta: smallest value such that every subgraph has a
    vertex of degree strictly less; equals standard degeneracy + 1.
    Empty graphs get delta = 1 so the 4*delta thresholds stay positive."""
    return degeneracy_order(g)[1] + 1


def greedy_color_by_degeneracy(g):
    """Proper coloring with at most degeneracy+1 colors.

    Colors along the reverse degeneracy order; returns a list mapping
    vertex -> color id (0-based).
    """
    order, _ = degeneracy_order(g)
    color = [None] * g.n
    for v in reversed(order):
        used = {color[w] for w in g.adj[v] if color[w] is not None}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color


# -- hole enumeration -----------------------------------------------------

def adjacency_masks(g):
    """Neighbourhoods as int bitmasks: bit w of the v-th entry is set iff
    vw is an edge."""
    masks = []
    for v in range(g.n):
        m = 0
        for w in g.adj[v]:
            m |= 1 << w
        masks.append(m)
    return masks


def enumerate_holes(g, max_len=None, min_len=4):
    """Yield every induced cycle of length >= min_len exactly once, as a
    triple (hole, mask, three): the hole's vertices, the OR of their bits
    and the mask of the vertices with at least three neighbours on the
    hole (never a hole vertex, which sees just its two neighbours).

    The walk keeps, for the path it is on, the vertices with at least one,
    two and three neighbours on the path (near, two, three); pushing w
    updates them as three |= two & N(w), two |= near & N(w), near |= N(w),
    and the closing vertex is counted the same way, so no hole is scanned
    again to find its three-neighbour vertices.

    Each hole is a tuple in canonical orientation: starting at its
    minimum vertex, second element smaller than the last (this kills
    both rotation and reflection duplicates).

    Order contract (the hub search's budget counts holes in it): a
    depth-first search over induced paths v0, v1, ..., for v0 ascending,
    extending each path by the neighbours of its last vertex in ascending
    order; a hole is yielded when the next vertex closes the path back to
    v0.

    The walk has no size cap of its own, though its cost can grow
    exponentially with n: each caller bounds it.  The hub search checks
    its hole cap and counts holes against its budget; the cube search
    runs on a certified atom of fewer than 9t vertices, or for
    `logtw detect --what cube`, under its `--cap` when one is given.
    """
    if max_len is None:
        max_len = g.n
    amask = adjacency_masks(g)
    grow_max, close_min = max_len - 2, min_len - 2

    for v0 in range(g.n):
        closers = amask[v0]
        upto_v0 = (1 << (v0 + 1)) - 1
        first = closers & ~upto_v0
        while first:
            low = first & -first
            first ^= low
            # A neighbour of v0 can only close the path (going past it
            # would leave a chord back to v0), and only when it is above
            # v1 (the canonical orientation): the live closers are those
            # left in `first`, the rest are closed for good.
            live = first
            # The frame of the path on top: its candidates; reach, the
            # vertices closed to a candidate's own candidates (ids <= v0,
            # dead closers, the path past v0 and its neighbours, which
            # would be chords); its vertex mask; and near, two and three,
            # the vertices with at least one, two and three neighbours on
            # the path.  While a longer path is walked the frame is saved
            # on the stack with its path length, unless it has no
            # candidate left to return to.  The path [v0] has the one
            # candidate v1.
            path = [v0]
            stack = []
            cands, pmask, near, two, three = low, 1 << v0, closers, 0, 0
            reach = upto_v0 | closers ^ live
            while True:
                if not cands:
                    if not stack:
                        break
                    cands, reach, pmask, near, two, three, depth = stack.pop()
                    del path[depth:]
                    continue
                bit = cands & -cands
                cands ^= bit
                w = bit.bit_length() - 1
                if bit & live:
                    yield (*path, w), pmask | bit, three | two & amask[w]
                    continue
                wmask = amask[w]
                wreach = reach | wmask
                wcands = wmask & ~reach
                # reach only grows, so once every live closer is reached
                # no longer path closes a hole; a path of max_len - 1
                # vertices grows no further; and a closer of too short a
                # path closes too short a hole
                depth = len(path)
                if depth >= grow_max or not live & ~wreach:
                    wcands &= live
                if depth < close_min:
                    wcands &= ~live
                if wcands:
                    if cands:
                        stack.append((cands, reach, pmask, near, two, three,
                                      depth))
                    path.append(w)
                    cands, reach = wcands, wreach
                    pmask |= bit
                    three |= two & wmask
                    two |= near & wmask
                    near |= wmask


def is_induced_path(g, seq, cycle=False):
    """Is the vertex sequence seq an induced path of g: no vertex twice,
    consecutive vertices adjacent and no other pair?  With cycle=True, is
    it a hole: an induced cycle of length >= 4, the last vertex also
    adjacent to the first?"""
    k = len(seq)
    if k < (4 if cycle else 1) or len(set(seq)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (cycle and i == 0 and j == k - 1)
            if g.has_edge(seq[i], seq[j]) != consecutive:
                return False
    return True
