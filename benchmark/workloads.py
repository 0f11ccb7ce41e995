"""The three workloads: their seeded inputs and the user-facing steps one
op takes through the program.

Every graph structure is a fixed draw from a fixed seed (member k of each
size is random_in_class(..., seed=k), so k = 1 is the graph `logtw bench`
samples by default); `--seed` picks LABELLINGS[workload] random
relabellings of every structure's vertex ids, and each labelled copy is
one input.  Fresh
draws per seed were tried first: the cost of a single n = 512 member
varies about fivefold between draws, so a run of a few dozen ops could not
repeat within the bounds.  A relabelling changes every edge list (and the
search order of every id-ordered search in the program) while keeping the
work comparable between seeds; it still moves one op's time by up to
1.5x, and the builder's width on `uncertified` by up to 1.4x, which the
run averages over the copies of each structure.

Ops call the program through module attributes (`builder.decompose`, not
a from-import), so the tracer's wrappers see every call.
"""

import hashlib
import io
import random

from logtw import builder, detect, formats, generators, treedec
from logtw.builder import Caps
from logtw.graph import Graph

T = 3
# labelled copies per structure; `solve`'s work hardly depends on labels
LABELLINGS = {"members": 4, "uncertified": 4, "solve": 2}

# (n, how many members of that size); BASELINE.md says why it stops at 512
MEMBER_LADDER = ((16, 8), (32, 8), (64, 8), (128, 8), (256, 4), (512, 2))
MEMBER_P_MULT = 1.2
MEMBER_MAX_TRIES = 200

# wall(7) and wall(8) are single atoms of more than 64 vertices, so they
# exit on the hole-enumeration cap (ROADMAP item 4)
UNCERTIFIED_WALLS = (3, 4, 5, 6, 7, 8)
UNCERTIFIED_SIZES = tuple(range(40, 61, 5))
UNCERTIFIED_DRAWS = 4

SOLVE_WALLS = (3, 4, 5)
SOLVE_SIZES = (12, 20, 30, 40, 50, 60, 70)
SOLVE_DRAWS = 5


class Input:
    """One generated input: the graph text the program reads, plus (for
    `solve`) the decomposition text."""

    __slots__ = ("structure", "name", "gr", "td")

    def __init__(self, structure, labelling, g, td=None):
        self.structure = structure
        self.name = f"{structure}/l{labelling}"
        self.gr = _text(formats.write_graph, g)
        self.td = None if td is None else _text(formats.write_td, td, g.n)


def _text(write, *args):
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


# -- member sampling ----------------------------------------------------------

def _blocks(g):
    """Vertex sets of g's biconnected components (iterative Tarjan)."""
    disc = [-1] * g.n
    low = [0] * g.n
    clock = 0
    edge_stack = []
    out = []
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(sorted(g.adj[root])))]
        while stack:
            u, parent, it = stack[-1]
            for w in it:
                if w == parent:
                    continue
                if disc[w] < 0:
                    edge_stack.append((u, w))
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, u, iter(sorted(g.adj[w]))))
                    break
                if disc[w] < disc[u]:
                    edge_stack.append((u, w))
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    block = set()
                    while True:
                        e = edge_stack.pop()
                        block.update(e)
                        if e == (p, u):
                            break
                    out.append(frozenset(block))
    return out


def _in_class_by_blocks(g, t):
    """detect.in_class_Ct(g, t) with no cap, checked one block at a time.

    Every forbidden structure (theta, pyramid, generalized prism, K_t for
    t >= 3) is 2-connected, so it lies inside one block, and a block's
    vertex set induces exactly that block.  Edges and holes are in the
    class; every other block goes to the program's exhaustive detector.
    """
    for block in _blocks(g):
        sub, _ = g.induced(block)
        if sub.n <= 2 or (sub.n >= 4 and sub.m == sub.n):
            continue
        ok, _ = detect.in_class_Ct(sub, t, caps=sub.n)
        if not ok:
            return False
    return True


def sample_member(n, p, t, seed):
    """The graph generators.random_in_class(n, p, t, seed, caps=n) returns:
    the same candidate sequence and the same accept test, run per block
    so that rejecting a candidate does not search the whole graph."""
    for i in range(MEMBER_MAX_TRIES):
        g = generators.random_graph(n, p, seed * 100003 + i)
        if _in_class_by_blocks(g, t):
            return g
    raise RuntimeError(f"no class member on n={n} within "
                       f"{MEMBER_MAX_TRIES} tries (seed {seed})")


# -- setup --------------------------------------------------------------------

def _relabel(rng, g, td=None):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    if td is None:
        return h, None
    return h, treedec.TreeDecomposition(
        [[perm[v] for v in bag] for bag in td.bags], td.edges)


def _members():
    for n, count in MEMBER_LADDER:
        for k in range(1, count + 1):
            yield f"member-n{n}-k{k}", sample_member(
                n, MEMBER_P_MULT / n, T, k), None


def _uncertified():
    for k in UNCERTIFIED_WALLS:
        yield f"wall{k}", generators.wall(k), None
    for n in UNCERTIFIED_SIZES:
        for k in range(UNCERTIFIED_DRAWS):
            yield f"gnp-n{n}-k{k}", generators.random_graph(
                n, 2.0 / n, n * 10 + k), None


def _solve():
    # the decomposition is built on the unrelabelled graph and relabelled
    # with it, so its width (which the DP cost is exponential in) does not
    # depend on the seed
    for k in SOLVE_WALLS:
        g = generators.wall(k)
        yield f"wall{k}", g, treedec.greedy_fill_decomposition(g)
    for n in SOLVE_SIZES:
        for k in range(SOLVE_DRAWS):
            g = generators.random_graph(
                n, 2.0 / n, n * 10 + k)
            yield f"gnp-n{n}-k{k}", g, treedec.greedy_fill_decomposition(g)


def setup(workload, seed):
    """(inputs, digest) for one workload and seed.  The digest is a sha256
    over every input's n, m and edge list (and decomposition, for
    `solve`), so two commits can be shown to run the same inputs."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    inputs = []
    for name, g, td in SOURCES[workload]():
        for labelling in range(LABELLINGS[workload]):
            h, htd = _relabel(rng, g, td)
            item = Input(name, labelling, h, htd)
            digest.update(item.gr.encode())
            if item.td is not None:
                digest.update(item.td.encode())
            inputs.append(item)
    return inputs, digest.hexdigest()


SOURCES = {"members": _members, "uncertified": _uncertified,
           "solve": _solve}


# -- ops ----------------------------------------------------------------------

def op_members(item):
    """Certify and decompose with detect=n, hole=n (as `logtw bench`),
    write and re-read the decomposition, verify it, solve stable set."""
    g = formats.read_graph(io.StringIO(item.gr))
    td, report = builder.decompose(g, T, caps=Caps(detect=g.n, hole=g.n),
                                   uncertified_ok=True)
    buf = io.StringIO()
    formats.write_td(td, g.n, buf)
    td_read, _ = formats.read_td(io.StringIO(buf.getvalue()))
    verdict = treedec.validate(g, td_read)
    alpha = treedec.solve_stable_set(g, td_read)
    return {"g": g, "td": td, "td_read": td_read, "report": report,
            "verdict": verdict, "alpha": alpha}


def op_uncertified(item):
    """`logtw decompose --uncertified-ok` with default caps."""
    g = formats.read_graph(io.StringIO(item.gr))
    td, report = builder.decompose(g, T, uncertified_ok=True)
    buf = io.StringIO()
    formats.write_td(td, g.n, buf)
    return {"g": g, "td": td, "report": report, "td_text": buf.getvalue()}


def op_solve(item):
    """`logtw verify` plus `logtw solve --td` for all five problems."""
    g = formats.read_graph(io.StringIO(item.gr))
    td, _ = formats.read_td(io.StringIO(item.td))
    return {"g": g, "td": td,
            "verdict": treedec.validate(g, td),
            "alpha": treedec.solve_stable_set(g, td),
            "tau": treedec.solve_vertex_cover(g, td),
            "gamma": treedec.solve_dominating_set(g, td),
            "q3": treedec.solve_q_coloring(g, td, 3),
            "chi": treedec.solve_chromatic(g, td)}


OPS = {"members": op_members, "uncertified": op_uncertified,
       "solve": op_solve}
