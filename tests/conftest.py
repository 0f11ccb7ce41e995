"""Shared corpora for the test suites, and one way to call the glue.

Class-member corpora are rejection-sampled once per (n, t) and cached; all
sampling is seeded, so every run sees the same graphs.
"""

import random
from functools import lru_cache
from itertools import combinations
from unittest.mock import patch

from logtw import builder, detect, generators
from logtw.generators import random_graph, random_in_class
from logtw.graph import Graph
from logtw.treedec import TreeDecomposition

import lemmas


@lru_cache(maxsize=None)
def class_members(t, n, count, p=None, seed_base=0):
    """Up to `count` seeded graphs on n vertices excluding thetas,
    pyramids, generalized prisms and K_t."""
    if p is None:
        p = min(0.3, 2.2 / n)
    out = []
    seed = seed_base
    # 30 draws per seed: the corpora are the graphs those draws find
    with patch.object(generators, "MAX_TRIES", 30):
        while len(out) < count and seed < seed_base + 12 * count:
            g = random_in_class(n, p, t, seed=seed)
            if g is not None:
                out.append(g)
            seed += 1
    return tuple(out)


@lru_cache(maxsize=None)
def random_corpus(n, count, p=0.3, seed_base=100):
    return tuple(random_graph(n, p, seed=seed_base + i) for i in range(count))


def relabelled(g, seed):
    """g under a seeded random permutation of its vertex ids."""
    perm = list(g.vertices())
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def cycle_with_hubs(length, *spokes):
    """A hole of the given length plus one vertex per spoke tuple, adjacent
    to the hole vertices it lists."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    for k, ends in enumerate(spokes):
        edges += [(length + k, x) for x in ends]
    return Graph(length + len(spokes), edges)


@lru_cache(maxsize=None)
def wheel_bearing_cstar_graphs():
    """Restricted members that actually contain hubs: a hole plus one
    extra vertex seeing three spread-out hole vertices."""
    out = []
    for length in (7, 8, 9, 10):
        for spokes in combinations(range(length), 3):
            g = cycle_with_hubs(length, spokes)
            if detect.hubs(g, hole_cap=g.n) and \
                    lemmas.in_class_Cstar(g)[0]:
                out.append(g)
    assert len(out) >= 10
    return tuple(out)


def hub_layer_cases():
    """(graph, branch of each report level) for t = 3 class members whose
    certified builds walk the hub layers: one shrink, a shrink then a
    balanced vertex, and a balanced vertex at once (two adjacent hubs; a
    layer with two balanced hubs; one hub)."""
    cases = [(cycle_with_hubs(12, (5, 7, 9)), ["shrink"]),
             (cycle_with_hubs(13, (1, 3, 6), (0, 8, 10)),
              ["shrink", "balanced"]),
             (lemmas.with_edges(cycle_with_hubs(12, (2, 4, 8), (1, 9, 11)),
                                [(12, 13)]), ["balanced"]),
             (cycle_with_hubs(14, (1, 5, 13), (6, 8, 13), (1, 3, 5)),
              ["balanced"])]
    return cases + [(g, ["balanced"]) for g in wheel_bearing_cstar_graphs()]


def random_tree(n, seed):
    """A seeded random tree on n vertices: each vertex after the first
    hangs off a random earlier one, then the ids are shuffled."""
    rng = random.Random(seed)
    return relabelled(Graph(n, [(rng.randrange(v), v) for v in range(1, n)]),
                      seed)


def glued(decomps, glue_tree):
    """builder.glue_at_clique over atom decompositions: their bags laid
    end to end in one list, as the builder lays them, and the tree of
    those bags, the atoms' own edges and the links it returns."""
    bags = []
    edges = []
    starts = []
    for td in decomps:
        starts.append(len(bags))
        edges.extend((a + starts[-1], b + starts[-1]) for a, b in td.edges)
        bags.extend(td.bags)
    return TreeDecomposition(
        bags, edges + builder.glue_at_clique(bags, starts, glue_tree))


@lru_cache(maxsize=None)
def split_corpus():
    """Seeded graphs on which the split, glue and elimination orders are
    pinned to their first-written references: G(n, p) for n = 5..40,
    paths, cycles, stars and random trees, walls 3..5, the hub-layer cases
    and t = 3 class members."""
    out = [random_graph(n, p, seed=100 * n + k) for n in range(5, 41)
           for k, p in enumerate((1.5 / n, 3 / n, 0.3))]
    for n in (2, 3, 5, 8, 13, 40):
        out += [generators.path(n), generators.complete_bipartite(1, n - 1),
                relabelled(generators.complete_bipartite(1, n - 1), n)]
        out += [random_tree(n, seed=n + k) for k in range(3)]
        if n >= 3:
            out.append(generators.cycle(n))
    out += [generators.wall(k) for k in (3, 4, 5)]
    out += [g for g, _ in hub_layer_cases()]
    for n in (16, 32):
        out += class_members(3, n, 3)
    for n in (64, 128):
        out += class_members(3, n, 3, p=1.2 / n)
    return tuple(out)


def ladder(rungs):
    """Two paths 0..k-1 and k..2k-1 joined by the rungs {i, k + i}."""
    k = rungs
    return Graph(2 * k, [(i, i + 1) for i in range(k - 1)]
                 + [(k + i, k + i + 1) for i in range(k - 1)]
                 + [(i, k + i) for i in range(k)])


def caterpillar(spine):
    """A path 0..k-1 with one leaf k + i on each spine vertex i, spine ids
    first."""
    k = spine
    return Graph(2 * k, [(i, i + 1) for i in range(k - 1)]
                 + [(i, k + i) for i in range(k)])


@lru_cache(maxsize=None)
def glued_blocks():
    """Seeded connected graphs of blocks glued at a vertex or at an edge:
    cycles, cliques, walls and G(n, p), with pendant trees, in shuffled
    ids."""
    shapes = [generators.cycle(k) for k in (3, 4, 5, 8)]
    shapes += [generators.clique(k) for k in (3, 4, 5)]
    shapes += [generators.wall(3), generators.wall(4)]
    shapes += [g for g in (random_graph(k, 0.5, seed=k) for k in range(5, 12))
               if g.is_connected()]
    out = []
    for seed in range(80):
        rng = random.Random(seed)
        n, edges = 1, set()
        for _ in range(rng.randint(2, 7)):
            h = (random_tree(rng.randint(2, 6), seed=rng.randrange(99))
                 if rng.random() < 0.3 else rng.choice(shapes))
            if edges and rng.random() < 0.4:  # glued at an edge
                at = dict(zip(rng.choice(sorted(h.edges())),
                              rng.choice(sorted(edges))))
            else:
                at = {rng.randrange(h.n): rng.randrange(n)}
            for v in h.vertices():
                if v not in at:
                    at[v] = n
                    n += 1
            edges |= {tuple(sorted((at[u], at[v]))) for u, v in h.edges()}
        out.append(relabelled(Graph(n, edges), seed))
    return tuple(out)


@lru_cache(maxsize=None)
def search_corpus():
    """split_corpus() widened for the searches that run in the input's
    own ids: a relabelled copy of each graph, ladders and caterpillars in
    both labellings, and graphs with isolated vertices and edges, whose
    ids the relabelled copies scatter among the other components'."""
    base = list(split_corpus())
    for k in (2, 3, 5, 8, 20):
        base += [ladder(k), caterpillar(k)]
    for g in split_corpus()[::9]:
        n = g.n
        base.append(Graph(n + 6, [*g.edges(), (n + 1, n + 2),
                                  (n + 4, n + 5)]))
    base += [Graph(0), Graph(1), Graph(4, [(1, 2)])]
    return tuple(base + [relabelled(g, seed=i) for i, g in enumerate(base)])
