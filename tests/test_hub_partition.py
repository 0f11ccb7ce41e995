"""Hub-set partitioning: layered halving, greedy stable coloring and the
degree/coverage/order invariants the builder relies on."""

import math

import pytest

from logtw import detect, generators, hub_partition
from logtw.graph import BuildCheckFailed, Graph, strict_degeneracy

import lemmas
from conftest import class_members, random_corpus


def _wheel_rich_graph(k):
    """k disjoint copies of (C_7 plus a hub seeing vertices 0, 2, 4),
    chained by single edges; every hub vertex is a real hub."""
    edges = []
    for c in range(k):
        off = 8 * c
        edges += [(off + i, off + (i + 1) % 7) for i in range(7)]
        edges += [(off + 7, off), (off + 7, off + 2), (off + 7, off + 4)]
        if c:
            edges.append((off - 8, off))
    return Graph(8 * k, edges)


def test_hubs_found_on_wheel_graph():
    g = _wheel_rich_graph(3)
    assert detect.hubs(g, g.n) == frozenset({7, 15, 23})


def test_low_degree_half_is_at_least_half():
    for g in random_corpus(12, 15, p=0.3, seed_base=1700):
        low = lemmas.low_degree_half(g)
        assert 2 * len(low) >= g.n
        d = strict_degeneracy(g)
        assert all(g.degree(v) <= 4 * d for v in low)


def test_layered_halving_invariants():
    for g in [*random_corpus(13, 10, p=0.3, seed_base=1800),
              generators.wall(3), generators.cycle(12)]:
        if g.n == 0:
            continue
        d = strict_degeneracy(g)
        layers = hub_partition.layered_halving(g, d)
        assert len(layers) <= math.ceil(math.log2(g.n)) + 1
        seen = set()
        remaining = set(g.vertices())
        for layer in layers:
            assert layer and not (layer & seen)
            # the degree rule: at most 4*delta neighbors among the
            # vertices not yet consumed when the layer starts
            for v in layer:
                assert len(g.adj[v] & remaining) <= 4 * d
            seen |= layer
            remaining -= layer
        assert seen == set(g.vertices())
        # first layer takes exactly half, rounded up
        assert len(layers[0]) == (g.n + 1) // 2


def test_build_hub_partition_invariants():
    g = _wheel_rich_graph(4)
    hp = hub_partition.build_hub_partition(g, detect.hubs(g, g.n))
    assert hp.hub_set == detect.hubs(g, g.n)
    hp.check(g)  # stability, coverage, disjointness, 4*delta rule
    hub_sub, _ = g.induced(hp.hub_set)
    assert hp.delta == strict_degeneracy(hub_sub)
    assert hp.order <= hp.delta * (math.ceil(math.log2(len(hp.hub_set))) + 1)


def test_build_hub_partition_empty_hub():
    hp = hub_partition.build_hub_partition(generators.cycle(9), frozenset())
    assert hp.layers == () and hp.hub_set == frozenset()
    hp.check(generators.cycle(9))


def test_hub_partition_on_class_members():
    for g in class_members(3, 13, 10, seed_base=2000):
        hp = hub_partition.build_hub_partition(g, detect.hubs(g, g.n))
        hp.check(g)
        if g.n:
            assert hp.order <= hp.delta * (math.ceil(math.log2(g.n)) + 1)


def test_check_catches_violations():
    g = _wheel_rich_graph(2)
    hp = hub_partition.build_hub_partition(g, detect.hubs(g, g.n))
    bad = hub_partition.HubPartition(hp.layers + (frozenset({0}),),
                                     hp.delta, hp.hub_set)
    with pytest.raises(BuildCheckFailed):
        bad.check(g)


def test_balanced_and_big_component():
    p9 = generators.path(9)
    assert hub_partition.is_balanced(p9, 4)       # middle splits evenly
    assert not hub_partition.is_balanced(p9, 0)   # end leaves a big piece
    big = hub_partition.big_component(p9, 0)
    assert big is not None and len(big) == 7
    assert hub_partition.big_component(p9, 4) is None
    k4 = generators.clique(4)
    assert hub_partition.is_balanced(k4, 0)  # removal empties the graph
