"""Degeneracy-based partition of the hub set into stable layers with a
low-degree guarantee, and the balanced-vertex test.

The partition drives the recursion depth bookkeeping: its order k enters
the width bound as the hub-dimension term.
"""

from dataclasses import dataclass

from .graph import (BuildCheckFailed, greedy_color_by_degeneracy,
                    strict_degeneracy)


@dataclass(frozen=True)
class HubPartition:
    """Ordered stable layers S_1..S_k covering the hub set.

    delta is the strict degeneracy of the partitioned induced subgraph;
    every vertex of S_i has at most 4*delta neighbors (within that
    subgraph) once the earlier layers are removed.
    """
    layers: tuple
    delta: int
    hub_set: frozenset

    @property
    def order(self):
        return len(self.layers)

    def check(self, g):
        """Raise BuildCheckFailed if any invariant fails; g is the host
        graph whose hub set was partitioned."""
        union = set()
        for s in self.layers:
            if not s:
                raise BuildCheckFailed("empty layer")
            if union & s:
                raise BuildCheckFailed("layers overlap")
            if not g.is_stable(s):
                raise BuildCheckFailed("layer not stable")
            union |= s
        if union != set(self.hub_set):
            raise BuildCheckFailed("layers do not cover the hub set")
        removed = set()
        for s in self.layers:
            for v in sorted(s):
                deg = len((g.adj[v] & self.hub_set) - removed)
                if deg > 4 * self.delta:
                    raise BuildCheckFailed(
                        f"vertex {v} keeps degree {deg} > {4 * self.delta}")
            removed |= s


def layered_halving(g, delta):
    """Partition V(g) into layers T_1..T_m, m <= ceil(log2 n) + 1, where
    delta is g's strict degeneracy.

    T_1 takes exactly ceil(n/2) vertices of degree <= 4*delta (smallest
    ids first), and the rest is partitioned recursively; each vertex has
    degree <= 4*delta in the graph left when its layer starts.
    """
    remaining = set(g.vertices())
    layers = []
    while remaining:
        take = (len(remaining) + 1) // 2
        low = sorted(v for v in remaining
                     if len(g.adj[v] & remaining) <= 4 * delta)
        if len(low) < take:
            raise BuildCheckFailed("low-degree half smaller than half")
        layer = frozenset(low[:take])
        layers.append(layer)
        remaining -= layer
    return layers


def build_hub_partition(g, hub):
    """Partition hub, g's hub set as detect.hubs finds it, into stable
    low-degree layers.

    Runs the layered halving on g[hub] and splits each layer into stable
    sets by greedy coloring along the reverse degeneracy order; the layer
    count is at most delta * (ceil(log2 n) + 1).
    """
    if not hub:
        return HubPartition((), 1, hub)
    sub, ids = g.induced(hub)
    delta = strict_degeneracy(sub)
    layers = []
    for t_layer in layered_halving(sub, delta):
        # the layer induced in g's ids: the ids ascend, so it is
        # sub[t_layer] with its vertices in the same order
        layer, layer_ids = g.induced(ids[v] for v in t_layer)
        color = greedy_color_by_degeneracy(layer)
        classes = [set() for _ in range(max(color) + 1)]
        for v, c in enumerate(color):
            classes[c].add(layer_ids[v])
        layers += map(frozenset, classes)
    hp = HubPartition(tuple(layers), delta, hub)
    hp.check(g)
    return hp


def is_balanced(g, v):
    """Every component of g minus N[v] has at most n/2 vertices."""
    return big_component(g, v) is None


def big_component(g, v):
    """The unique component of g minus N[v] with more than n/2 vertices,
    or None if v is balanced."""
    closed = g.closed_neighborhood({v})
    for c in g.components(removed=closed):
        if 2 * len(c) > g.n:
            return c
    return None
