"""Outside-in tracing: wrappers installed at the names callers resolve,
from the benchmark's own files; no file of the program changes.

`logtw.builder` binds most layer functions through `from ... import`, so
those are wrapped on `logtw.builder`.  The finders and `hubs` are looked
up on `logtw.detect` at call time, so one wrapper there also covers the
calls from `hub_partition` and `in_class_Ct`.  `detect` binds
`enumerate_holes` by name; its wrapper only counts the holes yielded.

A span's self time is its duration minus the durations of the wrapped
calls made inside it.
"""

import time
from collections import Counter

from logtw import builder, detect, formats, separators, treedec

# (module, attribute, layer name); one function may be reached through
# two names (validate), both report under the layer's own module name
SPANS = (
    (detect, "in_class_Ct", "detect.in_class_Ct"),
    (detect, "has_clique", "detect.has_clique"),
    (detect, "find_theta", "detect.find_theta"),
    (detect, "find_pyramid", "detect.find_pyramid"),
    (detect, "find_prism", "detect.find_prism"),
    (detect, "find_pinched_prism", "detect.find_pinched_prism"),
    (detect, "find_cube", "detect.find_cube"),
    (detect, "hubs", "detect.hubs"),
    (builder, "clique_cutset_atoms", "separators.clique_cutset_atoms"),
    (separators, "find_clique_cutset", "separators.find_clique_cutset"),
    (builder, "make_structured", "separators.make_structured"),
    (builder, "build_hub_partition", "hub_partition.build_hub_partition"),
    (builder, "is_balanced", "hub_partition.is_balanced"),
    (builder, "central_bag", "central_bag.central_bag"),
    (builder, "extend_tree", "central_bag.extend_tree"),
    (builder, "build_contraction", "central_bag.build_contraction"),
    (builder, "extend_neighborhood", "central_bag.extend_neighborhood"),
    (builder, "greedy_fill_decomposition",
     "treedec.greedy_fill_decomposition"),
    (builder, "exact_treewidth", "treedec.exact_treewidth"),
    (builder, "validate", "treedec.validate"),
    (treedec, "validate", "treedec.validate"),
    (treedec, "solve_stable_set", "treedec.solve_stable_set"),
    (treedec, "solve_vertex_cover", "treedec.solve_vertex_cover"),
    (treedec, "solve_dominating_set", "treedec.solve_dominating_set"),
    (treedec, "solve_q_coloring", "treedec.solve_q_coloring"),
    (treedec, "solve_chromatic", "treedec.solve_chromatic"),
    (builder, "decompose", "builder.decompose"),
    (formats, "read_graph", "formats.read_graph"),
    (formats, "read_td", "formats.read_td"),
    (formats, "write_td", "formats.write_td"),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name in SPANS))

COUNTS = ("detect.holes_enumerated", "separators.atoms",
          "hub_partition.hubs_found", "hub_partition.layers",
          "builder.shrink_levels", "builder.balanced_branches",
          "builder.certified_ops")


def _count_result(counts, name, result):
    """Counters read from what a wrapped call returned."""
    if name == "separators.clique_cutset_atoms":
        counts["separators.atoms"] += len(result[0])
    elif name == "hub_partition.build_hub_partition":
        counts["hub_partition.hubs_found"] += len(result.hub_set)
        counts["hub_partition.layers"] += result.order
    elif name == "builder.decompose":
        report = result[1]
        for level in report.levels:
            if level["branch"] == "shrink":
                counts["builder.shrink_levels"] += 1
            else:
                counts["builder.balanced_branches"] += 1
        counts["builder.certified_ops"] += report.certified


class Tracer:
    """Per-layer self time and call counts, kept in memory."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.top_s = 0.0   # time inside outermost spans, for coverage
        self._child = []   # per open span: time spent in wrapped children
        self._saved = []

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[name] += dt - self._child.pop()
                self.calls[name] += 1
                if self._child:
                    self._child[-1] += dt
                else:
                    self.top_s += dt
            _count_result(self.counts, name, result)
            return result
        return wrapper

    def _holes(self, fn):
        def wrapper(*args, **kwargs):
            for hole in fn(*args, **kwargs):
                self.counts["detect.holes_enumerated"] += 1
                yield hole
        return wrapper

    def install(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, self._span(name, getattr(module, attr)))
        self._patch(detect, "enumerate_holes",
                    self._holes(detect.enumerate_holes))

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def metrics(self, passes):
        """Per-pass figures for every layer, plus the derived counts."""
        out = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
        for name in COUNTS:
            out[name] = (self.counts[name] / passes, "count")
        searches = self.calls["separators.find_clique_cutset"]
        out["separators.atoms_per_search"] = (
            self.counts["separators.atoms"] / searches if searches else 0.0,
            "ratio")
        return out
