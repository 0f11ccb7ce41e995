"""End-to-end recursive tree-decomposition builder with a certified width
report.

The pipeline for a connected graph: split at clique cutsets; inside each
atom, return a single bag when a cube forces a small vertex count, else
partition the hub vertices into stable low-degree layers and shrink the
graph through a sequence of central bags, one layer at a time.  The final
central bag is either hub-free (solved by bounded-width search) or owns a
balanced layer vertex (solved through the contraction graph).  The shrink
is then unwound: each central bag's decomposition is extended back over
the components it cut off, and the atom decompositions are glued at their
cutset cliques.
"""

from dataclasses import dataclass, field

from . import detect
from .central_bag import (build_contraction, central_bag,
                          extend_neighborhood, extend_tree)
from .graph import BuildCheckFailed
from .hub_partition import build_hub_partition, is_balanced
from .separators import clique_cutset_atoms, make_structured, ramsey
from .treedec import (TreeDecomposition, exact_treewidth,
                      greedy_fill_decomposition, validate)


@dataclass(frozen=True)
class Caps:
    """Exact-search budgets for one build."""
    detect: int = 30       # class membership is only verified up to here
    hole: int = 64         # hole-enumeration vertex budget (hub search)
    exact: int = 14        # exact treewidth fallback budget
    structure: int = 120   # bag-structuring (minimal completion) budget
    hub_budget: int = 5000   # holes examined per hub search; certified
                             # runs fail loudly past it, uncertified runs
                             # fall back to the partial hub set


class ClassViolation(Exception):
    """The input contains one of the forbidden structures."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(f"forbidden structure found: {certificate.kind}")


@dataclass
class BuildReport:
    t: int
    n: int
    achieved_width: int = -1
    bound: int = -1
    delta_used: int = 1
    hdim_used: int = 0
    depth_final: int = 0
    certified: bool = False
    levels: list = field(default_factory=list)
    trace: list = field(default_factory=list)

    def as_lines(self):
        yield f"achieved_width={self.achieved_width}"
        yield f"bound={self.bound}"
        yield f"t={self.t}"
        yield f"n={self.n}"
        yield f"delta={self.delta_used}"
        yield f"hdim={self.hdim_used}"
        yield f"depth_final={self.depth_final}"
        yield f"certified={'yes' if self.certified else 'no'}"
        for i, lv in enumerate(self.levels):
            yield (f"level_{i}=beta:{lv['beta']} sprime:{lv['sprime']} "
                   f"branch:{lv['branch']}")


def width_bound(t, n, delta, hdim):
    """The guaranteed width: R(t,4) + R(t,4)(4*delta + R(t,3)) times
    (ceil(log2 n) + 1 + hdim)."""
    if t < 3 or n < 1:
        raise ValueError("need t >= 3 and n >= 1")
    log_term = (n - 1).bit_length()  # ceil(log2 n)
    return ramsey(t, 4) + ramsey(t, 4) * (4 * delta + ramsey(t, 3)) * (
        log_term + 1 + hdim)


# -- assembly helpers ---------------------------------------------------------

def _relabel(td, table):
    """Map a decomposition's bags through an id lookup table: the
    local -> outer list from Graph.induced, or its inverse dict."""
    return TreeDecomposition(
        [frozenset(table[x] for x in bag) for bag in td.bags], td.edges)


def _chain(decomps):
    """One tree from several, linked leaf-to-leaf in order."""
    if not decomps:
        return TreeDecomposition([frozenset()], [])
    bags = []
    edges = []
    heads = []
    for td in decomps:
        off = len(bags)
        heads.append(off)
        bags.extend(td.bags)
        edges.extend((a + off, b + off) for a, b in td.edges)
    for a, b in zip(heads, heads[1:]):
        edges.append((a, b))
    return TreeDecomposition(bags, edges)


def glue_at_clique(decomps, glue_tree):
    """Join atom decompositions back into one tree along the recorded
    cutset cliques.

    Each glue entry (i, j, clique) links the partial trees currently
    containing atoms i and j at bags holding the clique; a clique always
    lies whole inside some atom on each side, and a valid decomposition of
    that atom has a bag covering it.
    """
    bags = []
    edges = []
    offsets = []
    for td in decomps:
        offsets.append(len(bags))
        edges.extend((a + offsets[-1], b + offsets[-1]) for a, b in td.edges)
        bags.extend(td.bags)

    parent = list(range(len(decomps)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    members = {i: [i] for i in range(len(decomps))}

    def bag_holding(root, clique):
        for a in members[root]:
            for k, bag in enumerate(decomps[a].bags):
                if clique <= bag:
                    return offsets[a] + k
        raise ValueError("no bag contains the glue clique")

    for i, j, clique in glue_tree:
        ri, rj = find(i), find(j)
        edges.append((bag_holding(ri, clique), bag_holding(rj, clique)))
        parent[rj] = ri
        members[ri].extend(members.pop(rj))
    return TreeDecomposition(bags, edges)


# -- the build ----------------------------------------------------------------

def decompose(g, t, caps=None, uncertified_ok=False):
    """(TreeDecomposition, BuildReport) for g.

    Class membership is verified up front when g fits under the detection
    cap; a violation raises ClassViolation unless uncertified_ok, in which
    case the build still runs but the report is marked uncertified.  On
    certified runs the achieved width is checked against width_bound; a
    failed output check raises BuildCheckFailed.
    """
    caps = caps or Caps()
    report = BuildReport(t=t, n=g.n)
    if g.n <= caps.detect:
        ok, cert = detect.in_class_Ct(g, t, caps=caps.detect)
        if ok:
            report.certified = True
        elif not uncertified_ok:
            raise ClassViolation(cert)

    if g.n == 0:
        td = TreeDecomposition([frozenset()], [])
    else:
        td = _any(g, t, caps, report, 0)

    report.achieved_width = td.width
    report.bound = width_bound(t, max(g.n, 1), report.delta_used,
                               report.hdim_used)
    bad = validate(g, td)
    if bad is not None:
        raise BuildCheckFailed(f"output decomposition invalid: {bad}")
    if report.certified and td.width > report.bound:
        raise BuildCheckFailed(f"certified width {td.width} exceeds bound "
                               f"{report.bound}")
    return td, report


def _any(g, t, caps, report, depth):
    """Decompose a possibly disconnected graph; bags in g's ids."""
    report.depth_final = max(report.depth_final, depth)
    comps = g.components()
    if len(comps) == 1:
        return _connected(g, t, caps, report, depth)
    out = []
    for comp in comps:
        sub, ids = g.induced(comp)
        out.append(_relabel(_connected(sub, t, caps, report, depth), ids))
    return _chain(out)


def _connected(g, t, caps, report, depth):
    if g.n <= 2:
        return TreeDecomposition([frozenset(g.vertices())], [])
    atoms, glue = clique_cutset_atoms(g)
    if len(atoms) == 1:
        return _atom(g, t, caps, report, depth)
    decomps = []
    for a in atoms:
        sub, ids = g.induced(a)
        decomps.append(_relabel(_atom(sub, t, caps, report, depth), ids))
    return glue_at_clique(decomps, glue)


def _structured(g, td, caps, report):
    """Rebuild td over g with every bag a potential maximal clique.

    Only done within the structuring budget, and on uncertified runs only
    for small pieces: the minimal-completion step is what the certified
    bag accounting relies on, but it is expensive on dense graphs, and an
    uncertified width claims nothing."""
    if g.n > caps.structure or (not report.certified and g.n > 30):
        return td
    return make_structured(g, td)


def _hub_free(g, t, caps, report):
    """Decomposition of a hub-free piece: greedy fill first, exact search
    when the greedy width misses the R(t,4) - 1 target and the piece is
    small enough."""
    td = greedy_fill_decomposition(g)
    target = ramsey(t, 4) - 1
    if td.width > target and g.n <= caps.exact:
        _, td = exact_treewidth(g, cap=caps.exact)
    return td


def _atom(g, t, caps, report, depth):
    """Decompose one clique-cutset-free connected piece; bags in g's ids."""
    # a cube inside a cutset-free class member forces fewer than 9t
    # vertices, so the single bag is already within budget
    if g.n < 9 * t and detect.find_cube(g, cap=g.n) is not None:
        report.trace.append(
            {"depth": depth, "n": g.n, "branch": "cube-single-bag"})
        return TreeDecomposition([frozenset(g.vertices())], [])

    hp = build_hub_partition(g, caps=caps.hole, budget=caps.hub_budget,
                             partial=not report.certified)
    report.delta_used = max(report.delta_used, hp.delta)
    report.hdim_used = max(report.hdim_used, hp.order)

    # shrink through central bags, one stable hub layer at a time
    beta = frozenset(g.vertices())
    levels = []  # (beta_before, central_bag triple) per shrinking step
    balanced_pick = None
    # hubs of g[beta] as last searched; None once beta has shrunk since
    hub_final = hp.hub_set
    for idx, layer in enumerate(hp.layers):
        sub, ids = g.induced(beta)
        inv = {v: i for i, v in enumerate(ids)}
        if report.certified:
            hub_local = detect.hubs(sub, hole_cap=caps.hole,
                                    budget=caps.hub_budget)
            hub_g = frozenset(ids[x] for x in hub_local)
        else:
            # a wheel of an induced subgraph is a wheel of g, so the
            # top-level hub set restricted to beta is a safe superset;
            # only the width accounting cares, and it is not certified
            hub_g = hp.hub_set & beta
        hub_final = hub_g
        if not hub_g:
            break
        if report.certified:
            # consumed layers must already be clear of the surviving hub
            # set, and surviving layer vertices stay low-degree towards it
            for j in range(idx):
                if hp.layers[j] & hub_g:
                    raise BuildCheckFailed(
                        f"depth {depth}, layer {idx}: consumed layer {j} "
                        f"meets the surviving hub set")
            for v in sorted(layer & beta):
                if len(sub.adj[inv[v]] & hub_local) > 4 * hp.delta:
                    raise BuildCheckFailed(
                        f"depth {depth}, layer {idx}: vertex {v} has more "
                        f"than {4 * hp.delta} hub neighbours")
        sprime = layer & hub_g
        if not sprime:
            continue
        bal = [v for v in sorted(sprime) if is_balanced(sub, inv[v])]
        if bal:
            balanced_pick = bal[0]
            report.levels.append({"beta": len(beta), "sprime": len(sprime),
                                  "branch": "balanced"})
            break
        central = central_bag(sub, [inv[v] for v in sorted(sprime)])
        levels.append((beta, central))
        report.levels.append({"beta": len(beta), "sprime": len(sprime),
                              "branch": "shrink"})
        beta = frozenset(ids[x] for x in central[0])
        hub_final = None

    # decompose the final central bag
    sub, ids = g.induced(beta)
    inv = {v: i for i, v in enumerate(ids)}
    if balanced_pick is None:
        if report.certified:
            if hub_final is None:
                hub_final = detect.hubs(sub, hole_cap=caps.hole,
                                        budget=caps.hub_budget)
            if hub_final:
                raise BuildCheckFailed(
                    f"depth {depth}: final central bag of {len(beta)} "
                    f"vertices still has hubs")
        td_local = _hub_free(sub, t, caps, report)
        report.trace.append(
            {"depth": depth, "n": g.n, "beta": len(beta),
             "branch": "hub-free"})
    else:
        hub_local_final = frozenset(inv[v] for v in hub_final)
        td_local = _balanced(sub, inv[balanced_pick], hub_local_final,
                             t, caps, report, depth)
        report.trace.append(
            {"depth": depth, "n": g.n, "beta": len(beta),
             "branch": "balanced"})
    td_cur = _relabel(td_local, ids)
    beta_cur = beta

    # unwind: extend each central bag's tree over the components it cut off
    for beta_prev, central in reversed(levels):
        csub, cids = g.induced(beta_cur)
        cinv = {v: i for i, v in enumerate(cids)}
        td_struct = _relabel(
            _structured(csub, _relabel(td_cur, cinv), caps, report), cids)
        # psub is the graph central_bag ran on, so central is in its ids
        psub, pids = g.induced(beta_prev)
        pinv = {v: i for i, v in enumerate(pids)}
        t_beta = _relabel(td_struct, pinv)
        part_tds = []
        for comp in psub.components(removed=central[0]):
            dsub, dids = psub.induced(comp)
            ptd = _structured(dsub, _any(dsub, t, caps, report, depth + 1),
                              caps, report)
            part_tds.append(_relabel(ptd, dids))
        td_cur = _relabel(extend_tree(psub, central, t_beta, part_tds), pids)
        beta_cur = beta_prev
    return td_cur  # beta_0 was all of g, so these are g's ids already


def _balanced(g, v, hub, t, caps, report, depth):
    """Decompose a piece around a balanced vertex v: contract every
    component of g minus N[v], solve the (wheel-free) contraction by the
    hub-free routine, recurse on the components, and extend back."""
    cg = build_contraction(g, v, hub)
    t0 = _structured(cg.h, _hub_free(cg.h, t, caps, report), caps, report)
    part_tds = []
    for part in cg.parts:
        psub, pids = g.induced(part)
        ptd = _structured(psub, _any(psub, t, caps, report, depth + 1), caps,
                      report)
        part_tds.append(_relabel(ptd, pids))
    return extend_neighborhood(g, cg, t0, part_tds)
