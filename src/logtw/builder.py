"""End-to-end recursive tree-decomposition builder with a certified width
report.

The pipeline: split each connected component of the input at clique
cutsets, once; induce each atom of more than two vertices once; certify
class membership atom by atom on those atoms, then build from the same
split and the same induced atoms.  Certification decides, once per build,
how every atom is built.  An uncertified build decomposes each atom by
the hub-free routine (min-fill, exact search on small atoms): the
construction below proves nothing outside the class.  A certified build
runs the paper's construction on each atom: the hub-free routine when a
cube forces a small vertex count, else partition the hub vertices into
stable low-degree layers and shrink the graph recursively, one layer at
a time: each step cuts its piece down to a central bag, decomposes that
bag by the next step, and extends the bag's decomposition back over the
components it cut off (each split the same way).  The recursion ends at
a central bag that is hub-free (solved by bounded-width search) or owns
a balanced layer vertex (solved through the contraction graph).  Each
piece's hub set comes from detect.hubs, which checks the build's hole
cap and counts holes against its own budget; every piece decomposition
a level extends over is first structured into potential maximal cliques
(make_structured), whatever its size.  Each atom's bags are written
once, in the split graph's ids, into the one bag list the build returns;
the glue adds only the tree edges that link the atoms at their cutset
cliques.
"""

from dataclasses import dataclass, field

from . import detect
from .central_bag import (build_contraction, central_bag,
                          extend_neighborhood, extend_tree)
from .graph import BuildCheckFailed
from .hub_partition import build_hub_partition, is_balanced
from .separators import clique_cutset_atoms, make_structured, ramsey
from .treedec import (EXACT_TW_CAP, TreeDecomposition, exact_treewidth,
                      greedy_fill_decomposition, validate)


@dataclass(frozen=True)
class Caps:
    """Exact-search budgets for one build, the two `--caps` keys: class
    membership is checked only on inputs of at most `detect` vertices,
    and a certified build hands `hole` to each hub search it runs, which
    checks it (the search's other limit, detect.HUB_BUDGET, is its own)."""
    detect: int = 30
    hole: int = 64


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

def glue_at_clique(bags, starts, glue_tree):
    """The link edges that join atom decompositions into one tree along
    the recorded cutset cliques; atom a's bags are the run of bags that
    starts at starts[a] and ends where the next atom's starts, the last
    atom's at the end of bags.

    Each glue entry (i, j, clique) hangs atom i off the later atom j: the
    first bag of i's run that holds the clique is linked to the first bag
    of j's run that holds it.  The split (clique_cutset_atoms) names each
    atom but the last once, as i, and always with j > i, and the clique
    lies in both atoms, so a valid decomposition of each has such a bag.
    The links make a tree decomposition of the whole component:

    - atom i meets every later atom only inside the clique, which lies
      in atom j;
    - so the atoms holding a vertex v form a subtree of the atom tree, and
      each link between two of them joins bags that both hold the
      clique, which contains v.

    An entry that repeats an i or whose j is not after its i raises
    BuildCheckFailed, as does a clique no bag of an atom's run holds: the
    split or an atom's decomposition is at fault, not the input.
    """
    ends = starts[1:] + [len(bags)]

    def first_holding(a, clique):
        for b in range(starts[a], ends[a]):
            if clique <= bags[b]:
                return b
        raise BuildCheckFailed("no bag contains the glue clique")

    links = {}  # atom i -> the link that hangs it
    for i, j, clique in glue_tree:
        if i in links or j <= i:
            raise BuildCheckFailed("glue entries must form a tree")
        links[i] = (first_holding(i, clique), first_holding(j, clique))
    return list(links.values())


# -- the build ----------------------------------------------------------------

def split(g):
    """The clique-cutset split of g: one (atoms, glue) per component of g,
    in g.components() order, atoms and glue cliques in g's ids.

    The vertices are walked in id order, so the first vertex of a
    component the walk meets is its smallest.  An isolated vertex, or a
    lone edge (its one neighbour has it as its only neighbour), is its
    own single atom; every other component is cut in place by one
    clique_cutset_atoms call from that vertex, whose block search finds
    the component as it walks it, so no vertex is walked twice."""
    adj = g.adj
    pieces = []
    seen = set()
    for v in range(g.n):
        if v in seen:
            continue
        nbrs = adj[v]
        if len(nbrs) > 1 or nbrs and len(adj[min(nbrs)]) > 1:
            atoms, glue = clique_cutset_atoms(g, v)
            seen.update(*atoms)
        else:  # an isolated vertex or a lone edge
            atoms, glue = [nbrs | {v}], []
            seen |= nbrs
        pieces.append((atoms, glue))
    return pieces


def class_atoms(g, pieces, t):
    """The atoms of g's split that can hold a forbidden structure for t,
    each induced once, as (sub, ids) pairs from Graph.induced in split
    order: all of them when t < 3, else those of more than two vertices,
    since K_t then has more, and so has every theta, pyramid and
    generalized prism.  None of these has a clique cutset (Tarjan 1985),
    so detect.in_class_Ct searching these atoms searches all of g; the
    build takes the same copies for its atoms."""
    return [g.induced(a) for atoms, _ in pieces for a in atoms
            if t < 3 or len(a) > 2]


def decompose(g, t, caps=None, uncertified_ok=False):
    """(TreeDecomposition, BuildReport) for g.

    g is split into clique-cutset atoms once, and class_atoms induces
    each atom of more than two vertices once; those feed both the
    class-membership check and the build.  Membership is verified atom by
    atom, before any atom is built, when g fits under the detection cap; a
    violation raises ClassViolation unless uncertified_ok.  A certified
    build runs the paper's construction on every atom.  An uncertified one
    (a violation under uncertified_ok, or g above the detection cap)
    decomposes every atom by the hub-free routine, so it meets neither
    the hole cap nor the hub budget.  A violation certificate that fails
    its own check (in_class_Ct checks each one it reports), or on
    certified runs a width above width_bound, or any failed output check,
    raises BuildCheckFailed.  t < 3 raises ValueError before any work.
    """
    if t < 3:
        raise ValueError(f"need t >= 3, got t = {t}")
    caps = caps or Caps()
    report = BuildReport(t=t, n=g.n)
    pieces = split(g)
    induced = class_atoms(g, pieces, t)
    if g.n <= caps.detect:
        ok, cert = detect.in_class_Ct(g, t, caps=caps.detect, atoms=induced)
        if not ok and not uncertified_ok:
            raise ClassViolation(cert)
        report.certified = ok

    td = _any(pieces, induced, t, caps, report, 0)

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


def _any(pieces, induced, t, caps, report, depth):
    """Decompose a graph g from its split, pieces; bags in g's ids.
    induced is class_atoms(g, pieces, t) for t >= 3.  Every atom appends
    its bags to one list and its tree edges to one more, in split order:
    a component that is a lone atom of at most two vertices is one bag,
    an edge atom {u, v} is the one bag {u, v} with no tree edge of its
    own (an edge has no hole, so no cube, hub or layer, and it is traced
    as hub-free), and every other atom is built by _atom on a certified
    build, by _hub_free (traced as uncertified) on any other, and its bags
    mapped once through its ids.
    Each component's atoms are then linked by glue_at_clique, each atom's
    first bag holding its cutset clique to the first such bag of the atom
    it hangs off, and each component's first bag to the next one's."""
    report.depth_final = max(report.depth_final, depth)
    induced = iter(induced)
    bags = []
    edges = []
    heads = []
    for atoms, glue in pieces:
        heads.append(len(bags))
        if len(atoms) == 1 and len(atoms[0]) <= 2:
            bags.append(atoms[0])
            continue
        starts = []
        for a in atoms:
            off = len(bags)
            starts.append(off)
            if len(a) == 2:
                report.trace.append({"depth": depth, "n": 2, "beta": 2,
                                     "branch": "hub-free"})
                bags.append(a)
                continue
            sub, ids = next(induced)
            if report.certified:
                td = _atom(sub, t, caps, report, depth)
            else:
                report.trace.append({"depth": depth, "n": sub.n,
                                     "branch": "uncertified"})
                td = _hub_free(sub, t)
            edges.extend((x + off, y + off) for x, y in td.edges)
            bags.extend(frozenset(ids[x] for x in bag) for bag in td.bags)
        edges += glue_at_clique(bags, starts, glue)
    edges += zip(heads, heads[1:])
    return TreeDecomposition(bags or [frozenset()], edges)


def _hub_free(g, t):
    """Decomposition of a hub-free piece, or of any atom of an uncertified
    build: greedy fill first, exact search when the greedy width misses
    the R(t,4) - 1 target and the piece is small enough."""
    td = greedy_fill_decomposition(g)
    target = ramsey(t, 4) - 1
    if td.width > target and g.n <= EXACT_TW_CAP:
        _, td = exact_treewidth(g)
    return td


def _atom(g, t, caps, report, depth):
    """Decompose one clique-cutset-free connected piece of a certified
    build; bags in g's ids."""
    # a cube inside a cutset-free class member forces fewer than 9t
    # vertices, so any decomposition is within budget; the hub-free
    # routine gives a small one
    if g.n < 9 * t and detect.find_cube(g) is not None:
        report.trace.append({"depth": depth, "n": g.n, "branch": "cube"})
        return _hub_free(g, t)

    hp = build_hub_partition(g, detect.hubs(g, caps.hole))
    report.delta_used = max(report.delta_used, hp.delta)
    report.hdim_used = max(report.hdim_used, hp.order)
    return _shrink(g, g.vertices(), hp, hp.hub_set, 0, t, caps, report,
                   depth, g.n)


def _shrink(g, ids, hp, hub, first, t, caps, report, depth, n):
    """Decompose g, a central bag of an n-vertex atom, through the hub
    layers hp.layers[first:]; bags in g's ids.

    ids maps g's ids to the atom's, in which the layers are given, and is
    increasing, so id order is the same in both; hub is g's hub set.  The
    first layer meeting hub either owns a balanced vertex, which ends the
    shrink, or cuts g down to a central bag; that bag is decomposed by the
    next step and the tree is extended back over the components it cut
    off.  The bag's decomposition stays in its own ids, as does each
    component's, and extend_tree maps them to g's in the one copy that
    writes the level's bags.  With no hub left, every later layer meets
    none of it and is passed over, and g is hub-free.
    """
    for idx in range(first, len(hp.layers)):
        layer = hp.layers[idx]
        # consumed layers must already be clear of the surviving hub set,
        # and surviving layer vertices stay low-degree towards it
        hub_ids = {ids[x] for x in hub}
        for j in range(idx):
            if hp.layers[j] & hub_ids:
                raise BuildCheckFailed(
                    f"depth {depth}, layer {idx}: consumed layer {j} "
                    f"meets the surviving hub set")
        for x in g.vertices():
            if ids[x] in layer and len(g.adj[x] & hub) > 4 * hp.delta:
                raise BuildCheckFailed(
                    f"depth {depth}, layer {idx}: vertex {ids[x]} has "
                    f"more than {4 * hp.delta} hub neighbours")
        sprime = [x for x in sorted(hub) if ids[x] in layer]
        if not sprime:
            continue
        bal = next((x for x in sprime if is_balanced(g, x)), None)
        if bal is not None:
            report.levels.append({"beta": g.n, "sprime": len(sprime),
                                  "branch": "balanced"})
            td = _balanced(g, bal, hub, t, caps, report, depth)
            report.trace.append({"depth": depth, "n": n, "beta": g.n,
                                 "branch": "balanced"})
            return td
        central = central_bag(g, sprime)
        report.levels.append({"beta": g.n, "sprime": len(sprime),
                              "branch": "shrink"})
        sub, sub_ids = g.induced(central[0])
        sub_hub = detect.hubs(sub, caps.hole)
        td = _shrink(sub, [ids[x] for x in sub_ids], hp, sub_hub, idx + 1,
                     t, caps, report, depth, n)
        t_beta = make_structured(sub, td)
        parts = _parts(g, g.components(removed=central[0]), t, caps, report,
                       depth + 1)
        return extend_tree(central, t_beta, sub_ids, parts)

    if hub:
        raise BuildCheckFailed(f"depth {depth}: final central bag of {g.n} "
                               f"vertices still has hubs")
    td = _hub_free(g, t)
    report.trace.append({"depth": depth, "n": n, "beta": g.n,
                         "branch": "hub-free"})
    return td


def _parts(g, parts, t, caps, report, depth):
    """A structured decomposition of g[part] for each vertex set in parts,
    as the (td, ids) pair Graph.induced gives: td in the part's own ids,
    ids mapping them to g's.  The extension that takes the pairs maps
    each bag through its ids in the one copy that adds its absorbed set."""
    out = []
    for part in parts:
        sub, ids = g.induced(part)
        pieces = split(sub)
        td = _any(pieces, class_atoms(sub, pieces, t), t, caps, report,
                  depth)
        out.append((make_structured(sub, td), ids))
    return out


def _balanced(g, v, hub, t, caps, report, depth):
    """Decompose a piece around a balanced vertex v: contract every
    component of g minus N[v], solve the (wheel-free) contraction by the
    hub-free routine, recurse on the components, and extend back."""
    cg = build_contraction(g, v, hub)
    t0 = make_structured(cg.h, _hub_free(cg.h, t))
    return extend_neighborhood(g, cg, t0, _parts(g, cg.parts, t, caps,
                                                 report, depth + 1))
