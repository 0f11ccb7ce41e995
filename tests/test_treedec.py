"""Tree decompositions: validation, exact width against brute force, and
the dynamic-programming solvers against brute force."""

import hashlib
import random
import re

import pytest

from logtw import generators, oracle, treedec
from logtw.builder import decompose
from logtw.cli import EXIT_CAP, EXIT_INVALID, main
from logtw.formats import write_graph, write_td
from logtw.graph import (BuildCheckFailed, Graph, SizeCapExceeded,
                         greedy_color_by_degeneracy, strict_degeneracy)
from logtw.treedec import TreeDecomposition

import brute
import lemmas
from conftest import random_corpus, relabelled, split_corpus


def test_validate_accepts_and_rejects():
    g = generators.path(3)
    good = TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)])
    assert treedec.validate(g, good) is None
    # missing vertex
    assert treedec.validate(g, TreeDecomposition([{0, 1}], [])) == \
        "vertex 2 in no bag"
    # missing edge
    assert treedec.validate(
        g, TreeDecomposition([{0, 1}, {2}], [(0, 1)])) == "edge 1,2 in no bag"
    # connectivity broken: vertex 1 in two non-adjacent bags only
    bad = TreeDecomposition([{0, 1}, {0, 2}, {1, 2}], [(0, 1), (1, 2)])
    assert treedec.validate(g, bad) == \
        "bags containing vertex 1 are not connected in the tree"
    # not a tree (cycle among bags)
    cyc = TreeDecomposition([{0, 1}, {1, 2}, {0, 1, 2}],
                            [(0, 1), (1, 2), (0, 2)])
    assert treedec.validate(g, cyc) == "not a tree: 3 bags, 3 edges"
    # disconnected bag-tree
    assert treedec.validate(
        g, TreeDecomposition([{0, 1}, {1, 2}], [])) == \
        "not a tree: 2 bags, 0 edges"
    assert treedec.validate(
        g, TreeDecomposition([{0, 1}, {1, 2}, {2}], [(0, 1), (0, 1)])) == \
        "not a tree: disconnected"
    # tree edges naming bags that do not exist
    three = [{0, 1}, {1, 2}, {2}]
    assert treedec.validate(g, TreeDecomposition(three, [(0, 1), (0, 5)])) \
        == "tree edge out of range: 0,5"
    assert treedec.validate(g, TreeDecomposition(three, [(0, 1), (0, -1)])) \
        == "tree edge out of range: -1,0"
    assert treedec.validate(g, TreeDecomposition([], [])) == "no bags"
    # trivial decompositions
    assert treedec.validate(Graph(0), TreeDecomposition([frozenset()],
                                                        [])) is None


def _corrupted(t, n, rng):
    """Copies of t with one bag vertex dropped, added, or out of range (-1
    and n), or one tree edge dropped, duplicated, added, or retargeted
    in range or out of it."""
    bags = [set(b) for b in t.bags]
    edges = list(t.edges)
    nodes = len(bags)
    out = []
    for _ in range(3):
        i = rng.randrange(nodes)
        if bags[i]:
            out.append((bags[:i] + [bags[i] - {rng.choice(sorted(bags[i]))}]
                        + bags[i + 1:], edges))
        for v in (rng.randrange(n), -1, n):
            out.append((bags[:i] + [bags[i] | {v}] + bags[i + 1:], edges))
        out.append((bags, edges + [(rng.randrange(nodes),
                                    rng.randrange(nodes))]))
        if edges:
            e = rng.randrange(len(edges))
            a, b = edges[e]
            rest = edges[:e] + edges[e + 1:]
            out += [(bags, rest), (bags, edges + [edges[e]])]
            out += [(bags, rest + [(a, c)])
                    for c in (rng.randrange(nodes), nodes, -1)]
    return [TreeDecomposition(b, e) for b, e in out]


def test_validate_matches_its_reference_on_corrupted_decompositions():
    # the top-bag checks give the verdict of the holding-set validate,
    # kept in lemmas, word for word, whichever bag is the root
    rng = random.Random(3100)
    graphs = [*split_corpus(), *(generators.wall(k) for k in range(3, 7)),
              *(generators.random_graph(n, p, seed=31 * n)
                for n in (12, 25, 50) for p in (2 / n, 4 / n, 0.3))]
    kinds = set()
    for g in graphs:
        t = _rerooted(treedec.greedy_fill_decomposition(g), rng)
        for bad in [t, *_corrupted(t, g.n, rng)]:
            verdict = lemmas.reference_validate(g, bad)
            assert treedec.validate(g, bad) == verdict
            kinds.add(verdict and " ".join(
                re.sub(r"-?\d+|[,\[\]]", " ", verdict).split()))
    assert kinds == {None, "not a tree: bags edges",
                     "tree edge out of range:", "not a tree: disconnected",
                     "bag contains non-vertices:", "vertex in no bag",
                     "edge in no bag",
                     "bags containing vertex are not connected in the tree"}


def test_validate_reads_no_graph_from_the_cached_shape():
    # one decomposition checked against several graphs gets each graph's
    # own verdict, in any order: only the bag tree is cached
    g = generators.wall(4)
    t = treedec.greedy_fill_decomposition(g)
    apart = next((u, v) for u in g.vertices() for v in g.vertices()
                 if not any({u, v} <= b for b in t.bags))
    graphs = [g, Graph(g.n, list(g.edges())[1:]),
              Graph(g.n, [*g.edges(), apart]),
              Graph(g.n + 1, list(g.edges())),
              Graph(g.n - 1, [e for e in g.edges() if g.n - 1 not in e])]
    verdicts = [lemmas.reference_validate(h, t) for h in graphs]
    assert verdicts[:2] == [None, None] and None not in verdicts[2:]
    for h, verdict in [*zip(graphs, verdicts), *zip(graphs[::-1],
                                                     verdicts[::-1])]:
        assert treedec.validate(h, t) == verdict


def test_cached_shape_stays_out_of_identity():
    # width, sorted_bags and shape are cached on first use, outside the
    # dataclass fields: ==, hash and repr see only bags and edges
    g = generators.wall(4)
    t = treedec.greedy_fill_decomposition(g)
    assert treedec.validate(g, t) is None
    treedec.solve_dominating_set(g, t)
    fresh = TreeDecomposition(t.bags, t.edges)
    assert {"width", "sorted_bags", "shape"} <= set(vars(t))
    assert "shape" not in vars(fresh)
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)


def test_exact_treewidth_matches_brute():
    for g in [*random_corpus(7, 30, p=0.35, seed_base=1100),
              *random_corpus(8, 20, p=0.3, seed_base=1200)]:
        w, t = treedec.exact_treewidth(g)
        assert treedec.validate(g, t) is None
        assert t.width == w == brute.brute_treewidth(g)


def test_exact_treewidth_named_graphs():
    assert treedec.exact_treewidth(generators.clique(5))[0] == 4
    assert treedec.exact_treewidth(generators.complete_bipartite(3, 3))[0] == 3
    assert treedec.exact_treewidth(generators.wall(3))[0] == 3
    assert treedec.exact_treewidth(generators.cycle(9))[0] == 2
    assert treedec.exact_treewidth(Graph(3))[0] == 0
    assert treedec.exact_treewidth(Graph(0)) == (
        -1, TreeDecomposition([frozenset()], []))
    with pytest.raises(SizeCapExceeded):
        treedec.exact_treewidth(Graph(15))


def test_greedy_fill_decomposition_always_valid():
    for g in [*random_corpus(10, 15, p=0.3, seed_base=1300),
              generators.wall(4), Graph(0), Graph(5)]:
        t = treedec.greedy_fill_decomposition(g)
        assert treedec.validate(g, t) is None
    # exact on chordal-ish easy shapes
    assert treedec.greedy_fill_decomposition(generators.path(9)).width == 1
    assert treedec.greedy_fill_decomposition(generators.cycle(9)).width == 2


def test_elimination_trees_are_reduced():
    # a decomposition read off an elimination order writes exactly the
    # elimination bags that lie inside no other, each once, and no tree
    # edge joins nested bags: on min-fill, exact and random orders
    rng = random.Random(2100)
    for g in [*split_corpus()[::3], generators.clique(5),
              generators.wall(4), Graph(5)]:
        order = list(g.vertices())
        rng.shuffle(order)
        built = [(treedec.greedy_fill_decomposition(g),
                  lemmas.reference_min_fill_order(g)),
                 (treedec.decomposition_from_elimination(g, order), order)]
        if g.n <= 10:
            built.append((treedec.exact_treewidth(g)[1], None))
        for t, order in built:
            assert treedec.validate(g, t) is None
            assert lemmas.nested_tree_edges(t) == []
            if order is None:
                continue
            bags = lemmas.reference_elimination_bags(g, order)
            assert t.width == max(map(len, bags), default=0) - 1
            assert sorted(map(sorted, t.bags)) == sorted(
                sorted(b) for b in set(bags) if not any(b < c for c in bags))
    # an empty order gives the one-empty-bag decomposition
    for t in (treedec.decomposition_from_elimination(Graph(0), []),
              treedec.greedy_fill_decomposition(Graph(0))):
        assert (t.bags, t.edges) == ((frozenset(),), ())


def test_min_fill_order_matches_its_reference():
    # the heap-selected min-fill with local recounts eliminates in the
    # order the first-written full rescan, kept in lemmas, takes
    for g in [*split_corpus(), generators.wall(6), generators.wall(7),
              Graph(0), Graph(5)]:
        assert treedec.greedy_fill_decomposition(g) == \
            treedec.decomposition_from_elimination(
                g, lemmas.reference_min_fill_order(g))


def test_min_fill_decrements_outside_and_recounts_inside():
    # (a) K_{3,3} on {0, 1, 2} and {3, 4, 5} plus the edge 34: eliminating
    # 0 adds the fill edges 35 and 45, both inside N(1), so the fill of 1,
    # outside N(0), drops from 2 to 0 and 1 goes next, before 3 (fill 1).
    # (b) the wheel with hub 1 and rim 0-3-2-4: eliminating 0 adds 34,
    # whose common neighbours are 2, outside N(0), and 1, inside it; 1
    # also loses the missing pair 02, so a decrement would leave it at 1,
    # and 2 (fill 0) would go next instead of 1
    a = Graph(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3),
                  (2, 4), (2, 5), (3, 4)])
    b = Graph(5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3),
                  (2, 4)])
    for g in (a, b):
        order = lemmas.reference_min_fill_order(g)
        assert order[:2] == [0, 1]
        assert treedec.greedy_fill_decomposition(g) == \
            treedec.decomposition_from_elimination(g, order)


def test_optimal_order_matches_its_reference():
    # walking the masks in numeric order gives the width and the order
    # that the first-written walk by size buckets, kept in lemmas, gives
    graphs = [generators.random_graph(n, p, seed=100 * n + s)
              for n in range(1, 12) for p in (0.3, 0.5, 0.8)
              for s in range(3)]
    graphs = [g for g in graphs if len(g.components()) == 1]
    assert len(graphs) >= 60
    for g in [*graphs, generators.cycle(9), generators.path(8),
              generators.clique(6), generators.complete_bipartite(3, 4)]:
        assert treedec._optimal_order(g) == lemmas.reference_optimal_order(g)


def test_chromatic_cap_names_its_size(monkeypatch, tmp_path, capsys):
    # the 5-wheel needs the 3-coloring DP, which a cap of 2 refuses
    monkeypatch.setattr(treedec, "Q_COLORING_CAP", 2)
    wheel = Graph(6, [(5, i) for i in range(5)] +
                  [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(SizeCapExceeded,
                       match="chromatic search capped at q <= 2, got q = 3"):
        treedec.solve_chromatic(wheel, treedec.greedy_fill_decomposition(
            wheel))
    gpath = tmp_path / "w5.gr"
    with open(gpath, "w") as fh:
        write_graph(wheel, fh)
    assert main(["solve", "--graph", str(gpath),
                 "--problem", "coloring"]) == EXIT_CAP
    assert "capped at q <= 2, got q = 3" in capsys.readouterr().err


def test_solvers_match_brute_force():
    graphs = [*random_corpus(8, 25, p=0.35, seed_base=1500),
              *random_corpus(10, 10, p=0.25, seed_base=1600),
              generators.cycle(5), generators.clique(5), Graph(4)]
    # relabelled copies, so that a vertex's rank in its bag (which places
    # its DP state field) and its id disagree
    graphs += [relabelled(g, seed=i) for i, g in enumerate(graphs)]
    # the builder's output has bags with many children and repeated bags
    decompositions = [
        (g, t) for g in graphs
        for t in (treedec.exact_treewidth(g)[1],
                  treedec.greedy_fill_decomposition(g),
                  decompose(g, 3, uncertified_ok=True)[0])]
    for g, t in decompositions:
        ss, ss_wit = treedec.solve_stable_set(g, t)
        assert ss == oracle.brute_stable_set(g)
        assert g.is_stable(ss_wit) and len(ss_wit) == ss
        vc, vc_wit = treedec.solve_vertex_cover(g, t)
        assert vc == oracle.brute_vertex_cover(g)
        assert len(vc_wit) == vc
        assert all(u in vc_wit or v in vc_wit for u, v in g.edges())
        assert ss + vc == g.n
        ds, ds_wit = treedec.solve_dominating_set(g, t)
        assert ds == oracle.brute_dominating_set(g)
        assert set(g.vertices()) <= set(ds_wit) | {
            w for v in ds_wit for w in g.adj[v]}
        chi = treedec.solve_chromatic(g, t)
        assert chi == oracle.brute_chromatic(g)
        ok, col = treedec.solve_q_coloring(g, t, max(chi, 1))
        assert (ok or g.n == 0)
        if chi > 1:
            bad, _ = treedec.solve_q_coloring(g, t, chi - 1)
            assert not bad


def test_q_coloring_matches_brute_force_whichever_branch_answers():
    # test_solvers_match_brute_force's corpus: the bracket answers a q
    # outside [low, high) and the DP a q inside it, for q up to the cap
    graphs = [*random_corpus(8, 25, p=0.35, seed_base=1500),
              *random_corpus(10, 10, p=0.25, seed_base=1600),
              generators.cycle(5), generators.clique(5), Graph(4)]
    graphs += [relabelled(g, seed=i) for i, g in enumerate(graphs)]
    for g in graphs:
        chi = oracle.brute_chromatic(g)
        for t in (treedec.exact_treewidth(g)[1],
                  treedec.greedy_fill_decomposition(g),
                  decompose(g, 3, uncertified_ok=True)[0]):
            for q in range(1, treedec.Q_COLORING_CAP + 1):
                ok, col = treedec.solve_q_coloring(g, t, q)
                assert ok == (chi <= q)
                if ok:
                    assert sorted(col) == list(g.vertices())
                    assert set(col.values()) <= set(range(q))
                    assert all(col[u] != col[v] for u, v in g.edges())
                else:
                    assert col is None


def test_coloring_runs_no_dp_on_sparse_and_class_inputs(monkeypatch):
    # (theta, triangle)-free graphs have a vertex of degree at most 2, so
    # the greedy degeneracy coloring needs at most 3 colors; on these
    # inputs every answer comes from the bracket (G(13, 2/13) seed 1 has
    # a K_4, which meets its greedy bound 4), and agrees with the DP's,
    # taken before it is patched away
    members = [generators.random_in_class(n, 2 / n, 3, seed)
               for n in (12, 20, 30, 40) for seed in range(4)]
    graphs = [*(g for g in members if g is not None),
              *(generators.random_graph(n, 2 / n, seed=seed)
                for n in range(12, 71) for seed in range(4)),
              *map(generators.wall, range(3, 6))]
    assert len(graphs) >= 250
    cases = []
    for g in graphs:
        t = treedec.greedy_fill_decomposition(g)
        cases.append((g, t, next(q for q in range(1, 9)
                                 if treedec._coloring_dp(g, t, q)[0])))

    def no_dp(*args):
        raise AssertionError("the table DP ran")

    monkeypatch.setattr(treedec, "_dp", no_dp)
    for g, t, chi in cases:
        ok, col = treedec.solve_q_coloring(g, t, 3)
        assert ok == (chi <= 3)
        if ok:
            assert set(col.values()) <= {0, 1, 2}
            assert all(col[u] != col[v] for u, v in g.edges())
        assert treedec.solve_chromatic(g, t) == chi


def test_solver_outputs_are_pinned():
    # sha256 over the value and sorted witness of every solver on exact,
    # greedy and builder decompositions (the builder's have bags with many
    # children), recorded from a known-good build: a change to any answer
    # or to which optimum a tie-break picks shows here
    graphs = [*random_corpus(9, 12, p=0.3, seed_base=1700),
              generators.wall(3)]
    decompositions = [(g, t) for g in graphs
                      for t in (treedec.exact_treewidth(g)[1],
                                treedec.greedy_fill_decomposition(g),
                                decompose(g, 3, uncertified_ok=True)[0])]
    for n in range(20, 40, 4):
        g = generators.random_graph(n, 2.5 / n, seed=n)
        decompositions += [(g, treedec.greedy_fill_decomposition(g)),
                           (g, decompose(g, 3, uncertified_ok=True)[0])]
    out = []
    for g, t in decompositions:
        ok, col = treedec.solve_q_coloring(g, t, 3)
        out.append([(val, sorted(wit)) for val, wit in (
            treedec.solve_stable_set(g, t),
            treedec.solve_vertex_cover(g, t),
            treedec.solve_dominating_set(g, t))]
            + [ok, sorted(col.items()) if ok else None,
               treedec.solve_chromatic(g, t)])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "dd90a8e1ecf3d3eae907a006a0a4a857f0fb613251596896c939d2e1c84c5fb0")


def test_solver_values_are_pinned():
    # sha256 over every solver's value on the decompositions pinned above,
    # and over every witness on the exact and greedy ones: only the
    # builder's bags may move a DP tie-break witness, never a value; the
    # 3-colorings come from the color bracket, whatever the decomposition
    graphs = [*random_corpus(9, 12, p=0.3, seed_base=1700),
              generators.wall(3)]
    decompositions = [(g, t, built) for g in graphs
                      for t, built in (
                          (treedec.exact_treewidth(g)[1], False),
                          (treedec.greedy_fill_decomposition(g), False),
                          (decompose(g, 3, uncertified_ok=True)[0], True))]
    for n in range(20, 40, 4):
        g = generators.random_graph(n, 2.5 / n, seed=n)
        decompositions += [
            (g, treedec.greedy_fill_decomposition(g), False),
            (g, decompose(g, 3, uncertified_ok=True)[0], True)]
    out = []
    for g, t, built in decompositions:
        answers = [treedec.solve_stable_set(g, t),
                   treedec.solve_vertex_cover(g, t),
                   treedec.solve_dominating_set(g, t)]
        ok, col = treedec.solve_q_coloring(g, t, 3)
        out.append([val for val, _ in answers]
                   + [ok, treedec.solve_chromatic(g, t)])
        if not built:
            out.append([sorted(wit) for _, wit in answers]
                       + [sorted(col.items()) if ok else None])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "3bfb2ab1222f69e842dd3ae3cd92fce326cc5f7b66c4f25d2118765d7de48157")


def _rerooted(t, rng):
    """t with its bags and tree edges shuffled, so that another bag is
    bag 0, where the DP roots t, and each bag's children come in another
    order."""
    old = list(range(len(t.bags)))
    rng.shuffle(old)  # old[i] is the bag that becomes bag i
    new = {b: i for i, b in enumerate(old)}
    edges = [(new[a], new[b]) for a, b in t.edges]
    rng.shuffle(edges)
    return TreeDecomposition([t.bags[b] for b in old], edges)


def test_solvers_match_the_introduce_time_reference():
    # the DP counts a vertex when it is forgotten; the first-written DP,
    # kept in lemmas, counted it when introduced and undid the double
    # count at joins.  Both must pick the same optimum and witness on
    # every decomposition, whichever bag is the root
    rng = random.Random(14)
    graphs = [*random_corpus(9, 10, p=0.3, seed_base=1800),
              *(relabelled(generators.wall(k), seed=k) for k in (3, 4, 5))]
    for g in graphs:
        ts = [treedec.greedy_fill_decomposition(g)]
        if g.n <= 12:  # the builder's widths on wall(4) and wall(5) are 9, 23
            ts += [treedec.exact_treewidth(g)[1],
                   decompose(g, 3, uncertified_ok=True)[0]]
        for t in ts:
            for _ in range(3):
                t = _rerooted(t, rng)
                alpha, stable = lemmas.reference_stable_set(g, t)
                assert treedec.solve_stable_set(g, t) == (alpha, stable)
                assert treedec.solve_vertex_cover(g, t) == (
                    g.n - alpha, frozenset(g.vertices()) - stable)
                assert treedec.solve_dominating_set(g, t) == \
                    lemmas.reference_dominating_set(g, t)
                colorings = {q: lemmas.reference_q_coloring(g, t, q)
                             for q in range(1, 5)}
                for q, coloring in colorings.items():
                    assert treedec._coloring_dp(g, t, q) == coloring
                assert treedec.solve_chromatic(g, t) == min(
                    q for q, (ok, _) in colorings.items() if ok)


def test_solvers_reject_invalid_decomposition():
    g = generators.cycle(5)
    broken = TreeDecomposition([{0, 1}, {2, 3, 4}], [(0, 1)])
    with pytest.raises(ValueError):
        treedec.solve_stable_set(g, broken)


def test_chromatic_rejects_invalid_decomposition_before_direct_answers():
    # edgeless and bipartite graphs are answered without the DP, but only
    # after their decomposition is checked
    for g in (Graph(3), generators.path(4), generators.cycle(6),
              generators.cycle(5)):
        broken = TreeDecomposition([range(g.n - 1)], [])
        assert treedec.validate(g, broken) == f"vertex {g.n - 1} in no bag"
        with pytest.raises(ValueError):
            treedec.solve_chromatic(g, broken)
    assert treedec.solve_chromatic(Graph(0), TreeDecomposition(
        [frozenset()], [])) == 0


def test_chromatic_bounds_decide_without_the_dp(monkeypatch):
    # odd cycles and 2-degenerate non-bipartite draws get 3 colors from
    # the greedy degeneracy coloring, and K_n finds its own K_n as the
    # lower bound, so no q-coloring DP runs, even above Q_COLORING_CAP
    def no_dp(g, t, q):
        raise AssertionError(f"the {q}-coloring DP ran")

    monkeypatch.setattr(treedec, "_coloring_dp", no_dp)
    sparse = [g for n in range(10, 60, 5) for seed in range(6)
              for g in [generators.random_graph(n, 2 / n, seed=seed)]
              if strict_degeneracy(g) <= 3
              and treedec._two_coloring(g) is None]
    assert len(sparse) >= 10
    for g in [*map(generators.cycle, range(3, 16, 2)), *sparse]:
        assert treedec.solve_chromatic(
            g, treedec.greedy_fill_decomposition(g)) == 3
    for n in range(4, 13):
        g = generators.clique(n)
        assert treedec.solve_chromatic(
            g, TreeDecomposition([range(n)], [])) == n


def test_chromatic_dp_decides_between_the_bounds(monkeypatch):
    # random_graph(10, 0.25, seed=1603), from test_solvers_match_brute_force's
    # corpus: the greedy degeneracy coloring needs 4 colors and g has no
    # K_4, so the 3-coloring DP decides, and succeeds; the 5-wheel's
    # 3-coloring DP fails, so the greedy bound 4 is the answer
    asked = []

    def recorded(g, t, q, dp=treedec._coloring_dp):
        asked.append(q)
        return dp(g, t, q)

    monkeypatch.setattr(treedec, "_coloring_dp", recorded)
    wheel = Graph(6, [(5, i) for i in range(5)] +
                  [(i, (i + 1) % 5) for i in range(5)])
    for g, chi in ((generators.random_graph(10, 0.25, seed=1603), 3),
                   (wheel, 4)):
        assert max(greedy_color_by_degeneracy(g)) + 1 == 4
        assert oracle.brute_chromatic(g) == chi
        asked.clear()
        assert treedec.solve_chromatic(
            g, treedec.greedy_fill_decomposition(g)) == chi
        assert asked == [3]


def _solver_transitions(monkeypatch, g, t):
    """(name, (k, key, introduce, forget)) of every DP the solvers run on
    (g, t), captured by wrapping _dp."""
    seen = []
    real = treedec._dp

    def spy(g, t, *transitions):
        seen.append(transitions)
        return real(g, t, *transitions)
    monkeypatch.setattr(treedec, "_dp", spy)
    out = []
    for name, solve in (
            ("stable set", treedec.solve_stable_set),
            ("dominating set", treedec.solve_dominating_set),
            *((f"{q}-coloring", lambda g, t, q=q:
               treedec._coloring_dp(g, t, q)) for q in range(1, 5))):
        seen.clear()
        solve(g, t)
        out += [(name, transitions) for transitions in seen]
    monkeypatch.setattr(treedec, "_dp", real)
    return out


def test_introduce_reads_only_neighbour_fields(monkeypatch):
    # _dp asks introduce once per neighbour pattern and ORs each candidate
    # into the state; that gives every state its own answer exactly when
    # introduce reads only the neighbours' fields and only sets bits
    g = generators.cycle(5)
    rng = random.Random(18)
    for name, (k, _, introduce, _) in _solver_transitions(
            monkeypatch, g, treedec.exact_treewidth(g)[1]):
        ones = (1 << k) - 1
        for _ in range(300):
            width = rng.randint(1, 7)
            r = rng.randrange(width)
            f = r * k
            nb = sum(1 << i * k for i in range(width)
                     if i != r and rng.random() < 0.5)
            s = rng.getrandbits(width * k) & ~(ones << f)
            got = list(introduce(s, f, nb))
            assert got == [s | c for c in introduce(s & nb * ones, f, nb)], (
                name, s, f, nb)
            assert all(c & s == s for c in got), (name, s, f, nb)


class _Marked(tuple):
    """A graph's adjacency that logs each lookup of a vertex's
    neighbours, so that the log splits into one run per introduced
    vertex."""

    def __new__(cls, adj, log):
        self = super().__new__(cls, adj)
        self.log = log
        return self

    def __getitem__(self, v):
        self.log.append(None)
        return super().__getitem__(v)


def test_dp_asks_introduce_once_per_neighbour_pattern(monkeypatch):
    g = generators.wall(5)
    t = treedec.greedy_fill_decomposition(g)
    log = []
    g.adj = _Marked(g.adj, log)
    for name, (k, key, introduce, forget) in _solver_transitions(
            monkeypatch, g, t):
        ones = (1 << k) - 1

        def asked(s, f, nb):
            log.append((s, nb))
            return introduce(s, f, nb)
        log.clear()
        treedec._dp(g, t, k, key, asked, forget)
        runs = [[]]
        for entry in log:
            if entry is None:
                runs.append([])
            else:
                runs[-1].append(entry)
        for run in runs:
            assert len(set(run)) == len(run), name
            assert all(s & nb * ones == s for s, nb in run), name
        assert any(runs), name


def test_solvers_walk_long_decompositions():
    # a path eliminated end to end, as min-fill orders it: bags {i, i+1}
    # chained 2,999 deep below bag 0
    g = generators.path(3000)
    t = treedec.decomposition_from_elimination(g, list(g.vertices()))
    assert treedec.solve_stable_set(g, t)[0] == 1500
    ds, ds_wit = treedec.solve_dominating_set(g, t)
    assert ds == len(ds_wit) == 1000
    assert len(g.closed_neighborhood(ds_wit)) == g.n
    for q in (2, 3):
        for solve in (treedec.solve_q_coloring, treedec._coloring_dp):
            ok, col = solve(g, t, q)
            assert ok and len(col) == g.n
            assert all(col[u] != col[v] for u, v in g.edges())


def test_failed_solver_check_raises_and_exits_invalid(monkeypatch, tmp_path,
                                                      capsys):
    g = generators.cycle(5)
    _, t = treedec.exact_treewidth(g)
    monkeypatch.setattr(treedec, "greedy_color_by_degeneracy",
                        lambda g: [0] * g.n)
    with pytest.raises(BuildCheckFailed, match="greedy degeneracy coloring"):
        treedec.solve_chromatic(g, t)
    monkeypatch.setattr(Graph, "is_stable", lambda self, s: False)
    with pytest.raises(BuildCheckFailed):
        treedec.solve_stable_set(g, t)
    gpath = tmp_path / "c5.gr"
    tdpath = tmp_path / "c5.td"
    main(["gen", "cycle", "5", "--out", str(gpath)])
    with open(tdpath, "w") as fh:
        write_td(t, g.n, fh)
    capsys.readouterr()
    assert main(["solve", "--graph", str(gpath), "--td", str(tdpath),
                 "--problem", "stable-set"]) == EXIT_INVALID
    assert "stable-set witness" in capsys.readouterr().err
