"""The end-to-end builder: width-bound formula, gluing, certified builds on
class members, and the exact small-graph fallback."""

import dataclasses
import hashlib
import random
import re

import pytest

from logtw import builder, detect, generators, treedec
from logtw.builder import Caps, ClassViolation, decompose, width_bound
from logtw.graph import BuildCheckFailed, Graph
from logtw.treedec import TreeDecomposition

import brute
from conftest import (class_members, glued, hub_layer_cases, random_tree,
                      relabelled)


def test_width_bound_values():
    assert width_bound(3, 1, 1, 0) == 99
    # doubling n adds exactly R(3,4) * (4*delta + R(3,3)) when t = 3
    for n in (16, 32, 64, 128):
        assert width_bound(3, 2 * n, 1, 0) - width_bound(3, n, 1, 0) == 90
    # monotone in every argument
    assert width_bound(3, 100, 1, 0) < width_bound(3, 200, 1, 0)
    assert width_bound(3, 100, 1, 0) < width_bound(3, 100, 2, 0)
    assert width_bound(3, 100, 1, 0) < width_bound(3, 100, 1, 1)
    assert width_bound(3, 100, 1, 0) < width_bound(4, 100, 1, 0)


def test_glue_at_clique_reassembles():
    # two triangles sharing the edge {1, 2}: atoms {0,1,2} and {1,2,3}
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), ])
    d0 = TreeDecomposition([{0, 1, 2}], [])
    d1 = TreeDecomposition([{1, 2, 3}], [])
    t = glued([d0, d1], [(0, 1, frozenset({1, 2}))])
    assert treedec.validate(g, t) is None
    assert t.width == 2


def test_glue_at_clique_links_each_atom_to_the_one_it_hangs_off():
    # several bags hold each clique; each entry (i, j, clique) links the
    # first bag of atom i's run holding it to the first of atom j's, for
    # an empty clique too; an entry that repeats an i, or whose j is not
    # after its i, is refused
    decomps = [TreeDecomposition([{0, 1}, {1}], [(0, 1)]),
               TreeDecomposition([{1, 2}, {1, 2, 3}], [(0, 1)]),
               TreeDecomposition([{3, 4}, {1, 3}], [(0, 1)]),
               TreeDecomposition([{5}], [])]
    glue = [(1, 2, frozenset({3})), (0, 1, frozenset({1})),
            (2, 3, frozenset())]
    got = glued(decomps, glue)
    assert got.edges[-3:] == ((3, 4), (0, 2), (4, 6))
    with pytest.raises(BuildCheckFailed, match="form a tree"):
        glued(decomps[:2], [(0, 1, frozenset({1}))] * 2)
    with pytest.raises(BuildCheckFailed, match="form a tree"):
        glued(decomps[:2], [(1, 0, frozenset({1}))])
    with pytest.raises(BuildCheckFailed, match="no bag contains"):
        glued(decomps[:2], [(0, 1, frozenset({0, 2}))])



def test_each_build_is_written_once(monkeypatch):
    # every atom appends its bags to the one list the build returns, and
    # each shrink or balanced level writes its bags once, in its
    # extension, mapping each part through its own ids: a forest of a
    # path, a star, an isolated vertex and an isolated edge, all edge
    # atoms and lone components, makes one TreeDecomposition
    made = []
    real = treedec.TreeDecomposition.__init__

    def counted(self, bags, edges):
        real(self, bags, edges)
        made.append(len(self.bags))
    monkeypatch.setattr(treedec.TreeDecomposition, "__init__", counted)
    g = Graph(11, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7), (9, 10)])
    td, report = decompose(g, 3)
    assert made == [len(td.bags)]
    assert treedec.validate(g, td) is None
    assert report.certified and td.width == 1
    # certified builds through one shrink level, and through a shrink and
    # a balanced level, and an uncertified wall, whose one atom is min-fill
    # at no level; the count takes in the min-fill, structuring and
    # extension decompositions too
    for (g, branches), certified, want in [
            (hub_layer_cases()[0], True, 6),
            (hub_layer_cases()[1], True, 14),
            ((generators.wall(5), []), False, 2)]:
        made.clear()
        td, report = decompose(g, 3, uncertified_ok=not certified)
        assert report.certified == certified
        assert [lv["branch"] for lv in report.levels] == branches
        assert len(made) == want and made[-1] == len(td.bags)
        assert treedec.validate(g, td) is None


def test_decompose_simple_certified():
    for g, want in [(generators.path(10), 1),
                    (generators.cycle(11), 2),
                    (generators.cycle(64), 2),
                    (Graph(5), 0),
                    (generators.clique(5), 4)]:
        t_param = 7 if want == 4 else 3
        td, report = decompose(g, t_param, caps=Caps(detect=64, hole=64))
        assert treedec.validate(g, td) is None
        assert report.certified
        assert report.achieved_width == td.width
        assert td.width <= report.bound
        assert td.width == want  # easy shapes come out exactly optimal



def test_hub_free_atom_falls_back_to_exact_search(monkeypatch):
    # one uncertified atom whose min-fill width, 10, misses R(3,4) - 1 = 8:
    # the exact search runs once, on the whole atom, and finds 9
    sizes = []
    real = builder.exact_treewidth

    def counted(g):
        sizes.append(g.n)
        return real(g)
    monkeypatch.setattr(builder, "exact_treewidth", counted)
    g = generators.random_graph(13, 0.8, 6)
    assert treedec.greedy_fill_decomposition(g).width == 10
    td, report = decompose(g, 3, uncertified_ok=True)
    assert sizes == [13]
    assert td.width == 9
    assert treedec.validate(g, td) is None
    assert report.trace == [{"depth": 0, "n": 13, "branch": "uncertified"}]

def test_decompose_rejects_forbidden_structures():
    with pytest.raises(ClassViolation) as e:
        decompose(generators.theta(2, 2, 2), 3)
    assert e.value.certificate.kind == "Theta"
    with pytest.raises(ClassViolation):
        decompose(generators.clique(4), 4)


def test_decompose_uncertified_mode():
    g = generators.wall(3)  # contains thetas, so never a class member
    with pytest.raises(ClassViolation):
        decompose(g, 3)
    td, report = decompose(g, 3, uncertified_ok=True)
    assert treedec.validate(g, td) is None
    assert not report.certified


def test_uncertified_builds_never_enter_the_construction(monkeypatch):
    # an uncertified build, by a violation under uncertified_ok or above
    # the detection cap, decomposes every atom by the hub-free routine: no
    # hub search, hub partition, central bag, balanced vertex, extension
    # or structuring runs, so neither the hole cap nor the hub budget is
    # met, and the width is the widest atom's
    def never(*args, **kwargs):
        raise AssertionError("the construction ran")
    for module, name in ((builder, "build_hub_partition"),
                         (builder, "central_bag"), (builder, "is_balanced"),
                         (builder, "extend_tree"),
                         (builder, "build_contraction"),
                         (builder, "extend_neighborhood"),
                         (builder, "make_structured"), (detect, "hubs")):
        monkeypatch.setattr(module, name, never)
    for g in (generators.wall(3), generators.wall(7), generators.wall(8),
              generators.random_graph(500, 2 / 500, 1)):
        td, report = decompose(g, 3, uncertified_ok=True)
        assert "certified=no" in report.as_lines()
        assert treedec.validate(g, td) is None
        atoms = builder.class_atoms(g, builder.split(g), 3)
        assert td.width == max(builder._hub_free(sub, 3).width
                               for sub, _ in atoms)
        assert report.levels == []
        assert [e["n"] for e in report.trace
                if e["branch"] == "uncertified"] == [sub.n for sub, _ in atoms]


def test_decompose_class_members_certified_and_bounded():
    for t_param, n in ((3, 12), (4, 12)):
        for g in class_members(t_param, n, 8, seed_base=2100):
            td, report = decompose(g, t_param, caps=Caps(detect=n, hole=n))
            assert treedec.validate(g, td) is None
            assert report.certified
            assert td.width <= report.bound
            assert td.width >= brute.brute_treewidth(g)
            assert report.n == g.n and report.t == t_param


def test_certified_builds_walk_the_hub_layers():
    for g, branches in hub_layer_cases():
        td, report = decompose(g, 3)
        assert report.certified
        assert treedec.validate(g, td) is None
        assert td.width <= report.bound
        assert [lv["branch"] for lv in report.levels] == branches


def test_shrink_passes_over_layers_clear_of_the_hub_set():
    # a shrink step handed no hub vertex finds each remaining layer clear
    # of the hub set, passes over it without a level, and ends hub-free:
    # the hub-free routine's decomposition, traced once
    g, _ = hub_layer_cases()[1]
    hp = builder.build_hub_partition(g, detect.hubs(g, g.n))
    assert [sorted(layer) for layer in hp.layers] == [[13], [14]]
    report = builder.BuildReport(t=3, n=g.n, certified=True)
    td = builder._shrink(g, g.vertices(), hp, frozenset(), 0, 3, Caps(),
                         report, 0, g.n)
    free = builder._hub_free(g, 3)
    assert (td.bags, td.edges) == (free.bags, free.edges)
    assert report.levels == []
    assert report.trace == [{"depth": 0, "n": g.n, "beta": g.n,
                             "branch": "hub-free"}]


def test_builder_output_is_pinned():
    # sha256 over the bags, edges, report lines and trace of these builds,
    # recorded from a known-good build: a change to the output, its order
    # or the report shows here
    corpus = [generators.wall(k) for k in (3, 4, 5)]
    corpus += [g for g, _ in hub_layer_cases()]
    corpus += [generators.random_graph(n, 2 / n, seed=n)
               for n in range(20, 60, 4)]
    out = []
    for g in corpus:
        td, report = decompose(g, 3, uncertified_ok=True)
        out.append(([sorted(b) for b in td.bags], td.edges,
                    list(report.as_lines()), report.trace))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "c5247ecb8bb00264a727382b4806d3bac992a4fbfadfa564812d1baebee1561c")


def test_certified_member_builds_are_pinned():
    # sha256 over the bags, edges, report lines and trace of certified
    # builds of sparse class members, which have many tiny components and
    # two-vertex atoms, recorded from a known-good build
    out = []
    for n in (32, 64, 128):
        for k in (1, 2, 3):
            g = generators.random_in_class(n, 1.2 / n, 3, seed=k)
            td, report = decompose(g, 3, caps=Caps(detect=n, hole=n))
            assert report.certified
            out.append(([sorted(b) for b in td.bags], td.edges,
                        list(report.as_lines()), report.trace))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "40ec41fef873a5adea2394cce272ea46cafaa3a85d00f0b069a5e3a6f1ee3e59")


def test_builder_reports_are_pinned():
    # sha256 over the report lines and trace alone of the two corpora
    # pinned above: a change to the bags or tree edges alone may not move
    # a report or a trace
    corpus = [(g, {"uncertified_ok": True}) for g in (
        *(generators.wall(k) for k in (3, 4, 5)),
        *(g for g, _ in hub_layer_cases()),
        *(generators.random_graph(n, 2 / n, seed=n)
          for n in range(20, 60, 4)))]
    for n in (32, 64, 128):
        corpus += [(generators.random_in_class(n, 1.2 / n, 3, seed=k),
                    {"caps": Caps(detect=n, hole=n)}) for k in (1, 2, 3)]
    out = []
    for g, kwargs in corpus:
        _, report = decompose(g, 3, **kwargs)
        out.append((list(report.as_lines()), report.trace))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "96ff6df98d1fd6e1ec8a207d0ffa530fb90896526a7d4806c402d88b084b5d3e")


def test_builder_bags_are_pinned():
    # sha256 over the bags alone, in order, of the two corpora pinned
    # above: a change to the tree edges alone may not move a bag
    corpus = [(g, {"uncertified_ok": True}) for g in (
        *(generators.wall(k) for k in (3, 4, 5)),
        *(g for g, _ in hub_layer_cases()),
        *(generators.random_graph(n, 2 / n, seed=n)
          for n in range(20, 60, 4)))]
    for n in (32, 64, 128):
        corpus += [(generators.random_in_class(n, 1.2 / n, 3, seed=k),
                    {"caps": Caps(detect=n, hole=n)}) for k in (1, 2, 3)]
    out = []
    for g, kwargs in corpus:
        td, _ = decompose(g, 3, **kwargs)
        out.append([sorted(b) for b in td.bags])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "10ab75c3f5dcc65cf47014e4a7124a8683973886ce5857ff6c002dbb6f04e2ce")


def test_cube_atoms_get_their_treewidth():
    # a cube atom is decomposed by the hub-free routine, not put in one
    # bag of all eight vertices (width 7); the cube has treewidth 3
    q = generators.cube()
    tail = Graph(10, [*q.edges(), (0, 8), (8, 9)])
    for t in (3, 4, 5):
        for g in (q, tail):
            td, report = decompose(g, t)
            assert report.certified
            assert treedec.validate(g, td) is None
            assert td.width == treedec.exact_treewidth(g)[0] == 3
            assert [e["branch"] for e in report.trace if e["n"] == 8] == [
                "cube"]


def test_long_thin_graphs_decompose_at_width_one():
    # 2999 clique-cutset atoms each, all of them edges
    for g in (generators.path(3000), random_tree(3000, seed=7)):
        td, _ = decompose(g, 3, uncertified_ok=True)
        assert treedec.validate(g, td) is None
        assert td.width == 1


def test_forests_build_one_bag_per_edge():
    # an edge atom {u, v} is the one bag {u, v}: a forest decomposes to a
    # bag per edge and one per isolated vertex, and no tree edge joins a
    # bag to one nested in it
    forest = Graph(11, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7),
                        (9, 10)])
    for g in (generators.path(3000), random_tree(3000, seed=7), forest):
        td, _ = decompose(g, 3, uncertified_ok=True)
        assert treedec.validate(g, td) is None
        isolated = sum(not g.adj[v] for v in g.vertices())
        assert len(td.bags) == g.m + isolated
        assert not any(td.bags[a] <= td.bags[b] or td.bags[b] <= td.bags[a]
                       for a, b in td.edges)


def test_split_is_in_host_ids():
    graphs = []
    for n in range(41):
        for k in range(2):
            g = generators.random_graph(n, min(1.0, 1.5 / max(n, 1)),
                                        seed=100 * n + k)
            graphs += [g, relabelled(g, seed=100 * n + k)]
    for g in graphs:
        pieces = builder.split(g)
        comps = g.components()
        assert len(pieces) == len(comps)
        for comp, (atoms, glue) in zip(comps, pieces):
            assert frozenset().union(*atoms) == comp
            if len(atoms) == 1 and len(atoms[0]) <= 2:
                assert len(comp) <= 2
            for i, j, s in glue:
                assert i < j and s <= atoms[i] & atoms[j]
                assert g.is_clique(s)
        every = [a for atoms, _ in pieces for a in atoms]
        assert all(any({u, v} <= a for a in every) for u, v in g.edges())
        for t in (2, 3, 4):
            assert [set(ids) for _, ids in builder.class_atoms(
                g, pieces, t)] == [a for a in every if t < 3 or len(a) > 2]


def test_decompose_disconnected_input():
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    td, report = decompose(g, 3)
    assert treedec.validate(g, td) is None
    assert td.width == 1


def test_one_clique_cutset_pass_per_component(monkeypatch):
    # certification and the build share one split: each component of
    # more than two vertices is split once, and nothing is split again
    g = Graph(17, [(0, 1), (1, 2), (2, 3), (3, 4),           # a path
                   (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
                   (10, 5),                                   # a 6-hole
                   (11, 12), (12, 13), (13, 11), (13, 14),   # K_3 + a leaf
                   (15, 16)])                                 # an edge
    calls = []
    real = builder.clique_cutset_atoms

    def counted(h, root):
        assert h is g
        atoms, glue = real(h, root)
        calls.append((root, len(frozenset().union(*atoms))))
        return atoms, glue
    monkeypatch.setattr(builder, "clique_cutset_atoms", counted)
    td, report = decompose(g, 4)
    assert report.certified and td.width == 2
    assert len(calls) == sum(len(c) > 2 for c in g.components()) == 3
    # each from its component's smallest vertex
    assert calls == [(0, 5), (5, 6), (11, 4)]


def test_each_atom_is_induced_once(monkeypatch):
    # certification and the build share the induced atoms: on a certified
    # build each atom of more than two vertices is induced from the input
    # once, and no other vertex set is
    rng = random.Random(18)
    graphs = [generators.cycle(12), generators.wall(3),
              Graph(9, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                        (5, 6), (6, 3), (7, 8)])]
    graphs += [relabelled(generators.random_graph(n, 2.5 / n, seed=n),
                          seed=n) for n in range(8, 30, 3)]
    real = Graph.induced
    asked = []

    def counted(self, vertices):
        if self is g:
            asked.append(frozenset(vertices))
        return real(self, vertices)
    monkeypatch.setattr(Graph, "induced", counted)
    certified = 0
    for g in graphs:
        t = rng.choice((3, 4))
        atoms = [ids for _, ids in builder.class_atoms(g, builder.split(g),
                                                       t)]
        asked.clear()
        _, report = decompose(g, t, caps=Caps(detect=g.n, hole=g.n),
                              uncertified_ok=True)
        certified += report.certified
        assert sorted(asked, key=sorted) == sorted(map(frozenset, atoms),
                                                   key=sorted)
        assert len(set(asked)) == len(asked)
    assert certified >= 3


def test_decompose_medium_class_member():
    g = generators.random_in_class(50, 1.5 / 50, 3, 11)
    assert g is not None
    td, report = decompose(g, 3, caps=Caps(detect=50, hole=50))
    assert treedec.validate(g, td) is None
    assert report.certified
    assert td.width <= report.bound


def test_report_lines():
    td, report = decompose(generators.cycle(12), 3)
    lines = list(report.as_lines())
    assert any(line.startswith("achieved_width=") for line in lines)
    assert any(line.startswith("bound=") for line in lines)
    assert "certified=yes" in lines


def test_caps_respected():
    # hole cap too small for certified detection: fails loudly, does not
    # silently degrade
    g = generators.cycle(40)
    from logtw.graph import SizeCapExceeded
    with pytest.raises(SizeCapExceeded):
        decompose(g, 3, caps=Caps(detect=40, hole=30))


def test_failed_output_check_raises_and_exits_invalid(monkeypatch, tmp_path,
                                                      capsys):
    from logtw.cli import EXIT_INVALID, main
    monkeypatch.setattr(builder, "validate", lambda g, td: "forced failure")
    with pytest.raises(builder.BuildCheckFailed):
        decompose(generators.cycle(8), 3)
    gpath = tmp_path / "c8.gr"
    main(["gen", "cycle", "8", "--out", str(gpath)])
    capsys.readouterr()
    assert main(["decompose", "--in", str(gpath), "--t", "3"]) == EXIT_INVALID
    assert "forced failure" in capsys.readouterr().err


def _fails_its_check(tmp_path, capsys, g, message):
    """decompose(g, 3) raises BuildCheckFailed with message, and `logtw
    decompose` on g exits 3 naming it, under the patches in force."""
    from logtw.cli import EXIT_INVALID, main
    from logtw.formats import write_graph
    with pytest.raises(BuildCheckFailed, match=re.escape(message)):
        decompose(g, 3)
    gpath = tmp_path / "g.gr"
    with open(gpath, "w") as fh:
        write_graph(g, fh)
    assert main(["decompose", "--in", str(gpath), "--t", "3"]) == \
        EXIT_INVALID
    assert message in capsys.readouterr().err


def _every_vertex_a_hub_at_shrink_levels(monkeypatch, atom):
    """Patch detect.hubs so that the search on atom, a whole graph with
    no clique cutset, is answered truly, and every search on a smaller
    piece, a central bag at a shrink level, finds every vertex a hub."""
    real = detect.hubs
    monkeypatch.setattr(detect, "hubs", lambda g, cap: real(g, cap)
                        if g.n == atom.n else frozenset(g.vertices()))


def test_shrink_rejects_a_consumed_layer_in_the_hub_set(monkeypatch,
                                                        tmp_path, capsys):
    # the first shrink level consumes layer 0 = {13}, which lies in the
    # central bag; a hub search there that returns it again trips the
    # next level's check
    g, _ = hub_layer_cases()[1]
    _every_vertex_a_hub_at_shrink_levels(monkeypatch, g)
    _fails_its_check(tmp_path, capsys, g,
                     "depth 0, layer 1: consumed layer 0 meets the "
                     "surviving hub set")


def test_shrink_rejects_a_layer_vertex_of_high_hub_degree(monkeypatch,
                                                          tmp_path, capsys):
    # the two adjacent hubs 12 and 13 form the layers {12}, {13} with
    # delta 2; a partition that claims delta 0 promises that no layer
    # vertex sees a hub, and 12 sees 13
    g, _ = hub_layer_cases()[2]
    real = builder.build_hub_partition
    monkeypatch.setattr(builder, "build_hub_partition",
                        lambda g, hub: dataclasses.replace(real(g, hub),
                                                           delta=0))
    _fails_its_check(tmp_path, capsys, g,
                     "depth 0, layer 0: vertex 12 has more than 0 hub "
                     "neighbours")


def test_shrink_rejects_hubs_left_in_the_final_central_bag(monkeypatch,
                                                           tmp_path, capsys):
    # one hub layer, {12}: the central bag its shrink level cuts has no
    # layer left to consume, so any hub the search there finds is left
    # over
    g, _ = hub_layer_cases()[0]
    _every_vertex_a_hub_at_shrink_levels(monkeypatch, g)
    _fails_its_check(tmp_path, capsys, g,
                     "depth 0: final central bag of 10 vertices still has "
                     "hubs")


def test_bogus_certificate_is_never_reported(monkeypatch, tmp_path,
                                             capsys):
    # a detector answer that fails its own verify() is an internal fault,
    # not a class violation: detect and decompose both exit 3
    from logtw import cli
    bogus = detect.Certificate("Theta", {"a": 0, "b": 1,
                                         "paths": [[0, 1]] * 3})
    monkeypatch.setattr(detect, "find_theta", lambda g: bogus)
    monkeypatch.setitem(cli._DETECTORS, "theta", detect.find_theta)
    for uncertified_ok in (False, True):
        with pytest.raises(builder.BuildCheckFailed):
            decompose(generators.cycle(8), 3, uncertified_ok=uncertified_ok)
    gpath = tmp_path / "c8.gr"
    cli.main(["gen", "cycle", "8", "--out", str(gpath)])
    capsys.readouterr()
    for argv in (["detect", "--in", str(gpath), "--what", "theta"],
                 ["detect", "--in", str(gpath), "--what", "class"],
                 ["decompose", "--in", str(gpath), "--t", "3"],
                 ["decompose", "--in", str(gpath), "--t", "3",
                  "--uncertified-ok"]):
        assert cli.main(argv) == cli.EXIT_INVALID, argv
        assert "Theta certificate fails its check" in capsys.readouterr().err


def test_decompose_rejects_small_t_before_any_work(monkeypatch, tmp_path,
                                                   capsys):
    from logtw.cli import EXIT_PARSE, main
    gpath = tmp_path / "c5.gr"
    main(["gen", "cycle", "5", "--out", str(gpath)])

    def never(*args, **kwargs):
        raise AssertionError("the build started")
    monkeypatch.setattr(builder, "split", never)
    monkeypatch.setattr(detect, "in_class_Ct", never)
    for flags in ([], ["--uncertified-ok"]):
        assert main(["decompose", "--in", str(gpath), "--t", "2"]
                    + flags) == EXIT_PARSE
        assert "need t >= 3, got t = 2" in capsys.readouterr().err


def test_every_caller_takes_its_atoms_from_class_atoms(monkeypatch, tmp_path,
                                                       capsys):
    # decompose, detect --what class, gen random-in-class and bench search
    # the atoms class_atoms induces, starting from the whole input
    from logtw.cli import main
    gpath = tmp_path / "c8.gr"
    main(["gen", "cycle", "8", "--out", str(gpath)])
    calls = []
    real = builder.class_atoms

    def recorded(g, pieces, t):
        calls.append((g.n, t))
        return real(g, pieces, t)
    monkeypatch.setattr(builder, "class_atoms", recorded)
    for argv, first in (
            (["decompose", "--in", str(gpath), "--t", "3"], (8, 3)),
            (["detect", "--in", str(gpath), "--what", "class", "--t", "4"],
             (8, 4)),
            (["gen", "random-in-class", "12", "0.2", "3", "--seed", "2"],
             (12, 3)),
            (["bench", "--sizes", "16"], (16, 3))):
        calls.clear()
        assert main(argv) == 0, argv
        assert calls and calls[0] == first, argv
    capsys.readouterr()
