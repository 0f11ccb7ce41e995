"""File formats and the command-line interface, driven through main()."""

import io
import random
import re
from dataclasses import fields

import pytest

from logtw import builder, cli, generators, treedec
from logtw.builder import Caps
from logtw.cli import main
from logtw.formats import (FormatError, read_graph, read_td, write_graph,
                           write_td)
from logtw.graph import Graph

import lemmas
from conftest import hub_layer_cases


def _commented(text):
    """text with a comment line and a blank line before every line."""
    return "".join(f"c a comment\n\n{line}\n" for line in text.splitlines())


def test_graph_format_round_trip():
    for g in (generators.cycle(7), Graph(5), Graph(0),
              generators.random_graph(12, 0.4, 3)):
        buf = io.StringIO()
        write_graph(g, buf)
        buf.seek(0)
        assert read_graph(buf) == g
        # `c` comment lines and blank lines are skipped
        assert read_graph(io.StringIO(_commented(buf.getvalue()))) == g


def test_td_format_round_trip():
    g = generators.cycle(8)
    _, td = treedec.exact_treewidth(g)
    buf = io.StringIO()
    write_td(td, g.n, buf)
    buf.seek(0)
    td2, n = read_td(buf)
    assert n == g.n
    assert td2.bags == td.bags and td2.edges == td.edges
    td3, n = read_td(io.StringIO(_commented(buf.getvalue())))
    assert n == g.n
    assert td3.bags == td.bags and td3.edges == td.edges


def test_graph_format_rejects_garbage():
    for text, message in (
            ("not a header\n", "edge before header"),
            ("p tw 3 1\n1 4\n", "vertex out of range"),
            ("p tw 3 2\n1 2\n", "header says 2 edges, found 1"),
            ("p tw 3 0\n1 2\n", "header says 0 edges, found 1"),
            ("p tw 3 2\n1 2\n2 1\n", "line 3: repeated edge 2 1"),
            ("p tw 2 0\np tw 2 0\n", "line 2: duplicate header"),
            ("p tw 2\n", "line 1: bad header 'p tw 2'"),
            ("p td 2 0\n", "line 1: bad header 'p td 2 0'"),
            ("p tw 3 1\n1 2 3\n", "line 2: bad edge '1 2 3'"),
            ("p tw 3 1\n1\n", "line 2: bad edge '1'"),
            ("c no header\n", "missing `p tw` header"),
            ("", "missing `p tw` header"),
            ("p tw 3 1\n2 2\n", "line 2: self-loop at 2"),
            ("p tw x 1\n", "line 1: expected integers"),
            ("p tw 3 1\n1 b\n", "line 2: expected integers"),
            ("p tw -1 0\n", "line 1: negative count in 'p tw -1 0'"),
            ("c a comment\np tw 3 -1\n",
             "line 2: negative count in 'p tw 3 -1'"),
            # two faults: the first in file order is reported
            ("p tw 3 1\n1 9\np tw 3 1\n", "line 2: vertex out of range"),
            # a header after comment and blank lines reads, and line
            # numbers count the skipped lines
            ("c one\n\nc two\np tw 2 1\n1 3\n",
             "line 5: vertex out of range")):
        with pytest.raises(FormatError, match=re.escape(message)):
            read_graph(io.StringIO(text))


def test_td_format_rejects_garbage():
    for text, message in (
            ("s td 1 1 3\nb 1 1 2 3\nb 2 1\n", "line 3: bag id out of range"),
            ("s td 1 1 3\nb 0 1\n", "line 2: bag id out of range"),
            ("s td 1 1 3\nb 1 1 2 3 4\n", "line 2: vertex out of range"),
            ("s td 2 3 3\nb 1 1 2 3\nb 2 1\n3 1\n",
             "line 4: tree edge out of range"),
            ("s td 2 3 3\nb 1 1 2 3\n0 1\nb 2 1\n",
             "line 3: tree edge out of range"),
            # a missing bag id is known only after the last line
            ("s td 3 3 3\nb 1 1 2 3\nb 3 1\n1 2\n2 3\n", "bag 2 missing"),
            ("s td 1 2 2\nb\n", "line 2: bag without an id"),
            ("s td 1 1 1\ns td 1 1 1\nb 1 1\n", "line 2: duplicate header"),
            ("s td 1 1\n", "line 1: bad header 's td 1 1'"),
            ("b 1 1\ns td 1 1 1\n", "line 1: bag before header"),
            ("s td 1 1 1\nb 1 1\nb 1 1\n", "line 3: duplicate bag 1"),
            ("s td 2 1 2\nb 1 1\nb 2 2\n1 2 3\n",
             "line 4: bad tree edge '1 2 3'"),
            ("s td 2 1 2\nb 1 1\nb 2 2\n1\n", "line 4: bad tree edge '1'"),
            ("c no header\n", "missing `s td` header"),
            ("", "missing `s td` header"),
            ("s td 1 3 2\nb 1 1 2\n", "header says width 2, bags give 1"),
            ("s td x 1 1\n", "line 1: expected integers"),
            ("s td 1 1 1\nb 1 a\n", "line 2: expected integers"),
            ("s td 2 1 2\nb 1 1\nb 2 2\n1 z\n", "line 4: expected integers"),
            ("s td 1 0 -3\nb 1\n", "line 1: negative count in 's td 1 0 -3'"),
            ("s td -1 1 1\n", "line 1: negative count in 's td -1 1 1'"),
            ("s td 1 -1 1\nb 1\n",
             "line 1: negative count in 's td 1 -1 1'"),
            # the header comes first: a tree edge before it is rejected,
            # as a bag is
            ("1 2\ns td 2 1 2\nb 1 1\nb 2 2\n",
             "line 1: tree edge before header"),
            # two faults: the first in file order is reported
            ("s td 1 1 3\nb 1 9\ns td 1 1 3\n", "line 2: vertex out of range"),
            # a header after comment and blank lines reads, and line
            # numbers count the skipped lines
            ("c one\n\nc two\ns td 1 1 3\nb 1 4\n",
             "line 5: vertex out of range")):
        with pytest.raises(FormatError, match=re.escape(message)):
            read_td(io.StringIO(text))


def _mutant(text, rng):
    """text with one seeded single-token mutation: a token dropped or
    duplicated, a letter for one of its digits, a blank or `c` line
    before its line, or a tab or a double space for a blank beside it."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    row = re.split(r"(\s+)", lines[k])  # tokens, and the blanks between
    j = rng.randrange(0, len(row), 2)
    kind = rng.choice(("drop", "dup", "letter", "line", "blank"))
    if kind == "drop":
        del row[max(j - 1, 0):j + 1]
    elif kind == "dup":
        row[j:j] = [row[j], " "]
    elif kind == "letter":
        digits = [i for i, ch in enumerate(row[j]) if ch.isdigit()]
        if digits:
            i = rng.choice(digits)
            row[j] = row[j][:i] + rng.choice("abcxz") + row[j][i + 1:]
    elif kind == "line":
        row[:0] = [rng.choice(("", "  ", "\t", "c", "c 1 2", "cc")), "\n"]
    else:
        row.insert(rng.choice((0, j, len(row))), rng.choice(("\t", "  ")))
    lines[k] = "".join(row)
    return "\n".join(lines) + "\n"


def _outcome(read, text):
    try:
        return read(io.StringIO(text))
    except FormatError as e:
        return str(e)


def test_readers_match_their_references_on_mutated_files():
    # one dropped, duplicated or mistyped token, an extra blank or `c`
    # line, or a tab or double space inside a line: the readers that
    # split each line once give the graph, the decomposition or the
    # message the readers as first written give, quoting the stripped
    # line; only a bag id or tree-edge end outside 1..N, now reported on
    # its line, and a missing bag id, now named, read differently
    moved = re.compile(r"line (\d+): (bag id|tree edge) out of range$"
                       r"|bag \d+ missing$")
    graphs = [generators.random_graph(n, p, seed=n) for n in range(2, 14)
              for p in (0.15, 0.4)]
    graphs += [generators.path(5), Graph(4, [(0, 1)]), Graph(1)]
    rng = random.Random(0)
    seen = set()
    for g in graphs:
        gr = io.StringIO()
        write_graph(g, gr)
        td = io.StringIO()
        write_td(treedec.greedy_fill_decomposition(g), g.n, td)
        for text, read, reference in (
                (gr.getvalue(), read_graph, lemmas.reference_read_graph),
                (td.getvalue(), read_td, lemmas.reference_read_td)):
            # as written, and with tabs and double spaces for its blanks
            spaced = re.sub(" ", lambda _: rng.choice((" ", "  ", "\t")),
                            text)
            for mutant in [_mutant(t, rng) for t in (text, spaced)
                           for _ in range(20)]:
                got = _outcome(read, mutant)
                want = _outcome(reference, mutant)
                if isinstance(got, str):
                    seen.add(re.sub(r"\d+", "#", got.split("'")[0]))
                hit = isinstance(got, str) and moved.match(got)
                if not hit:
                    assert got == want, mutant
                    continue
                # the reference finds the fault after the last line, or
                # a fault it checks first on the same line
                assert want in ("bag ids must be exactly 1..N",
                                "tree edge out of range") or \
                    want.startswith(f"line {hit[1]}: "), mutant
    for message in ("line #: bad edge ", "line #: bad tree edge ",
                    "line #: bad header ", "line #: expected integers",
                    "line #: bag id out of range",
                    "line #: tree edge out of range", "bag # missing"):
        assert message in seen


def test_cli_gen_detect_decompose_verify(tmp_path, capsys):
    gpath = tmp_path / "g.gr"
    tdpath = tmp_path / "t.td"
    rpath = tmp_path / "r.txt"
    assert main(["gen", "cycle", "12", "--out", str(gpath)]) == 0
    assert main(["detect", "--in", str(gpath), "--what", "theta"]) == 0
    assert "theta: none" in capsys.readouterr().out
    assert main(["decompose", "--in", str(gpath), "--t", "3",
                 "--out-td", str(tdpath), "--out-report", str(rpath)]) == 0
    out = capsys.readouterr().out
    assert "certified=yes" in out
    assert main(["verify", "--graph", str(gpath), "--td", str(tdpath)]) == 0
    assert "valid" in capsys.readouterr().out
    assert "achieved_width=" in rpath.read_text()

    # the pinched prism's certificate is a prism whose triangles share
    # the centre, its one-vertex leg
    ppath = tmp_path / "pp.gr"
    assert main(["gen", "pinched-prism", "2", "2", "--out", str(ppath)]) == 0
    assert main(["detect", "--in", str(ppath), "--what", "pinched-prism"]) == 0
    assert capsys.readouterr().out == (
        "pinched-prism: found {'paths': [[6], [0, 5, 4], [1, 2, 3]], "
        "'triangle_a': [6, 0, 1], 'triangle_b': [6, 4, 3]}\n")


def test_cli_solve(tmp_path, capsys):
    gpath = tmp_path / "c5.gr"
    main(["gen", "cycle", "5", "--out", str(gpath)])
    capsys.readouterr()
    for problem, expect in (("stable-set", "2"), ("vertex-cover", "3"),
                            ("dominating-set", "2"), ("coloring", "3")):
        assert main(["solve", "--graph", str(gpath),
                     "--problem", problem]) == 0
        assert capsys.readouterr().out.strip() == expect
    assert main(["solve", "--graph", str(gpath), "--problem", "q-coloring",
                 "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "no"


def test_cli_solve_q_coloring_takes_each_branch(tmp_path, capsys,
                                                monkeypatch):
    # edgeless, the bipartite test, the greedy bound, the clique bound,
    # and the 5-wheel's open q = 3, the only one that runs the table DP
    ran = []
    real = treedec._dp

    def spy(*args):
        ran.append(True)
        return real(*args)
    monkeypatch.setattr(treedec, "_dp", spy)
    wheel = Graph(6, [(5, i) for i in range(5)] +
                  [(i, (i + 1) % 5) for i in range(5)])
    for name, g, q, expect in (
            ("edgeless", Graph(4), 1, "yes"),
            ("c5", generators.cycle(5), 2, "no"),
            ("c5", generators.cycle(5), 3, "yes"),
            ("k4", generators.clique(4), 3, "no"),
            ("w5", wheel, 3, "no")):
        gpath = tmp_path / f"{name}.gr"
        with open(gpath, "w") as fh:
            write_graph(g, fh)
        ran.clear()
        assert main(["solve", "--graph", str(gpath), "--problem",
                     "q-coloring", "--q", str(q)]) == 0
        assert capsys.readouterr().out == f"{expect}\n"
        assert bool(ran) == (name == "w5")


def test_cli_solve_long_decomposition(tmp_path, capsys):
    # a decomposition 2,999 bags deep: bag 0 holds {0, 1}, bag i hangs off
    # bag i + 1
    g = generators.path(3000)
    gpath = tmp_path / "p.gr"
    tdpath = tmp_path / "p.td"
    main(["gen", "path", "3000", "--out", str(gpath)])
    with open(tdpath, "w") as fh:
        write_td(treedec.decomposition_from_elimination(
            g, list(g.vertices())), g.n, fh)
    capsys.readouterr()
    assert main(["solve", "--graph", str(gpath), "--td", str(tdpath),
                 "--problem", "stable-set"]) == 0
    assert capsys.readouterr().out.strip() == "1500"


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("this is not a graph\n")
    assert main(["detect", "--in", str(bad), "--what", "theta"]) == 2
    capsys.readouterr()
    # a negative header count is a parse error on its line, for the graph
    # and for the decomposition
    bad.write_text("p tw -1 0\n")
    assert main(["detect", "--in", str(bad), "--what", "theta"]) == 2
    assert "line 1: negative count in 'p tw -1 0'" in capsys.readouterr().err
    good = tmp_path / "good.gr"
    good.write_text("p tw 1 0\n")
    bad_td = tmp_path / "bad.td"
    bad_td.write_text("s td 1 0 -3\nb 1\n")
    assert main(["verify", "--graph", str(good), "--td", str(bad_td)]) == 2
    assert "line 1: negative count in 's td 1 0 -3'" in \
        capsys.readouterr().err

    theta = tmp_path / "theta.gr"
    main(["gen", "theta", "2", "2", "2", "--out", str(theta)])
    capsys.readouterr()
    assert main(["detect", "--in", str(theta), "--what", "class"]) == 5
    assert main(["decompose", "--in", str(theta), "--t", "3"]) == 5
    capsys.readouterr()
    # uncertified mode still produces a valid decomposition
    assert main(["decompose", "--in", str(theta), "--t", "3",
                 "--uncertified-ok"]) == 0
    assert "certified=no" in capsys.readouterr().out

    assert main(["gen", "complete-bipartite", "-1", "3"]) == 2
    assert "sides must be >= 0" in capsys.readouterr().err
    # a negative cap is a usage error, not a cap hit
    assert main(["detect", "--in", str(theta), "--what", "theta",
                 "--cap", "-1"]) == 2
    assert "--cap must be >= 0" in capsys.readouterr().err
    # so is a benchmark size below 1
    for sizes in ("0", "16,0", "-4"):
        assert main(["bench", "--sizes", sizes]) == 2
        assert "--sizes" in capsys.readouterr().err
    # and an edge probability p-mult / n outside [0, 1], which names both
    # flags instead of the generator's own p
    for argv in (["--sizes", "1"], ["--sizes", "16,4", "--p-mult", "5"],
                 ["--sizes", "16", "--p-mult", "-0.5"]):
        assert main(["bench", *argv]) == 2
        err = capsys.readouterr().err
        assert "--sizes" in err and "--p-mult" in err

    # so is a clique size t below 1, rejected before any search, and a
    # bench --t below the 3 that decompose needs, before any sampling
    for t in ("0", "-1"):
        assert main(["detect", "--in", str(theta), "--what", "class",
                     "--t", t]) == 2
        assert f"t must be >= 1, got t = {t}" in capsys.readouterr().err
    assert main(["gen", "random-in-class", "10", "0.3", "0"]) == 2
    assert "t must be >= 1, got t = 0" in capsys.readouterr().err
    for t in ("2", "1"):
        assert main(["bench", "--sizes", "16", "--t", t]) == 2
        assert f"--t must be >= 3, got {t}" in capsys.readouterr().err
    # solve checks --q and --t before it reads a file, so a missing graph
    # is not what is reported
    nowhere = str(tmp_path / "none.gr")
    for q in ("0", "-1", str(treedec.Q_COLORING_CAP + 1)):
        assert main(["solve", "--graph", nowhere, "--problem", "q-coloring",
                     "--q", q]) == 2
        assert (f"--q must be between 1 and {treedec.Q_COLORING_CAP}, "
                f"got {q}") in capsys.readouterr().err
    for t in ("2", "0"):
        assert main(["solve", "--graph", nowhere, "--problem", "stable-set",
                     "--t", t]) == 2
        assert f"--t must be >= 3, got {t}" in capsys.readouterr().err

    missing = tmp_path / "nope.gr"
    assert main(["detect", "--in", str(missing), "--what", "theta"]) == 2
    capsys.readouterr()
    # so is a path that cannot be read or written, here a directory
    assert main(["verify", "--graph", str(tmp_path), "--td",
                 str(tmp_path)]) == 2
    assert "error: " in capsys.readouterr().err
    assert main(["gen", "cycle", "5", "--out", str(tmp_path)]) == 2
    assert "error: " in capsys.readouterr().err

    # a certified run that needs more hole budget than allowed fails
    # loudly with the cap exit code
    c40 = tmp_path / "c40.gr"
    main(["gen", "cycle", "40", "--out", str(c40)])
    capsys.readouterr()
    assert main(["decompose", "--in", str(c40), "--t", "3",
                 "--caps", "detect=40,hole=30"]) == 4
    capsys.readouterr()
    # and so does a single finder above its --cap, checked before it runs
    assert main(["detect", "--in", str(c40), "--what", "theta",
                 "--cap", "10"]) == 4
    assert "detector capped at n <= 10, got n = 40" in \
        capsys.readouterr().err


def test_cli_gen_bench_verify_and_help_exits(tmp_path, capsys):
    assert main(["gen", "random", "6", "0.5", "--seed", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "p tw 6 8"
    # a wrong parameter count is a usage error
    for argv, message in ((["random", "6"], "random needs: n p"),
                          (["random-in-class", "6", "0.5"],
                           "random-in-class needs: n p t"),
                          (["cycle", "5", "6"], "cycle needs 1 parameter(s)")):
        assert main(["gen", *argv]) == 2
        assert f"error: {message}" in capsys.readouterr().err
    # K_3 is the only draw at p = 1, and no draw of it is triangle-free
    assert main(["gen", "random-in-class", "3", "1.0", "3"]) == 3
    assert "no class member found within the try budget" in \
        capsys.readouterr().err
    assert main(["bench", "--sizes", "3", "--p-mult", "3"]) == 3
    assert "n=3: no class member found" in capsys.readouterr().err
    # a decomposition of the right n that misses an edge is invalid
    gpath = tmp_path / "c8.gr"
    tdpath = tmp_path / "path.td"
    main(["gen", "cycle", "8", "--out", str(gpath)])
    with open(tdpath, "w") as fh:
        write_td(treedec.decomposition_from_elimination(
            generators.path(8), list(range(8))), 8, fh)
    capsys.readouterr()
    assert main(["verify", "--graph", str(gpath), "--td", str(tdpath)]) == 3
    assert capsys.readouterr().out.startswith("invalid: ")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: logtw")
    # a trailing comma in --caps is accepted, and the cap it sets holds:
    # eight vertices are above detect=5, so the build is uncertified
    assert main(["decompose", "--in", str(gpath), "--t", "3",
                 "--caps", "detect=5,"]) == 0
    assert "certified=no" in capsys.readouterr().out.splitlines()


def test_cli_uncertified_wall_finishes(tmp_path, capsys):
    # wall(7) is one 84-vertex atom full of thetas; an uncertified build
    # decomposes it by min-fill, so neither decompose --uncertified-ok nor
    # solve without --td meets the hole cap
    gpath = tmp_path / "wall7.gr"
    main(["gen", "wall", "7", "--out", str(gpath)])
    capsys.readouterr()
    assert main(["decompose", "--in", str(gpath), "--t", "3",
                 "--uncertified-ok"]) == 0
    assert "certified=no" in capsys.readouterr().out.splitlines()
    assert main(["solve", "--graph", str(gpath),
                 "--problem", "stable-set"]) == 0


def test_cli_caps_accepts_every_caps_field(tmp_path, capsys):
    gpath = tmp_path / "g.gr"
    main(["gen", "cycle", "12", "--out", str(gpath)])
    for f in fields(Caps):
        assert main(["decompose", "--in", str(gpath), "--t", "3",
                     "--caps", f"{f.name}=12"]) == 0
    for caps in ("nonsense=10", "exact=10", "structure=10",
                 "hub_budget=10"):
        assert main(["decompose", "--in", str(gpath), "--t", "3",
                     "--caps", caps]) == 2
        assert "unknown cap" in capsys.readouterr().err
    # a value that is not an integer >= 0 is a usage error naming its key,
    # not a silently uncertified build or a cap hit
    theta = tmp_path / "theta.gr"
    main(["gen", "theta", "2", "2", "2", "--out", str(theta)])
    capsys.readouterr()
    for path, caps in ((theta, "detect=-1"), (gpath, "hole=-3"),
                       (gpath, "detect"), (gpath, "hole=1.5"),
                       (gpath, "detect=12,hole=")):
        assert main(["decompose", "--in", str(path), "--t", "3",
                     "--caps", caps]) == 2
        key = caps.split(",")[-1].partition("=")[0]
        assert f"cap {key!r} must be an integer >= 0" in \
            capsys.readouterr().err


def test_cli_solve_validates_a_supplied_decomposition_once(
        tmp_path, capsys, monkeypatch):
    g = generators.cycle(8)
    gpath = tmp_path / "c8.gr"
    good = tmp_path / "good.td"
    bad = tmp_path / "bad.td"
    short = tmp_path / "short.td"
    main(["gen", "cycle", "8", "--out", str(gpath)])
    with open(good, "w") as fh:
        write_td(treedec.exact_treewidth(g)[1], g.n, fh)
    with open(bad, "w") as fh:  # a path decomposition misses edge 0-7
        write_td(treedec.decomposition_from_elimination(
            generators.path(8), list(range(8))), g.n, fh)
    with open(short, "w") as fh:
        write_td(treedec.exact_treewidth(generators.cycle(7))[1], 7, fh)
    capsys.readouterr()
    calls = []
    real = treedec.validate

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(treedec, "validate", counted)
    monkeypatch.setattr(cli, "validate", counted)
    problems = ("stable-set", "vertex-cover", "dominating-set", "coloring",
                "q-coloring")
    for problem in problems:
        calls.clear()
        assert main(["solve", "--graph", str(gpath), "--td", str(good),
                     "--problem", problem]) == 0
        assert len(calls) == 1, problem
    capsys.readouterr()
    for td in (bad, short):
        for problem in problems:
            calls.clear()
            assert main(["solve", "--graph", str(gpath), "--td", str(td),
                         "--problem", problem]) == 3
            assert len(calls) == (td == bad)
            assert capsys.readouterr().err == (
                "supplied decomposition does not fit the graph\n")


def test_cli_solve_validates_a_built_decomposition_once(
        tmp_path, capsys, monkeypatch):
    # without --td, decompose's check of its output is the only validate
    # of a decomposition of the whole graph (the build's structuring also
    # validates smaller pieces): the solvers' unchecked bodies run on it
    gpath = tmp_path / "w3.gr"
    main(["gen", "wall", "3", "--out", str(gpath)])
    capsys.readouterr()
    calls = []
    real = treedec.validate

    def counted(*args):
        calls.append(args)
        return real(*args)
    for module in (treedec, cli, builder):
        monkeypatch.setattr(module, "validate", counted)
    answers = {"stable-set": "5", "vertex-cover": "7",
               "dominating-set": "4", "coloring": "3", "q-coloring": "yes"}
    for problem, answer in answers.items():
        calls.clear()
        assert main(["solve", "--graph", str(gpath), "--problem", problem,
                     "--q", "3"]) == 0
        assert [g.n for g, _ in calls].count(12) == 1, problem
        assert capsys.readouterr().out == answer + "\n"


def test_cli_verify_rejects_wrong_decomposition(tmp_path, capsys):
    g1 = tmp_path / "g1.gr"
    g2 = tmp_path / "g2.gr"
    td = tmp_path / "g1.td"
    main(["gen", "cycle", "8", "--out", str(g1)])
    main(["gen", "clique", "5", "--out", str(g2)])
    main(["decompose", "--in", str(g1), "--t", "3", "--out-td", str(td)])
    capsys.readouterr()
    assert main(["verify", "--graph", str(g2), "--td", str(td)]) == 3
    capsys.readouterr()


def test_cli_files_equal_stdout(tmp_path, capsys):
    # what a command writes to its output file is what it prints without
    # the option
    gpath = tmp_path / "g.gr"
    assert main(["gen", "cycle", "9", "--out", str(gpath)]) == 0
    for argv, flag in ((["gen", "cycle", "9"], "--out"),
                       (["decompose", "--in", str(gpath), "--t", "3"],
                        "--out-report"),
                       (["bench", "--sizes", "8,12"], "--out")):
        out = tmp_path / "out.txt"
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, flag, str(out)]) == 0
        assert out.read_text() == printed
        # decompose prints its report whether or not it writes one
        assert capsys.readouterr().out == (
            printed if argv[0] == "decompose" else "")


def test_cli_bench_small(tmp_path):
    out = tmp_path / "bench.tsv"
    assert main(["bench", "--sizes", "16,32", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n\tlog2n\twidth\tbound\tcertified"
    assert len(lines) == 3
    first = lines[1].split("\t")
    assert first[0] == "16" and first[4] == "yes"


def test_cli_failed_glue_exits_invalid(tmp_path, capsys, monkeypatch):
    # a glue clique that no atom holds is a failed internal check of the
    # build, not a usage error
    real = builder.clique_cutset_atoms

    def unheld(g, root):
        atoms, glue = real(g, root)
        component = frozenset().union(*atoms)
        return atoms, [(i, j, component) for i, j, _ in glue]
    monkeypatch.setattr(builder, "clique_cutset_atoms", unheld)
    gpath = tmp_path / "p6.gr"
    main(["gen", "path", "6", "--out", str(gpath)])
    capsys.readouterr()
    assert main(["decompose", "--in", str(gpath), "--t", "3"]) == \
        cli.EXIT_INVALID
    assert "no bag contains the glue clique" in capsys.readouterr().err


def test_cli_failed_structuring_exits_invalid(tmp_path, capsys, monkeypatch):
    # structuring refuses a decomposition the build made, and that is a
    # failed internal check of the build, not a usage error
    monkeypatch.setattr(builder, "_hub_free",
                        lambda g, t: treedec.TreeDecomposition([()], []))
    gpath = tmp_path / "hubs.gr"
    with open(gpath, "w") as f:
        write_graph(hub_layer_cases()[0][0], f)
    assert main(["decompose", "--in", str(gpath), "--t", "3"]) == \
        cli.EXIT_INVALID
    assert "invalid input decomposition: vertex 0 in no bag" in \
        capsys.readouterr().err
