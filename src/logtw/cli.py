"""Command-line surface: generate graphs, detect structures, build and
verify decompositions, run the tree-decomposition solvers, and benchmark
width against graph size.

Exit codes: 0 success, 2 parse error or a file that cannot be read or
written, 3 validation failure (including a failed check on the builder's
or a solver's output), 4 exact-search cap exceeded, 5 forbidden structure
without --uncertified-ok.
"""

import argparse
import sys
from dataclasses import fields

from . import builder, detect, generators, treedec
from .builder import Caps, ClassViolation, decompose
from .formats import (FormatError, read_graph, read_td, write_graph,
                      write_report, write_td)
from .graph import BuildCheckFailed, SizeCapExceeded
from .treedec import Q_COLORING_CAP, validate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CAP = 4
EXIT_CLASS = 5

_FAMILIES = {
    "cycle": (generators.cycle, 1),
    "clique": (generators.clique, 1),
    "path": (generators.path, 1),
    "complete-bipartite": (generators.complete_bipartite, 2),
    "theta": (generators.theta, 3),
    "pyramid": (generators.pyramid, 3),
    "prism": (generators.prism, 3),
    "pinched-prism": (generators.pinched_prism, 2),
    "cube": (generators.cube, 0),
    "wall": (generators.wall, 1),
}

_DETECTORS = {
    "theta": detect.find_theta,
    "pyramid": detect.find_pyramid,
    "prism": detect.find_prism,
    "pinched-prism": detect.find_pinched_prism,
    "cube": detect.find_cube,
}


def _load_graph(path):
    with open(path) as fh:
        return read_graph(fh)


def _parse_caps(text):
    caps = {}
    for item in text.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        if key not in {f.name for f in fields(Caps)}:
            raise ValueError(f"unknown cap {key!r}")
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"cap {key!r} must be an integer >= 0, "
                             f"got {value!r}")
        caps[key] = int(value)
    return Caps(**caps)


def cmd_gen(args):
    if args.family == "random":
        if len(args.params) != 2:
            raise ValueError("random needs: n p")
        g = generators.random_graph(int(args.params[0]),
                                    float(args.params[1]), args.seed)
    elif args.family == "random-in-class":
        if len(args.params) != 3:
            raise ValueError("random-in-class needs: n p t")
        g = generators.random_in_class(int(args.params[0]),
                                       float(args.params[1]),
                                       int(args.params[2]), args.seed)
        if g is None:
            print("no class member found within the try budget",
                  file=sys.stderr)
            return EXIT_INVALID
    else:
        fn, arity = _FAMILIES[args.family]
        if len(args.params) != arity:
            raise ValueError(f"{args.family} needs {arity} parameter(s)")
        g = fn(*(int(p) for p in args.params))
    if args.out:
        with open(args.out, "w") as fh:
            write_graph(g, fh)
    else:
        write_graph(g, sys.stdout)
    return EXIT_OK


def cmd_detect(args):
    if args.cap < 0:
        raise ValueError("--cap must be >= 0")
    g = _load_graph(args.infile)
    cap = args.cap if args.cap else g.n
    if args.what == "class":
        atoms = builder.class_atoms(g, builder.split(g), args.t)
        ok, cert = detect.in_class_Ct(g, args.t, caps=cap, atoms=atoms)
        if ok:
            print(f"in-class t={args.t}")
            return EXIT_OK
        print(f"violation: {cert.kind} {dict(sorted(cert.roles.items()))}")
        return EXIT_CLASS
    detect.check_cap(g, cap)
    cert = _DETECTORS[args.what](g)
    if cert is None:
        print(f"{args.what}: none")
    else:
        cert.check(g)
        print(f"{args.what}: found {dict(sorted(cert.roles.items()))}")
    return EXIT_OK


def cmd_decompose(args):
    g = _load_graph(args.infile)
    caps = _parse_caps(args.caps) if args.caps else Caps()
    td, report = decompose(g, args.t, caps=caps,
                           uncertified_ok=args.uncertified_ok)
    if args.out_td:
        with open(args.out_td, "w") as fh:
            write_td(td, g.n, fh)
    if args.out_report:
        with open(args.out_report, "w") as fh:
            write_report(report, fh)
    for line in report.as_lines():
        print(line)
    return EXIT_OK


def cmd_verify(args):
    g = _load_graph(args.graph)
    with open(args.td) as fh:
        td, n = read_td(fh)
    if n != g.n:
        print(f"vertex count mismatch: graph {g.n}, decomposition {n}")
        return EXIT_INVALID
    bad = validate(g, td)
    if bad is not None:
        print(f"invalid: {bad}")
        return EXIT_INVALID
    print(f"valid: width {td.width}")
    return EXIT_OK


def cmd_solve(args):
    if args.problem == "q-coloring" and not 1 <= args.q <= Q_COLORING_CAP:
        raise ValueError(f"--q must be between 1 and {Q_COLORING_CAP}, "
                         f"got {args.q}")
    if not args.td and args.t < 3:
        raise ValueError(f"--t must be >= 3, got {args.t}")
    g = _load_graph(args.graph)
    if args.td:
        with open(args.td) as fh:
            td, n = read_td(fh)
        if n != g.n or validate(g, td) is not None:
            print("supplied decomposition does not fit the graph",
                  file=sys.stderr)
            return EXIT_INVALID
    else:
        td, _ = decompose(g, args.t, uncertified_ok=True)
    # td is valid either way (decompose validates its output), so the
    # solvers' unchecked bodies run
    if args.problem == "stable-set":
        value, _ = treedec._stable_set(g, td)
    elif args.problem == "vertex-cover":
        value, _ = treedec._vertex_cover(g, td)
    elif args.problem == "dominating-set":
        value, _ = treedec._dominating_set(g, td)
    elif args.problem == "coloring":
        value = treedec._chromatic(g, td)
    else:  # q-coloring
        ok, _ = treedec._q_coloring(g, td, args.q)
        value = "yes" if ok else "no"
    print(value)
    return EXIT_OK


def cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",")]
    if min(sizes) < 1:
        raise ValueError("--sizes must all be >= 1")
    if args.t < 3:
        raise ValueError(f"--t must be >= 3, got {args.t}")
    if not 0 <= args.p_mult <= min(sizes):
        raise ValueError(f"the edge probability --p-mult / n must be in "
                         f"[0, 1] for every n in --sizes; got --p-mult "
                         f"{args.p_mult} and n = {min(sizes)}")
    rows = []
    for n in sizes:
        g = generators.random_in_class(n, args.p_mult / n, args.t,
                                       seed=args.seed)
        if g is None:
            print(f"n={n}: no class member found", file=sys.stderr)
            return EXIT_INVALID
        caps = Caps(detect=n, hole=n)
        td, report = decompose(g, args.t, caps=caps, uncertified_ok=True)
        rows.append((n, (n - 1).bit_length(), td.width, report.bound,
                     "yes" if report.certified else "no"))
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("n\tlog2n\twidth\tbound\tcertified\n")
        for row in rows:
            out.write("\t".join(str(x) for x in row) + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="logtw",
        description="tree decompositions with certified logarithmic width "
                    "for graphs excluding thetas, pyramids, generalized "
                    "prisms and large cliques")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("family",
                   choices=sorted(_FAMILIES) + ["random", "random-in-class"])
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("detect", help="search for a forbidden structure")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--what", required=True,
                   choices=sorted(_DETECTORS) + ["class"])
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--cap", type=int, default=0,
                   help="detection size cap (default: no cap)")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("decompose", help="build a tree decomposition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out-td")
    p.add_argument("--out-report")
    p.add_argument("--uncertified-ok", action="store_true")
    p.add_argument("--caps", help="comma list, e.g. detect=60,hole=128")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="check a decomposition file")
    p.add_argument("--graph", required=True)
    p.add_argument("--td", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve", help="run a solver on a decomposition")
    p.add_argument("--graph", required=True)
    p.add_argument("--td")
    p.add_argument("--t", type=int, default=3,
                   help="class parameter when decomposing on the fly")
    p.add_argument("--problem", required=True,
                   choices=["stable-set", "vertex-cover", "dominating-set",
                            "coloring", "q-coloring"])
    p.add_argument("--q", type=int, default=3)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bench", help="width vs size table (TSV)")
    p.add_argument("--sizes", default="16,32,64,128,256")
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--p-mult", type=float, default=1.2,
                   help="edge probability = p-mult / n")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code else EXIT_OK
    try:
        return args.fn(args)
    except (FormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except SizeCapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except BuildCheckFailed as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ClassViolation as e:
        cert = e.certificate
        print(f"forbidden structure: {cert.kind} "
              f"{dict(sorted(cert.roles.items()))}", file=sys.stderr)
        return EXIT_CLASS


if __name__ == "__main__":
    sys.exit(main())
