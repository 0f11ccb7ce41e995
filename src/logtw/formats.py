"""Line-oriented file formats: .gr edge lists, .td tree decompositions,
and the key=value build report."""

from .graph import Graph
from .treedec import TreeDecomposition


class FormatError(Exception):
    """A file did not match the expected line format."""


def write_graph(g, fh):
    """`p tw <n> <m>` then one `<u> <v>` line per edge, 1-based ids."""
    edges = sorted(tuple(sorted(e)) for e in g.edges())
    fh.write(f"p tw {g.n} {len(edges)}\n")
    for u, v in edges:
        fh.write(f"{u + 1} {v + 1}\n")


def read_graph(fh):
    n = m = None
    edges = []
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "tw":
                raise FormatError(f"line {lineno}: bad header {line!r}")
            n, m = _ints(parts[2:4], lineno)
        else:
            if n is None:
                raise FormatError(f"line {lineno}: edge before header")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: bad edge {line!r}")
            u, v = _ints(parts, lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"line {lineno}: vertex out of range")
            edges.append((u - 1, v - 1))
    if n is None:
        raise FormatError("missing `p tw` header")
    if len(edges) != m:
        raise FormatError(f"header says {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except ValueError as e:
        raise FormatError(str(e)) from e


def write_td(td, n, fh):
    """`s td <N> <w+1> <n>`, a `b <i> <v...>` line per bag, then the
    tree edges; bag ids and vertices are 1-based."""
    fh.write(f"s td {len(td.bags)} {td.width + 1} {n}\n")
    for i, bag in enumerate(td.bags):
        body = " ".join(str(v + 1) for v in sorted(bag))
        fh.write(f"b {i + 1}{' ' if body else ''}{body}\n")
    for a, b in sorted(td.edges):
        fh.write(f"{a + 1} {b + 1}\n")


def read_td(fh):
    """(TreeDecomposition, declared n)."""
    header = None
    bags = {}
    edges = []
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise FormatError(f"line {lineno}: bad header {line!r}")
            header = _ints(parts[2:5], lineno)
        elif parts[0] == "b":
            if header is None:
                raise FormatError(f"line {lineno}: bag before header")
            if len(parts) < 2:
                raise FormatError(f"line {lineno}: bag without an id")
            i, *verts = _ints(parts[1:], lineno)
            if i in bags:
                raise FormatError(f"line {lineno}: duplicate bag {i}")
            if any(not (1 <= v <= header[2]) for v in verts):
                raise FormatError(f"line {lineno}: vertex out of range")
            bags[i] = frozenset(v - 1 for v in verts)
        else:
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: bad tree edge {line!r}")
            a, b = _ints(parts, lineno)
            edges.append((a - 1, b - 1))
    if header is None:
        raise FormatError("missing `s td` header")
    count, width_plus_1, n = header
    if sorted(bags) != list(range(1, count + 1)):
        raise FormatError("bag ids must be exactly 1..N")
    ordered = [bags[i] for i in range(1, count + 1)]
    if any(not (0 <= a < count and 0 <= b < count) for a, b in edges):
        raise FormatError("tree edge out of range")
    td = TreeDecomposition(ordered, edges)
    if td.width + 1 != width_plus_1:
        raise FormatError(
            f"header says width {width_plus_1 - 1}, bags give {td.width}")
    return td, n


def write_report(report, fh):
    for line in report.as_lines():
        fh.write(line + "\n")


def _ints(parts, lineno):
    try:
        return [int(p) for p in parts]
    except ValueError as e:
        raise FormatError(f"line {lineno}: expected integers") from e
