"""Line-oriented file formats: .gr edge lists and .td tree
decompositions."""

from .graph import Graph
from .treedec import TreeDecomposition


class FormatError(Exception):
    """A file did not match the expected line format."""


def _lines(fh, key, fmt, size, before):
    """Yield the counts of fh's header, `<key> <fmt>` and then size
    integers, and after them (line number, fields, text) for each later
    line; blank lines and `c` comment lines are skipped.  FormatError if
    the header is missing or is not the first line left, or on a second
    header, a malformed one or a negative count; before(fields) names
    what a line before the header holds."""
    counts = None
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != key:
            if counts is None:
                raise FormatError(
                    f"line {lineno}: {before(parts)} before header")
            yield lineno, parts, line
        elif counts is not None:
            raise FormatError(f"line {lineno}: duplicate header")
        elif len(parts) != size + 2 or parts[1] != fmt:
            raise FormatError(f"line {lineno}: bad header {line!r}")
        else:
            counts = _ints(parts[2:], lineno)
            if min(counts) < 0:
                raise FormatError(f"line {lineno}: negative count in {line!r}")
            yield counts
    if counts is None:
        raise FormatError(f"missing `{key} {fmt}` header")


def write_graph(g, fh):
    """`p tw <n> <m>` then one `<u> <v>` line per edge, 1-based ids."""
    edges = sorted(tuple(sorted(e)) for e in g.edges())
    fh.write(f"p tw {g.n} {len(edges)}\n")
    for u, v in edges:
        fh.write(f"{u + 1} {v + 1}\n")


def read_graph(fh):
    """The graph of a .gr file; FormatError on a bad header or edge line,
    a negative count in the header, an edge count other than the
    header's, a self-loop or an edge given twice."""
    lines = _lines(fh, "p", "tw", 2, lambda parts: "edge")
    n, m = next(lines)
    edges = []
    where = []
    for lineno, parts, line in lines:
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: bad edge {line!r}")
        u, v = _ints(parts, lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"line {lineno}: vertex out of range")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        edges.append((u - 1, v - 1))
        where.append(lineno)
    if len(edges) != m:
        raise FormatError(f"header says {m} edges, found {len(edges)}")
    g = Graph(n, edges)
    if g.m != m:
        # fewer distinct edges than edge lines: name the first repeat
        seen = set()
        for (u, v), lineno in zip(edges, where):
            if frozenset((u, v)) in seen:
                raise FormatError(
                    f"line {lineno}: repeated edge {u + 1} {v + 1}")
            seen.add(frozenset((u, v)))
    return g


def write_td(td, n, fh):
    """`s td <N> <w+1> <n>`, a `b <i> <v...>` line per bag, then the
    tree edges; bag ids and vertices are 1-based."""
    fh.write(f"s td {len(td.bags)} {td.width + 1} {n}\n")
    for i, bag in enumerate(td.sorted_bags):
        body = " ".join(str(v + 1) for v in bag)
        fh.write(f"b {i + 1}{' ' if body else ''}{body}\n")
    for a, b in sorted(td.edges):
        fh.write(f"{a + 1} {b + 1}\n")


def read_td(fh):
    """(TreeDecomposition, declared n); FormatError on a bad line, a
    negative count in the header, bag ids other than 1..N, a tree edge
    out of range or a width other than the header's."""
    lines = _lines(fh, "s", "td", 3,
                   lambda parts: "bag" if parts[0] == "b" else "tree edge")
    count, width_plus_1, n = next(lines)
    bags = {}
    edges = []
    for lineno, parts, line in lines:
        if parts[0] == "b":
            if len(parts) < 2:
                raise FormatError(f"line {lineno}: bag without an id")
            i, *verts = _ints(parts[1:], lineno)
            if i in bags:
                raise FormatError(f"line {lineno}: duplicate bag {i}")
            if verts and not 1 <= min(verts) <= max(verts) <= n:
                raise FormatError(f"line {lineno}: vertex out of range")
            bags[i] = frozenset(v - 1 for v in verts)
        else:
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: bad tree edge {line!r}")
            a, b = _ints(parts, lineno)
            edges.append((a - 1, b - 1))
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


def _ints(parts, lineno):
    try:
        return list(map(int, parts))
    except ValueError as e:
        raise FormatError(f"line {lineno}: expected integers") from e
