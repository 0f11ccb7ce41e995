"""Line-oriented file formats: .gr edge lists and .td tree
decompositions."""

from .graph import Graph
from .treedec import TreeDecomposition


class FormatError(Exception):
    """A file did not match the expected line format."""


def _lines(fh, key, fmt, size, before):
    """Yield the counts of fh's header, `<key> <fmt>` and then size
    integers, and after them (line number, fields, raw line) for each
    later line; blank lines and lines whose first field starts with `c`
    are skipped.  Each line is split once; a message that quotes a line
    quotes raw.strip().  FormatError if the header is missing or is not
    the first line left, or on a second header, a malformed one or a
    negative count; before(fields) names what a line before the header
    holds."""
    lines = enumerate(fh, 1)
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "c":
            continue
        if parts[0] != key:
            raise FormatError(f"line {lineno}: {before(parts)} before header")
        if len(parts) != size + 2 or parts[1] != fmt:
            raise FormatError(f"line {lineno}: bad header {raw.strip()!r}")
        try:
            counts = list(map(int, parts[2:]))
        except ValueError as e:
            raise FormatError(f"line {lineno}: expected integers") from e
        if min(counts) < 0:
            raise FormatError(
                f"line {lineno}: negative count in {raw.strip()!r}")
        yield counts
        break
    else:
        raise FormatError(f"missing `{key} {fmt}` header")
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "c":
            continue
        if parts[0] == key:
            raise FormatError(f"line {lineno}: duplicate header")
        yield lineno, parts, raw


def write_graph(g, fh):
    """`p tw <n> <m>` then one `<u> <v>` line per edge, 1-based ids."""
    edges = sorted(tuple(sorted(e)) for e in g.edges())
    fh.write(f"p tw {g.n} {len(edges)}\n")
    for u, v in edges:
        fh.write(f"{u + 1} {v + 1}\n")


def read_graph(fh):
    """The graph of a .gr file; FormatError on a bad header or edge line,
    a negative count in the header, a self-loop, an edge given twice or
    an edge count other than the header's.  Each edge is checked on its
    own line, against the edges before it."""
    lines = _lines(fh, "p", "tw", 2, lambda parts: "edge")
    n, m = next(lines)
    edges = []
    seen = set()
    for lineno, parts, raw in lines:
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: bad edge {raw.strip()!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError as e:
            raise FormatError(f"line {lineno}: expected integers") from e
        if not (0 < u <= n and 0 < v <= n):
            raise FormatError(f"line {lineno}: vertex out of range")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise FormatError(f"line {lineno}: repeated edge {u} {v}")
        seen.add(key)
        edges.append((u - 1, v - 1))
    if len(edges) != m:
        raise FormatError(f"header says {m} edges, found {len(edges)}")
    return Graph(n, edges)


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
    negative count in the header, a bag id or tree-edge end outside
    1..N, a bag id given twice or missing, or a width other than the
    header's.  Every fault but the last two is reported with its line,
    the header's N being known when the first body line is read."""
    lines = _lines(fh, "s", "td", 3,
                   lambda parts: "bag" if parts[0] == "b" else "tree edge")
    count, width_plus_1, n = next(lines)
    bags = [None] * count
    edges = []
    for lineno, parts, raw in lines:
        if parts[0] == "b":
            if len(parts) < 2:
                raise FormatError(f"line {lineno}: bag without an id")
            try:
                i = int(parts[1])
                bag = [int(v) - 1 for v in parts[2:]]
            except ValueError as e:
                raise FormatError(f"line {lineno}: expected integers") from e
            if not 0 < i <= count:
                raise FormatError(f"line {lineno}: bag id out of range")
            if bags[i - 1] is not None:
                raise FormatError(f"line {lineno}: duplicate bag {i}")
            if bag and not 0 <= min(bag) <= max(bag) < n:
                raise FormatError(f"line {lineno}: vertex out of range")
            bags[i - 1] = frozenset(bag)
        else:
            if len(parts) != 2:
                raise FormatError(
                    f"line {lineno}: bad tree edge {raw.strip()!r}")
            try:
                a = int(parts[0])
                b = int(parts[1])
            except ValueError as e:
                raise FormatError(f"line {lineno}: expected integers") from e
            if not (0 < a <= count and 0 < b <= count):
                raise FormatError(f"line {lineno}: tree edge out of range")
            edges.append((a - 1, b - 1))
    if None in bags:
        raise FormatError(f"bag {bags.index(None) + 1} missing")
    td = TreeDecomposition(bags, edges)
    if td.width + 1 != width_plus_1:
        raise FormatError(
            f"header says width {width_plus_1 - 1}, bags give {td.width}")
    return td, n
