"""Layered graph gadgets that embed set-chase intersection into streams.

All three builders take an intersection instance whose two sides have the
same depth q and universe size k, lay the chase out as columns of k slots,
and pin an adversarial arrival order: the edge block nearest each query
endpoint arrives last on its side.  A gadget built from depth-q chases is
the hard instance for p = q - 1 passes, recorded in the stream header.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StreamFormatError
from .games import IntersectScInstance
from .util import (
    FrozenRecord,
    exact_int,
    format_canonical_rows,
    frozen_copy,
    scan_canonical_rows,
    stable_order,
)

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

__all__ = [
    "GraphStream",
    "GadgetLayout",
    "MatchingLayout",
    "build_distance_gadget",
    "build_reachability_gadget",
    "build_matching_gadget",
    "reverse_stream",
    "serialize_stream",
    "parse_stream",
]


@dataclass(frozen=True, eq=False)
class GraphStream(FrozenRecord):
    """An edge stream with a two-vertex query and a pass-budget tag.

    edges is a read-only, C-contiguous (ne, 2) int64 array; row i is the
    i-th edge to arrive.  For undirected streams the per-edge pair order is
    presentational only.
    """

    nv: int
    directed: bool
    src: int
    dst: int
    p: int
    edges: np.ndarray

    def __post_init__(self):
        for name in ("nv", "src", "dst", "p"):
            object.__setattr__(self, name, exact_int(getattr(self, name), name))
        if not isinstance(self.directed, (bool, np.bool_)):
            raise ValueError(f"directed must be a bool, got {self.directed!r}")
        object.__setattr__(self, "directed", bool(self.directed))
        if self.nv < 1:
            raise ValueError("nv must be positive")
        if self.nv > _INT64_MAX:
            raise ValueError("nv must fit int64")
        if self.p < 0:
            raise ValueError("pass tag must be non-negative")
        if self.p > _INT64_MAX:
            raise ValueError("pass tag must fit int64")
        for endpoint in (self.src, self.dst):
            if not 0 <= endpoint < self.nv:
                raise ValueError(f"query vertex {endpoint} outside [0, {self.nv})")
        try:
            edges = frozen_copy(self.edges, np.int64)
        except OverflowError:
            raise ValueError(f"edge endpoint outside [0, {self.nv})") from None
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (ne, 2), got {edges.shape}")
        loops = edges[:, 0] == edges[:, 1]
        # viewed as uint64 a negative endpoint wraps past 2**63 > nv, so one max checks both ends
        if edges.size and edges.view(np.uint64).max() >= self.nv or np.count_nonzero(loops):
            bad = loops | (edges.view(np.uint64) >= self.nv).any(axis=1)
            a, b = edges[bad.argmax()].tolist()
            if not (0 <= a < self.nv and 0 <= b < self.nv):
                raise ValueError(f"edge ({a}, {b}) outside [0, {self.nv})")
            raise ValueError(f"self-loop at vertex {a}")
        object.__setattr__(self, "edges", edges)

    @property
    def ne(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GadgetLayout:
    """Column-major vertex ids for the distance and reachability gadgets.

    Columns 0..2*depth each hold k slots; vertex id = col*k + slot.  The
    left chase walks columns 0 -> depth, the right chase 2*depth -> depth,
    so the two final sets meet (or miss) on the middle column.
    """

    k: int
    depth: int

    @property
    def ncols(self) -> int:
        return 2 * self.depth + 1

    @property
    def nv(self) -> int:
        return self.ncols * self.k

    @property
    def u(self) -> int:
        return self.vid(0, 0)

    @property
    def v(self) -> int:
        return self.vid(2 * self.depth, 0)

    def vid(self, col: int, slot: int) -> int:
        return col * self.k + slot

    def col(self, vid: int) -> int:
        return vid // self.k

    def slot(self, vid: int) -> int:
        return vid % self.k


def _table_edges(inst: IntersectScInstance) -> tuple[np.ndarray, np.ndarray]:
    """(block, slots) for every edge of the 2*depth tables, in stream order:
    block i is inst.tables()[i], the table of player i, with its edges in
    table order (by domain slot, then ascending image slot).  Edge j comes
    from table block[j]; slots[0, j] is its domain slot and slots[1, j] its
    image slot.

    The tables' offsets are concatenated, so a row's length is the next
    cell's offset minus its own; the step from one table's last cell to the
    next table's first is negative and clips to 0.  One repeat of the cell
    ids over those lengths gives each edge its cell, block*(k+1) + slot.
    """
    tables = inst.tables()
    offsets = np.concatenate([t.offsets for t in tables])
    lens = offsets[1:] - offsets[:-1]
    np.maximum(lens, 0, out=lens)
    cells = np.arange(lens.size).repeat(lens)
    slots = np.empty((2, cells.size), dtype=np.int64)
    block, _ = np.divmod(cells, inst.n + 1, out=(None, slots[0]))
    np.concatenate([t.values for t in tables], out=slots[1])
    return block, slots


def _block_columns(q: int) -> tuple[list[int], list[int]]:
    """The domain and the image column of each table block, in stream order.

    Left layer i maps column q-1-i into q-i and right layer i maps q+1+i
    into q+i, so layer 0 of each side is its outermost table.
    """
    return [*range(q - 1, -1, -1), *range(q + 1, 2 * q + 1)], [*range(q, 0, -1), *range(q, 2 * q)]


def _upward(inst: IntersectScInstance, low_id, high_id) -> np.ndarray:
    """Every table edge written (lower column's endpoint, higher column's
    endpoint), block by block, each block sorted by (first, second); row 0
    of the (2, ne) result holds the first endpoints.

    The endpoints are low_id(col, slot) and high_id(col, slot), which must
    both be of the form base(col) + slot.  Left blocks map each column into
    the next higher one and keep their table order, which is already
    sorted.  The right blocks, which come after them, map into the next
    lower column, so they swap their slots.  One stable sort on (block,
    lower slot) then sorts every block and keeps the higher slots ascending
    within each lower slot.
    """
    k, q = inst.n, inst.p
    block, slots = _table_edges(inst)
    right = sum([t.values.size for t in inst.tables()[:q]])  # the left tables' edges
    slots[:, right:] = slots[::-1, right:]
    domain, image = _block_columns(q)
    lower = domain[:q] + image[q:]
    bases = np.array([[low_id(c, 0) for c in lower], [high_id(c + 1, 0) for c in lower]])
    order = stable_order(block * k + slots[0], 2 * q * k)
    return (bases[:, block] + slots)[:, order]


def build_distance_gadget(inst: IntersectScInstance) -> GraphStream:
    """Undirected gadget where dist(u, v) = 2*depth iff the chases intersect.

    Every u-v path alternates columns by one per edge, so its length is at
    least 2*depth, with equality exactly for the monotone paths that trace a
    left chase to the middle column and a right chase back out.  When the
    final sets are disjoint the distance is at least 2*depth + 2.

    Stream order: left blocks outermost-first, then right blocks
    outermost-first, each block sorted by (source, target).  Both innermost
    blocks (the only edges touching u and v) arrive last on their side.
    """
    k, q = inst.n, inst.p
    layout = GadgetLayout(k, q)
    # table order is already (domain, image) order, so no sort is needed
    block, slots = _table_edges(inst)
    bases = np.array([[layout.vid(col, 0) for col in cols] for cols in _block_columns(q)])
    edges = (bases[:, block] + slots).T
    return GraphStream(layout.nv, False, layout.u, layout.v, q - 1, edges)


def build_reachability_gadget(inst: IntersectScInstance) -> GraphStream:
    """Directed variant: v is reachable from u iff the chases intersect.

    Same vertices and arrival order as the distance gadget, but every edge
    points toward the higher column, so the only u-v walks are the monotone
    ones.  Right-side blocks are reoriented (image endpoint becomes the
    source) and re-sorted.
    """
    k, q = inst.n, inst.p
    layout = GadgetLayout(k, q)
    edges = _upward(inst, layout.vid, layout.vid).T
    return GraphStream(layout.nv, True, layout.u, layout.v, q - 1, edges)


@dataclass(frozen=True)
class MatchingLayout:
    """Vertex ids for the perfect-matching gadget.

    Internal columns 1..2*depth-1 are split into an in-copy (reached from
    the previous column) and an out-copy (leading to the next); the boundary
    columns keep single copies, and every boundary vertex except u and v
    gets a degree-one pendant that pins its matching partner.
    """

    k: int
    depth: int

    @property
    def nv(self) -> int:
        return self.k * (4 * self.depth + 2) - 2

    @property
    def u(self) -> int:
        return 0

    @property
    def v(self) -> int:
        return self.k * (4 * self.depth - 1)

    def in_id(self, col: int, slot: int) -> int:
        if col == 2 * self.depth:
            return self.v + slot
        return self.k + 2 * self.k * (col - 1) + slot

    def out_id(self, col: int, slot: int) -> int:
        if col == 0:
            return slot
        return self.k + 2 * self.k * (col - 1) + self.k + slot

    def pendant_left(self, slot: int) -> int:
        # slots 1..k-1 only; u has no pendant
        return self.k * 4 * self.depth + (slot - 1)

    def pendant_right(self, slot: int) -> int:
        return self.k * 4 * self.depth + (self.k - 1) + (slot - 1)


def build_matching_gadget(inst: IntersectScInstance) -> GraphStream:
    """Bipartite gadget with a perfect matching iff the chases intersect.

    Pendants force their boundary partners and the in/out split pairs every
    internal vertex, leaving exactly u and v exposed.  The only alternating
    paths out of u march monotonically through out -> in gadget edges, so an
    augmenting path (hence a perfect matching) exists iff some monotone u-v
    path does, i.e. iff the final chase sets intersect.

    Stream order: all pendant and in/out pairing edges first (sorted), then
    the 2*depth gadget blocks in the distance-gadget order, each block
    written (out endpoint, in endpoint) and sorted.
    """
    k, q = inst.n, inst.p
    lay = MatchingLayout(k, q)
    # ids are base + slot, so each column's pairing edges join two ranges;
    # the boundary columns skip slot 0, as u and v have no pendant
    inner = range(1, 2 * q)
    bases = np.array([
        [lay.out_id(0, 0), *(lay.in_id(c, 0) for c in inner), lay.in_id(2 * q, 0)],
        [lay.pendant_left(1) - 1, *(lay.out_id(c, 0) for c in inner), lay.pendant_right(1) - 1],
    ])
    pairs = (bases[:, :, None] + np.arange(k)).reshape(2, -1)
    last = 2 * q * k  # v's slot 0
    edges = np.concatenate(
        (pairs[:, 1:last], pairs[:, last + 1:], _upward(inst, lay.out_id, lay.in_id)), axis=1
    ).T
    return GraphStream(lay.nv, False, lay.u, lay.v, q - 1, edges)


def reverse_stream(stream: GraphStream) -> GraphStream:
    """Same graph and query, edges arriving in the opposite order."""
    return GraphStream(
        stream.nv, stream.directed, stream.src, stream.dst, stream.p, stream.edges[::-1]
    )


def _format_header(kind: str, nv: int, ne: int, src: int, dst: int, p: int) -> str:
    return f"graphstream v1 {kind} nv={nv} ne={ne} src={src} dst={dst} p={p}"


def serialize_stream(stream: GraphStream) -> str:
    kind = "directed" if stream.directed else "undirected"
    header = _format_header(kind, stream.nv, stream.ne, stream.src, stream.dst, stream.p)
    return header + "\n" + format_canonical_rows(stream.edges, np.arange(0, 2 * stream.ne + 1, 2))


def _header_int(token: str, key: str, lineno: int) -> int:
    prefix = key + "="
    if not token.startswith(prefix):
        raise StreamFormatError(f"line {lineno}: expected {key}=<int>, got {token!r}")
    try:
        value = int(token[len(prefix):])
    except ValueError:
        raise StreamFormatError(f"line {lineno}: bad integer in {token!r}") from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise StreamFormatError(f"line {lineno}: {key}={value} does not fit int64")
    return value


def parse_stream(text: str) -> GraphStream:
    """Inverse of serialize_stream, with line-numbered diagnostics.

    Canonical text, exactly what serialize_stream writes, takes a fast path:
    a header equal to its canonical rendering, then `ne` edge lines that
    scan_canonical_rows accepts with exactly two tokens each, tokenized in
    bulk.  Any other text, valid or not, goes to the line parser, so that
    parser alone writes diagnostics and non-canonical spellings (extra
    blanks, leading zeros, '+1', tabs, CRLF line ends, no final newline)
    parse as before.  So does canonical text whose stream GraphStream
    refuses.
    """
    header, _, body = text.partition("\n")
    try:
        _, _, kind, *fields = header.split(" ")
        nv, ne, src, dst, p = (int(field.partition("=")[2]) for field in fields)
    except ValueError:
        return _parse_stream_lines(text)
    if header == _format_header(kind, nv, ne, src, dst, p) and kind in ("directed", "undirected"):
        rows = scan_canonical_rows(body, ne, width=2)
        if rows is not None:
            try:
                return GraphStream(nv, kind == "directed", src, dst, p, rows[0].reshape(-1, 2))
            except ValueError:
                pass
    return _parse_stream_lines(text)


def _parse_stream_lines(text: str) -> GraphStream:
    """The line-by-line parser: accepts any whitespace layout and reports the
    first fault with its line number."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise StreamFormatError("line 1: empty stream")
    header = lines[0].split()
    if len(header) != 8 or header[0] != "graphstream" or header[1] != "v1":
        raise StreamFormatError("line 1: expected 'graphstream v1 <kind> nv= ne= src= dst= p='")
    if header[2] not in ("directed", "undirected"):
        raise StreamFormatError(f"line 1: unknown kind {header[2]!r}")
    directed = header[2] == "directed"
    nv = _header_int(header[3], "nv", 1)
    ne = _header_int(header[4], "ne", 1)
    src = _header_int(header[5], "src", 1)
    dst = _header_int(header[6], "dst", 1)
    p = _header_int(header[7], "p", 1)
    if len(lines) - 1 != ne:
        raise StreamFormatError(f"line 1: header says ne={ne} but found {len(lines) - 1} edge lines")
    flat = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise StreamFormatError(f"line {lineno}: expected 'a b'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise StreamFormatError(f"line {lineno}: bad integer in {line!r}") from None
        if not (0 <= a < nv and 0 <= b < nv):
            raise StreamFormatError(f"line {lineno}: endpoint outside [0, {nv})")
        if a == b:
            raise StreamFormatError(f"line {lineno}: self-loop at vertex {a}")
        flat.append(a)
        flat.append(b)
    try:
        return GraphStream(nv, directed, src, dst, p, np.array(flat, dtype=np.int64).reshape(-1, 2))
    except ValueError as exc:
        raise StreamFormatError(f"line 1: {exc}") from None
