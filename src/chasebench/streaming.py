"""Multipass streaming harness with honest state accounting.

An algorithm takes each pass whole, as the stream's read-only (ne, 2) edge
array with row i the i-th edge to arrive.  At every pass boundary the
harness serializes the algorithm's state, records its size, and restores
from the bytes, so nothing survives a pass except what the serializer
carries.  In-pass working memory is deliberately not counted; reports say
what was measured, not an estimate.

State layout.  The BFS baselines and directed-frontier write a
little-endian 32-bit level word, then the rows of one (count, nv) bool
array, each packed MSB-first into ceil(nv/8) bytes: forward-bfs its
visited and frontier rows, bidir-bfs both balls' visited rows then both
frontier rows, directed-frontier a level word that stays 0 and its one
visited row.  union-find writes each vertex's root as a ceil(log2 nv)-bit
word, most significant bit first (util.pack_uints).  restore_state raises
ValueError for a blob of any other length; the mask baselines' for a set
padding bit after a row's last vertex or a level word no run reaches
(above bound / balls for the BFS baselines, above 0 for
directed-frontier); union-find's for a root beyond the last vertex.

scipy is imported inside union-find's run_pass, on its first call, so
the BFS baselines and directed-frontier never load it.
"""
from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gadgets import GraphStream
from .util import exact_int, pack_uints, unpack_uints

__all__ = [
    "StreamMeta",
    "StreamingAlgorithm",
    "RunReport",
    "run_streaming",
    "alg_bidirectional_bfs",
    "alg_forward_bfs",
    "alg_union_find",
    "alg_directed_frontier",
    "ALGORITHMS",
]


@dataclass(frozen=True)
class StreamMeta:
    """The public header of a stream: everything but the edges."""

    nv: int
    directed: bool
    src: int
    dst: int
    p: int

    @classmethod
    def of(cls, stream: GraphStream) -> "StreamMeta":
        return cls(stream.nv, stream.directed, stream.src, stream.dst, stream.p)


class StreamingAlgorithm(ABC):
    """One-pass-at-a-time edge consumer.

    Lifecycle: init(meta) once, which may already return an answer (a
    0-pass algorithm); then run_pass(edges) once per pass, returning the
    answer bit or None to request another pass.  Cross-pass state must
    survive serialize_state / restore_state, which the harness round-trips
    at every boundary.
    """

    name = "abstract"

    @abstractmethod
    def init(self, meta: StreamMeta) -> Optional[int]: ...

    @abstractmethod
    def run_pass(self, edges: np.ndarray) -> Optional[int]: ...

    @abstractmethod
    def serialize_state(self) -> bytes: ...

    @abstractmethod
    def restore_state(self, blob: bytes) -> None: ...


@dataclass(frozen=True)
class RunReport:
    """answer is None when the pass budget ran out before a decision."""

    answer: Optional[int]
    passes_used: int
    max_state_bits: int


def _checkpoint(alg: StreamingAlgorithm) -> int:
    blob = alg.serialize_state()
    alg.restore_state(blob)
    return len(blob) * 8


def run_streaming(alg: StreamingAlgorithm, stream: GraphStream, pass_budget: int) -> RunReport:
    """Drive alg over the stream until it answers or the budget runs out.

    A pass is charged when it begins; answering at the end of pass i means
    passes_used == i.  max_state_bits is the largest serialized state seen
    at any boundary (after init and after every pass).
    """
    pass_budget = exact_int(pass_budget, "pass budget")
    if pass_budget < 0:
        raise ValueError("pass budget must be non-negative")
    answer = alg.init(StreamMeta.of(stream))
    max_bits = _checkpoint(alg)
    passes = 0
    while answer is None and passes < pass_budget:
        passes += 1
        answer = alg.run_pass(stream.edges)
        max_bits = max(max_bits, _checkpoint(alg))
    return RunReport(answer if answer is None else int(answer), passes, max_bits)


def _pack_masks(level: int, masks: np.ndarray) -> bytes:
    """The little-endian 32-bit level word, then each row of the (count, nv)
    bool array packed MSB-first into ceil(nv/8) bytes."""
    return struct.pack("<I", level) + np.packbits(masks, axis=1).tobytes()


def _unpack_masks(
    blob: bytes, n: int, count: int, max_level: int = 2**32 - 1
) -> tuple[int, np.ndarray]:
    """Inverse of _pack_masks: the level and the (count, n) bool array.
    Refuses a level above max_level and a set padding bit after a row's
    last vertex, which _pack_masks never writes."""
    step = (n + 7) // 8
    if len(blob) != 4 + count * step:
        raise ValueError(f"state blob has {len(blob)} bytes, not 4 + {count}*{step}")
    (level,) = struct.unpack_from("<I", blob)
    if level > max_level:
        raise ValueError(
            f"state blob holds level {level}, above the last reachable level {max_level}"
        )
    rows = np.frombuffer(blob, dtype=np.uint8, offset=4).reshape(count, step)
    if (rows[:, -1] & ((1 << (8 * step - n)) - 1)).any():
        raise ValueError("state blob sets a padding bit after the last vertex")
    return level, np.unpackbits(rows, axis=1, count=n).view(bool)


def _reached(frontier: np.ndarray, edges: np.ndarray, directed: bool) -> np.ndarray:
    """Vertices one edge from a frontier frozen for the whole pass (along
    the edge direction when directed), so arrival order cannot matter."""
    a, b = edges[:, 0], edges[:, 1]
    out = np.zeros(len(frontier), dtype=bool)
    out[b[frontier[a]]] = True
    if not directed:
        out[a[frontier[b]]] = True
    return out


class _LevelBfs(StreamingAlgorithm):
    """Decides dist(src, dst) <= D by growing one BFS level per pass, from
    src alone (forward-bfs) or from both endpoints at once (bidir-bfs).

    visited and frontier are (balls, nv) masks, row 0 growing from src and
    row 1, when there is one, from dst.  Frontiers are frozen when a pass
    begins, so after pass i each ball has radius exactly i, independent of
    edge arrival order.  The forward ball holds dst iff the distance is at
    most i, so a distance-D target costs D passes; two balls meet iff it is
    at most 2i, so the two-sided run needs ceil(D/2) passes.  A ball that
    stops growing proves the answer 0: separate components never meet.
    """

    def __init__(self, distance_bound: int, bidirectional: bool):
        distance_bound = exact_int(distance_bound, "distance bound")
        if bidirectional and (distance_bound < 0 or distance_bound % 2 != 0):
            # level-synchronized growth from both ends decides even thresholds only
            raise ValueError("distance bound must be even and non-negative")
        if distance_bound < 0:
            raise ValueError("distance bound must be non-negative")
        self.bound = distance_bound
        self.balls = 2 if bidirectional else 1
        self.name = "bidir-bfs" if bidirectional else "forward-bfs"

    def init(self, meta: StreamMeta) -> Optional[int]:
        if meta.directed and self.balls == 2:
            raise ValueError("bidirectional search needs an undirected stream")
        self.n = meta.nv
        self.dst = meta.dst
        self.directed = meta.directed
        self.level = 0
        self.visited = np.zeros((self.balls, self.n), dtype=bool)
        self.visited[range(self.balls), (meta.src, meta.dst)[:self.balls]] = True
        self.frontier = self.visited.copy()
        if meta.src == meta.dst:
            return 1
        if self.bound == 0:
            return 0
        return None

    def run_pass(self, edges: np.ndarray) -> Optional[int]:
        self.level += 1
        self.frontier = np.array([_reached(fr, edges, self.directed) for fr in self.frontier])
        self.frontier &= ~self.visited
        self.visited |= self.frontier
        if self.visited[0, self.dst] or (self.balls == 2 and self.visited.all(axis=0).any()):
            return 1
        if self.balls * self.level >= self.bound or not self.frontier.any(axis=1).all():
            return 0
        return None

    def serialize_state(self) -> bytes:
        return _pack_masks(self.level, np.concatenate((self.visited, self.frontier)))

    def restore_state(self, blob: bytes) -> None:
        # a run answers by the pass at which the balls' radii sum to the
        # bound, which bidir-bfs keeps even
        last = self.bound // self.balls
        self.level, masks = _unpack_masks(blob, self.n, 2 * self.balls, last)
        self.visited, self.frontier = masks[:self.balls], masks[self.balls:]


class _UnionFind(StreamingAlgorithm):
    """Undirected src-dst connectivity in a single pass.

    State is one root per vertex: the smallest vertex of its component
    among the edges seen so far, packed at ceil(log2 nv) bits, so the
    measured state is nv words.  A pass joins each vertex to its stored
    root and adds the pass's edges, then takes the components in one
    library call.
    """

    name = "union-find"

    def init(self, meta: StreamMeta) -> Optional[int]:
        if meta.directed:
            raise ValueError("union-find decides undirected connectivity only")
        self.n = meta.nv
        self.src = meta.src
        self.dst = meta.dst
        self.width = max(1, (self.n - 1).bit_length())
        self.root = np.arange(self.n)
        if meta.src == meta.dst:
            return 1
        return None

    def run_pass(self, edges: np.ndarray) -> Optional[int]:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        a = np.concatenate((edges[:, 0], np.arange(self.n)))
        b = np.concatenate((edges[:, 1], self.root))
        # float64 data: csgraph copies any other dtype into float64 first
        graph = csr_matrix((np.ones(a.size), (a, b)), shape=(self.n, self.n))
        _, label = connected_components(graph, directed=False)
        # the first vertex of each label is its component's smallest
        self.root = np.unique(label, return_index=True)[1][label]
        return int(self.root[self.src] == self.root[self.dst])

    def serialize_state(self) -> bytes:
        return pack_uints(self.root, self.width)

    def restore_state(self, blob: bytes) -> None:
        self.root = unpack_uints(blob, self.width, self.n)
        if np.any(self.root >= self.n):
            raise ValueError("state blob holds a root beyond the last vertex")


class _DirectedFrontier(StreamingAlgorithm):
    """Reachability by chaining marks within a pass, in arrival order.

    Processing edge (a, b) marks b as soon as a is already marked (and, on
    an undirected stream, a as soon as b is), so a stream sorted along the
    path direction can resolve many hops per pass, while an adversarial
    order still forces one block of progress per pass.  A pass that marks
    nothing new proves the frontier stable: answer 0.

    The per-edge scan sees only the edges that can fire.  A vertex unmarked
    when the pass begins can be marked only by an earlier edge of the pass
    that has it as target (on an undirected stream, as either end).  So a
    directed edge cannot fire when its target is already marked, nor when
    its source is unmarked and no earlier edge targets it; an undirected
    edge cannot fire when both ends are marked, nor when neither end is
    marked or touched by an earlier edge.  Dropping edges that never fire
    changes no mark, so the kept edges see the same marks in the same
    order as in the full scan.
    """

    name = "directed-frontier"

    def init(self, meta: StreamMeta) -> Optional[int]:
        self.n = meta.nv
        self.dst = meta.dst
        self.directed = meta.directed
        self.vis = np.zeros(self.n, dtype=bool)
        self.vis[meta.src] = True
        if meta.src == meta.dst:
            return 1
        return None

    def run_pass(self, edges: np.ndarray) -> Optional[int]:
        tails, heads = edges[:, 0], edges[:, 1]
        index = np.arange(len(edges))
        # first[x]: the index of the first edge that can mark x, len(edges) if none
        first = np.full(self.n, len(edges))
        if self.directed:
            np.minimum.at(first, heads, index)
            live = ~self.vis[heads] & (self.vis[tails] | (first[tails] < index))
        else:
            np.minimum.at(first, edges.ravel(), index.repeat(2))
            at_tail, at_head = self.vis[tails], self.vis[heads]
            reach = at_tail | at_head | (first[tails] < index) | (first[heads] < index)
            live = ~(at_tail & at_head) & reach
        vis, undirected, changed = self.vis.tolist(), not self.directed, False
        for a, b in zip(tails[live].tolist(), heads[live].tolist()):
            if vis[a] and not vis[b]:
                vis[b] = True
                changed = True
            if undirected and vis[b] and not vis[a]:
                vis[a] = True
                changed = True
        self.vis = np.array(vis, dtype=bool)
        if vis[self.dst]:
            return 1
        if not changed:
            return 0
        return None

    def serialize_state(self) -> bytes:
        return _pack_masks(0, self.vis[None])

    def restore_state(self, blob: bytes) -> None:
        _, (self.vis,) = _unpack_masks(blob, self.n, 1, 0)


def alg_bidirectional_bfs(distance_bound: int) -> StreamingAlgorithm:
    """Two-sided level-per-pass search deciding dist <= distance_bound."""
    return _LevelBfs(distance_bound, bidirectional=True)


def alg_forward_bfs(distance_bound: int) -> StreamingAlgorithm:
    """Single-source level-per-pass search deciding dist <= distance_bound."""
    return _LevelBfs(distance_bound, bidirectional=False)


def alg_union_find() -> StreamingAlgorithm:
    """One-pass undirected connectivity; the state is each vertex's component root."""
    return _UnionFind()


def alg_directed_frontier() -> StreamingAlgorithm:
    """In-pass chaining reachability; pass count depends on edge order."""
    return _DirectedFrontier()


# names accepted by the CLI; BFS factories get D = 2*(p+1) from the header
ALGORITHMS = {
    "bidir-bfs": alg_bidirectional_bfs,
    "forward-bfs": alg_forward_bfs,
    "union-find": alg_union_find,
    "directed-frontier": alg_directed_frontier,
}
