"""Multipass streaming harness with honest state accounting.

An algorithm takes each pass whole, as the stream's read-only (ne, 2) edge
array with row i the i-th edge to arrive.  At every pass boundary the
harness serializes the algorithm's state, records its size, and restores
from the bytes, so nothing survives a pass except what the serializer
carries.  In-pass working memory is deliberately not counted; reports say
what was measured, not an estimate.
"""
from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .gadgets import GraphStream
from .util import pack_uints, unpack_uints

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


def _pack_masks(level: int, *masks: np.ndarray) -> bytes:
    payload = b"".join(np.packbits(m).tobytes() for m in masks)
    return struct.pack("<I", level) + payload


def _unpack_masks(blob: bytes, n: int, count: int) -> tuple[int, list[np.ndarray]]:
    (level,) = struct.unpack_from("<I", blob)
    step = (n + 7) // 8
    masks = []
    for i in range(count):
        chunk = np.frombuffer(blob, dtype=np.uint8, count=step, offset=4 + i * step)
        masks.append(np.unpackbits(chunk, count=n).astype(bool))
    return level, masks


def _reached(frontier: np.ndarray, edges: np.ndarray, directed: bool) -> np.ndarray:
    """Vertices one edge from a frontier frozen for the whole pass (along
    the edge direction when directed), so arrival order cannot matter."""
    a, b = edges[:, 0], edges[:, 1]
    out = np.zeros(len(frontier), dtype=bool)
    out[b[frontier[a]]] = True
    if not directed:
        out[a[frontier[b]]] = True
    return out


class _BidirectionalBfs(StreamingAlgorithm):
    """Decides dist(src, dst) <= D by growing one BFS level per pass from
    both endpoints simultaneously.

    Frontiers are frozen at the start of each pass, so after pass i the two
    visited balls have radius exactly i and they intersect iff the distance
    is at most 2i.  The run therefore needs exactly ceil(D/2) passes unless
    the endpoints are closer than D or one ball stops growing (answer 0:
    separate components never meet).
    """

    name = "bidir-bfs"

    def __init__(self, distance_bound: int):
        if distance_bound < 0 or distance_bound % 2 != 0:
            # level-synchronized growth decides even thresholds only
            raise ValueError("distance bound must be even and non-negative")
        self.bound = distance_bound

    def init(self, meta: StreamMeta) -> Optional[int]:
        if meta.directed:
            raise ValueError("bidirectional search needs an undirected stream")
        self.n = meta.nv
        self.level = 0
        self.vis_s = np.zeros(self.n, dtype=bool)
        self.vis_t = np.zeros(self.n, dtype=bool)
        self.vis_s[meta.src] = True
        self.vis_t[meta.dst] = True
        self.fr_s = self.vis_s.copy()
        self.fr_t = self.vis_t.copy()
        if meta.src == meta.dst:
            return 1
        if self.bound == 0:
            return 0
        return None

    def run_pass(self, edges: np.ndarray) -> Optional[int]:
        self.level += 1
        self.fr_s = _reached(self.fr_s, edges, False) & ~self.vis_s
        self.fr_t = _reached(self.fr_t, edges, False) & ~self.vis_t
        self.vis_s |= self.fr_s
        self.vis_t |= self.fr_t
        if (self.vis_s & self.vis_t).any():
            return 1
        if 2 * self.level >= self.bound:
            return 0
        if not self.fr_s.any() or not self.fr_t.any():
            return 0
        return None

    def serialize_state(self) -> bytes:
        return _pack_masks(self.level, self.vis_s, self.vis_t, self.fr_s, self.fr_t)

    def restore_state(self, blob: bytes) -> None:
        self.level, masks = _unpack_masks(blob, self.n, 4)
        self.vis_s, self.vis_t, self.fr_s, self.fr_t = masks


class _ForwardBfs(StreamingAlgorithm):
    """Decides dist(src, dst) <= D by one single-source BFS level per pass.

    The frontier is frozen when a pass begins; edges leaving it mark the
    next level, which starts expanding only in the following pass.  Pass i
    therefore discovers exactly the vertices at distance i, independent of
    edge arrival order, so a distance-D target costs D passes.
    """

    name = "forward-bfs"

    def __init__(self, distance_bound: int):
        if distance_bound < 0:
            raise ValueError("distance bound must be non-negative")
        self.bound = distance_bound

    def init(self, meta: StreamMeta) -> Optional[int]:
        self.n = meta.nv
        self.dst = meta.dst
        self.directed = meta.directed
        self.level = 0
        self.vis = np.zeros(self.n, dtype=bool)
        self.vis[meta.src] = True
        self.fr = self.vis.copy()
        if meta.src == meta.dst:
            return 1
        if self.bound == 0:
            return 0
        return None

    def run_pass(self, edges: np.ndarray) -> Optional[int]:
        self.level += 1
        self.fr = _reached(self.fr, edges, self.directed) & ~self.vis
        self.vis |= self.fr
        if self.vis[self.dst]:
            return 1
        if self.level >= self.bound or not self.fr.any():
            return 0
        return None

    def serialize_state(self) -> bytes:
        return _pack_masks(self.level, self.vis, self.fr)

    def restore_state(self, blob: bytes) -> None:
        self.level, masks = _unpack_masks(blob, self.n, 2)
        self.vis, self.fr = masks


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
        a = np.concatenate((edges[:, 0], np.arange(self.n)))
        b = np.concatenate((edges[:, 1], self.root))
        graph = csr_matrix((np.ones(a.size, dtype=bool), (a, b)), shape=(self.n, self.n))
        _, label = connected_components(graph, directed=False)
        # the first vertex of each label is its component's smallest
        self.root = np.unique(label, return_index=True)[1][label]
        return int(self.root[self.src] == self.root[self.dst])

    def serialize_state(self) -> bytes:
        return pack_uints(self.root, self.width)

    def restore_state(self, blob: bytes) -> None:
        self.root = unpack_uints(blob, self.width, self.n)


class _DirectedFrontier(StreamingAlgorithm):
    """Reachability by chaining marks within a pass, in arrival order.

    Processing edge (a, b) marks b as soon as a is already marked, so a
    stream sorted along the path direction can resolve many hops per pass,
    while an adversarial order still forces one block of progress per pass.
    A pass that marks nothing new proves the frontier stable: answer 0.
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
        vis, undirected, changed = self.vis.tolist(), not self.directed, False
        for a, b in zip(*edges.T.tolist()):
            if vis[a] and not vis[b]:
                vis[b] = True
                changed = True
            if undirected and vis[b] and not vis[a]:
                vis[a] = True
                changed = True
        self.vis = np.array(vis)
        if vis[self.dst]:
            return 1
        if not changed:
            return 0
        return None

    def serialize_state(self) -> bytes:
        return _pack_masks(0, self.vis)

    def restore_state(self, blob: bytes) -> None:
        _, masks = _unpack_masks(blob, self.n, 1)
        (self.vis,) = masks


def alg_bidirectional_bfs(distance_bound: int) -> StreamingAlgorithm:
    """Two-sided level-per-pass search deciding dist <= distance_bound."""
    return _BidirectionalBfs(distance_bound)


def alg_forward_bfs(distance_bound: int) -> StreamingAlgorithm:
    """Single-source level-per-pass search deciding dist <= distance_bound."""
    return _ForwardBfs(distance_bound)


def alg_union_find() -> StreamingAlgorithm:
    """One-pass undirected connectivity with packed parent-array state."""
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
