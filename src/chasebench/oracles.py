"""Offline exact oracles: the ground truth streaming algorithms are judged by.

These read the whole graph at once (edge order is irrelevant to them) and
answer the three gadget questions: shortest src-dst distance, directed
reachability, and perfect-matching existence on bipartite graphs.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .gadgets import GraphStream
from .util import stable_order

__all__ = ["oracle_distance", "oracle_reachable", "oracle_perfect_matching", "two_color"]


def _grouped(keys: np.ndarray, nkeys: int) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, order) for keys in [0, nkeys): order[ptr[x]:ptr[x + 1]] are the
    positions holding key x, ascending."""
    ptr = np.zeros(nkeys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=nkeys), out=ptr[1:])
    return ptr, stable_order(keys, nkeys)


def _adjacency(stream: GraphStream, directed: bool) -> tuple[list[int], list[int]]:
    """(ptr, nbr): the neighbours of x are nbr[ptr[x]:ptr[x + 1]], in edge
    order.  An undirected edge (a, b) counts as (a, b) and (b, a)."""
    if directed:
        sources, targets = stream.edges.T
    else:
        sources, targets = stream.edges.ravel(), stream.edges[:, ::-1].ravel()
    ptr, order = _grouped(sources, stream.nv)
    return ptr.tolist(), targets[order].tolist()


def _bfs(adj: tuple[list[int], list[int]], start: int, level: list[int], stop: int = -1) -> None:
    """Write the BFS depth from start into level for every vertex it
    reaches whose level is still -1; return as soon as stop gets one."""
    ptr, nbr = adj
    level[start] = 0
    queue = deque([start])
    while queue:
        x = queue.popleft()
        depth = level[x] + 1
        for y in nbr[ptr[x]:ptr[x + 1]]:
            if level[y] < 0:
                level[y] = depth
                if y == stop:
                    return
                queue.append(y)


def oracle_distance(stream: GraphStream) -> Union[int, float]:
    """Exact src-dst distance by BFS, along the edge direction when the
    stream is directed; math.inf when unreachable."""
    if stream.src == stream.dst:
        return 0
    level = [-1] * stream.nv
    _bfs(_adjacency(stream, stream.directed), stream.src, level, stream.dst)
    return level[stream.dst] if level[stream.dst] >= 0 else math.inf


def oracle_reachable(stream: GraphStream) -> int:
    """1 iff dst is reachable from src."""
    return int(oracle_distance(stream) < math.inf)


def two_color(stream: GraphStream) -> np.ndarray:
    """A 0/1 coloring of the undirected graph with no monochromatic edge;
    raises if none exists.  Each component takes the parity of its BFS
    depth from the component's smallest vertex."""
    adj = _adjacency(stream, False)
    level = [-1] * stream.nv
    for start in range(stream.nv):
        if level[start] < 0:
            _bfs(adj, start, level)
    # parity before narrowing: depths pass 127 on long paths
    color = (np.array(level, dtype=np.int64) % 2).astype(np.int8)
    if (color[stream.edges[:, 0]] == color[stream.edges[:, 1]]).any():
        raise ValueError("graph is not bipartite")
    return color


def oracle_perfect_matching(stream: GraphStream) -> int:
    """1 iff an undirected bipartite graph has a perfect matching.

    Bipartiteness is established by 2-coloring first; non-bipartite input is
    rejected loudly rather than mis-answered.  The matching itself comes
    from the Hopcroft-Karp implementation in scipy.
    """
    if stream.directed:
        raise ValueError("matching oracle needs an undirected stream")
    if stream.nv % 2 != 0:
        return 0
    color = two_color(stream)
    left = np.flatnonzero(color == 0)
    right = np.flatnonzero(color == 1)
    if left.size != right.size:
        return 0
    row_of = np.full(stream.nv, -1)
    col_of = np.full(stream.nv, -1)
    row_of[left] = np.arange(left.size)
    col_of[right] = np.arange(right.size)
    # the coloring is proper, so each edge has one endpoint per side; the
    # other endpoint's slot on that side is -1
    a, b = stream.edges[:, 0], stream.edges[:, 1]
    rows = np.maximum(row_of[a], row_of[b])
    cols = np.maximum(col_of[a], col_of[b])
    indptr, order = _grouped(rows, left.size)
    bi = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), cols[order], indptr), shape=(left.size, right.size)
    )
    matched = maximum_bipartite_matching(bi, perm_type="column")
    return int((matched >= 0).sum() == left.size)
