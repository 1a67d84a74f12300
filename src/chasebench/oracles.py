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

__all__ = ["oracle_distance", "oracle_reachable", "oracle_perfect_matching", "two_color"]


def _adjacency(stream: GraphStream) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(stream.nv)]
    sources, targets = stream.edges.T.tolist()
    for a, b in zip(sources, targets):
        adj[a].append(b)
        if not stream.directed:
            adj[b].append(a)
    return adj


def oracle_distance(stream: GraphStream) -> Union[int, float]:
    """Exact src-dst distance by BFS; math.inf when unreachable."""
    if stream.src == stream.dst:
        return 0
    adj = _adjacency(stream)
    dist = [-1] * stream.nv
    dist[stream.src] = 0
    queue = deque([stream.src])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                if y == stream.dst:
                    return dist[y]
                queue.append(y)
    return math.inf


def oracle_reachable(stream: GraphStream) -> int:
    """1 iff dst is reachable from src (iterative DFS)."""
    if stream.src == stream.dst:
        return 1
    adj = _adjacency(stream)
    seen = [False] * stream.nv
    seen[stream.src] = True
    stack = [stream.src]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                if y == stream.dst:
                    return 1
                seen[y] = True
                stack.append(y)
    return 0


def two_color(stream: GraphStream) -> np.ndarray:
    """A 0/1 coloring with no monochromatic edge; raises if none exists."""
    adj = _adjacency(stream)
    # a Python list: indexing an int8 array per edge costs more than the BFS
    color = [-1] * stream.nv
    for start in range(stream.nv):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            cx = color[x]
            for y in adj[x]:
                cy = color[y]
                if cy < 0:
                    color[y] = 1 - cx
                    queue.append(y)
                elif cy == cx:
                    raise ValueError("graph is not bipartite")
    return np.array(color, dtype=np.int8)


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
    bi = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(left.size, right.size)
    )
    matched = maximum_bipartite_matching(bi, perm_type="column")
    return int((matched >= 0).sum() == left.size)
