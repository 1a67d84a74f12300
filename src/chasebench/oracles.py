"""Offline exact oracles: the ground truth streaming algorithms are judged by.

These read the whole graph at once (edge order is irrelevant to them) and
answer the three gadget questions: shortest src-dst distance, directed
reachability, and perfect-matching existence on bipartite graphs.

Each traversal has two kernels, chosen by the stream's edge count: a
Python BFS over adjacency lists for small streams, where the fixed cost of
a sparse-matrix build and a library call dominates, and scipy's compiled
csgraph traversals from CSGRAPH_MIN_EDGES edges up.  Both give the same
answers and the same colorings.

scipy is imported inside each function that calls it, so it loads at the
first compiled-kernel call (a large stream, or any matching oracle call)
and never for the list BFS.
"""
from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Union

import numpy as np

from .gadgets import GraphStream
from .util import stable_order

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = ["oracle_distance", "oracle_reachable", "oracle_perfect_matching", "two_color"]

# Edge count from which the compiled kernels run: each oracle's per-call
# crossover between the two kernels lies near 1,000 edges (BENCH_21.json).
CSGRAPH_MIN_EDGES = 1000


def _grouped(keys: np.ndarray, nkeys: int) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, order) for keys in [0, nkeys): order[ptr[x]:ptr[x + 1]] are the
    positions holding key x, ascending."""
    ptr = np.zeros(nkeys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=nkeys), out=ptr[1:])
    return ptr, stable_order(keys, nkeys)


def _csr(stream: GraphStream, directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, nbr): the neighbours of x are nbr[ptr[x]:ptr[x + 1]], in edge
    order.  An undirected edge (a, b) counts as (a, b) and (b, a)."""
    if directed:
        sources, targets = stream.edges.T
    else:
        sources, targets = stream.edges.ravel(), stream.edges[:, ::-1].ravel()
    ptr, order = _grouped(sources, stream.nv)
    return ptr, targets[order]


def _adjacency(stream: GraphStream, directed: bool) -> tuple[list[int], list[int]]:
    """_csr as Python lists, for the BFS below."""
    ptr, nbr = _csr(stream, directed)
    return ptr.tolist(), nbr.tolist()


def _csgraph(ptr: np.ndarray, nbr: np.ndarray) -> csr_matrix:
    """(ptr, nbr) as a 0/1 matrix.  The data is float64 because csgraph
    copies any other dtype into float64 first."""
    from scipy.sparse import csr_matrix

    n = ptr.size - 1
    return csr_matrix((np.ones(nbr.size), nbr, ptr), shape=(n, n))


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
    if stream.ne < CSGRAPH_MIN_EDGES:
        level = [-1] * stream.nv
        _bfs(_adjacency(stream, stream.directed), stream.src, level, stream.dst)
        return level[stream.dst] if level[stream.dst] >= 0 else math.inf
    from scipy.sparse.csgraph import breadth_first_order

    # one direction of each edge; directed=False adds the reverse arcs
    graph = _csgraph(*_csr(stream, True))
    _, pred = breadth_first_order(
        graph, stream.src, directed=stream.directed, return_predecessors=True
    )
    # the BFS tree's path from dst back to src is a shortest path
    distance, x = 0, stream.dst
    while x != stream.src:
        x = pred[x]
        if x < 0:  # -9999: not reached
            return math.inf
        distance += 1
    return distance


def oracle_reachable(stream: GraphStream) -> int:
    """1 iff dst is reachable from src."""
    return int(oracle_distance(stream) < math.inf)


def two_color(stream: GraphStream) -> np.ndarray:
    """A 0/1 coloring of the undirected graph with no monochromatic edge;
    raises if none exists.  Each component takes the parity of its BFS
    depth from the component's smallest vertex."""
    if stream.ne < CSGRAPH_MIN_EDGES:
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
    # The bipartite double cover: v on side s is v + s*nv, and each edge
    # joins opposite sides.  directed=False adds the reverse arcs, so one
    # direction of each edge is enough.  (directed=True with
    # connection="strong" never returns on a matrix with duplicate entries
    # in scipy 1.17.)
    from scipy.sparse.csgraph import connected_components

    nv, ne = stream.nv, stream.ne
    ptr, nbr = _csr(stream, True)
    cover = _csgraph(np.concatenate((ptr, ptr[1:] + ne)), np.concatenate((nbr + nv, nbr)))
    _, label = connected_components(cover, directed=False)
    # a component holding both copies of v holds an odd cycle through v
    if (label[:nv] == label[nv:]).any():
        raise ValueError("graph is not bipartite")
    # In v's component, with smallest vertex m, the cover component of m
    # (side 0) has m as its smallest cover vertex and holds the even side
    # of every vertex; so v is odd iff its side-0 copy lies in the other.
    first = np.unique(label, return_index=True)[1]
    return (first[label[:nv]] > first[label[nv:]]).astype(np.int8)


def oracle_perfect_matching(stream: GraphStream) -> int:
    """1 iff an undirected bipartite graph has a perfect matching.

    Bipartiteness is established by 2-coloring first; non-bipartite input is
    rejected loudly rather than mis-answered.  The matching itself comes
    from the Hopcroft-Karp implementation in scipy.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

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
