"""Graph oracles against hand graphs, independent brute-force baselines and
the per-question traversals that the shared BFS replaced."""
import math
from collections import deque
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import csgraph

import chasebench as cb
from chasebench import oracles


def _stream(nv, directed, edges, src=0, dst=None):
    return cb.GraphStream(nv, directed, src, nv - 1 if dst is None else dst, 0, tuple(edges))


def test_distance_hand_cases():
    path = _stream(4, False, [(0, 1), (1, 2), (2, 3)])
    assert cb.oracle_distance(path) == 3
    assert cb.oracle_distance(_stream(3, False, [(0, 1)])) == math.inf
    assert cb.oracle_distance(_stream(2, False, [(0, 1)], src=1, dst=1)) == 0
    # a shortcut edge wins over the long way around
    shortcut = _stream(5, False, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert cb.oracle_distance(shortcut) == 1


def test_distance_respects_direction():
    fwd = _stream(3, True, [(0, 1), (1, 2)])
    assert cb.oracle_distance(fwd) == 2
    back = _stream(3, True, [(1, 0), (2, 1)])
    assert cb.oracle_distance(back) == math.inf


def test_reachable_hand_cases():
    assert cb.oracle_reachable(_stream(3, True, [(0, 1), (1, 2)])) == 1
    assert cb.oracle_reachable(_stream(3, True, [(1, 0), (1, 2)], src=1, dst=2)) == 1
    assert cb.oracle_reachable(_stream(3, True, [(2, 1), (1, 0)])) == 0
    assert cb.oracle_reachable(_stream(2, True, [], src=1, dst=1)) == 1


def test_two_color_on_even_structures():
    cycle4 = _stream(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)])
    colors = cb.two_color(cycle4)
    assert colors.tolist() == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        cb.two_color(_stream(3, False, [(0, 1), (1, 2), (2, 0)]))  # odd cycle


def test_two_color_ignores_edge_direction():
    # vertex 1 only has an out-edge, yet it is vertex 0's neighbour
    assert cb.two_color(_stream(2, True, [(1, 0)])).tolist() == [0, 1]
    assert cb.two_color(_stream(4, True, [(3, 1), (2, 1), (0, 2)])).tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError, match="not bipartite"):
        cb.two_color(_stream(3, True, [(0, 1), (1, 2), (2, 0)]))


def test_perfect_matching_hand_cases():
    assert cb.oracle_perfect_matching(_stream(4, False, [(0, 1), (2, 3)])) == 1
    assert cb.oracle_perfect_matching(_stream(4, False, [(0, 1), (0, 2), (0, 3)])) == 0
    assert cb.oracle_perfect_matching(_stream(3, False, [(0, 1), (1, 2)])) == 0  # odd
    assert cb.oracle_perfect_matching(_stream(2, False, [])) == 0
    # repeated edges, in either orientation
    assert cb.oracle_perfect_matching(_stream(4, False, [(0, 1), (1, 0), (0, 1), (2, 3)])) == 1
    assert cb.oracle_perfect_matching(_stream(4, False, [(0, 1), (1, 0), (0, 3), (3, 0)])) == 0
    with pytest.raises(ValueError):
        cb.oracle_perfect_matching(_stream(2, True, [(0, 1)]))


def _brute_distance(nv, edges, directed, src, dst):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for a, b in edges:
                for u, v in ((a, b),) if directed else ((a, b), (b, a)):
                    if u == x and v not in dist:
                        dist[v] = dist[x] + 1
                        nxt.append(v)
        frontier = nxt
    return dist.get(dst, math.inf)


def _brute_perfect_matching(nv, edges):
    if nv % 2:
        return 0
    edge_set = {frozenset(e) for e in edges}

    def extend(uncovered):
        if not uncovered:
            return True
        x = min(uncovered)
        for y in uncovered:
            if y != x and frozenset((x, y)) in edge_set:
                if extend(uncovered - {x, y}):
                    return True
        return False

    return int(extend(frozenset(range(nv))))


def test_distance_matches_brute_force_on_random_graphs():
    rng = cb.derive_rng(70)
    for _ in range(60):
        nv = int(rng.integers(2, 9))
        directed = bool(rng.integers(2))
        pairs = [(a, b) for a in range(nv) for b in range(nv) if a != b]
        take = rng.random(len(pairs)) < 0.25
        edges = tuple(p for p, keep in zip(pairs, take) if keep)
        src, dst = int(rng.integers(nv)), int(rng.integers(nv))
        s = cb.GraphStream(nv, directed, src, dst, 0, edges)
        want = _brute_distance(nv, edges, directed, src, dst)
        assert cb.oracle_distance(s) == want
        assert cb.oracle_reachable(s) == int(want != math.inf)


def test_perfect_matching_matches_brute_force_on_random_bipartite_graphs():
    rng = cb.derive_rng(71)
    for _ in range(60):
        half = int(rng.integers(1, 5))
        nv = 2 * half
        lefts = range(half)
        rights = range(half, nv)
        pairs = [(a, b) for a in lefts for b in rights]
        take = rng.random(len(pairs)) < 0.5
        edges = tuple(p for p, keep in zip(pairs, take) if keep)
        s = cb.GraphStream(nv, False, 0, nv - 1, 0, edges)
        assert cb.oracle_perfect_matching(s) == _brute_perfect_matching(nv, edges)


def test_perfect_matching_exhaustive_tiny_bipartite():
    # all bipartite graphs on 2+2 vertices
    pairs = [(0, 2), (0, 3), (1, 2), (1, 3)]
    for mask in range(16):
        edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        s = cb.GraphStream(4, False, 0, 3, 0, edges)
        assert cb.oracle_perfect_matching(s) == _brute_perfect_matching(4, edges)


def _nx_graph(s):
    g = nx.DiGraph() if s.directed else nx.Graph()
    g.add_nodes_from(range(s.nv))
    g.add_edges_from(s.edges)
    return g


def _nx_two_color(s):
    """Parity of the BFS distance from each component's lowest vertex,
    ignoring edge direction."""
    g = _nx_graph(s).to_undirected(as_view=True)
    color = np.zeros(s.nv, dtype=np.int8)
    for component in nx.connected_components(g):
        for x, d in nx.single_source_shortest_path_length(g, min(component)).items():
            color[x] = d % 2
    return color


def test_two_color_matches_bfs_parity_from_each_component_minimum():
    rng = cb.derive_rng(73)
    streams = []
    for _ in range(60):
        inst = cb.sample_intersect_sc(
            int(rng.integers(1, 9)), int(rng.integers(1, 4)), rng,
            include_prob=float(rng.uniform(0.05, 0.6)),
        )
        streams += [cb.build_distance_gadget(inst), cb.build_matching_gadget(inst)]
    for _ in range(60):
        # random bipartite graphs on shuffled labels, isolated vertices included
        nv = int(rng.integers(2, 15))
        side = rng.integers(0, 2, size=nv)
        pairs = [(a, b) for a, b in combinations(range(nv), 2) if side[a] != side[b]]
        edges = [pair for pair in pairs if rng.random() < 0.3]
        streams.append(_stream(nv, False, edges))
    streams.append(cb.build_matching_gadget(cb.sample_intersect_sc(400, 3, rng, include_prob=0.01)))
    for s in streams:
        colors = cb.two_color(s)
        assert colors.dtype == np.int8
        assert colors.tolist() == _nx_two_color(s).tolist()
    for cycle in (3, 5, 9):
        odd = [(x, (x + 1) % cycle) for x in range(cycle)]
        with pytest.raises(ValueError, match="not bipartite"):
            cb.two_color(_stream(cycle + 2, False, [(cycle, cycle + 1), *odd]))


@lru_cache(maxsize=None)
def sampled_gadgets():
    """The criterion-03 sampled family: k in [2, 16], depth in [2, 4], as
    (distance, reachability, matching) gadget triples."""
    rng = cb.derive_rng(72)
    triples = []
    for _ in range(300):
        k = int(rng.integers(2, 17))
        depth = int(rng.integers(2, 5))
        inst = cb.sample_intersect_sc(k, depth, rng, include_prob=float(rng.uniform(0.05, 0.5)))
        triples.append((
            cb.build_distance_gadget(inst),
            cb.build_reachability_gadget(inst),
            cb.build_matching_gadget(inst),
        ))
    return tuple(triples)


# ------------------------------------------- the traversals _bfs replaced


def _ref_adjacency(stream):
    adj = [[] for _ in range(stream.nv)]
    sources, targets = stream.edges.T.tolist()
    for a, b in zip(sources, targets):
        adj[a].append(b)
        if not stream.directed:
            adj[b].append(a)
    return adj


def _ref_distance(stream):
    if stream.src == stream.dst:
        return 0
    adj = _ref_adjacency(stream)
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


def _ref_reachable(stream):
    if stream.src == stream.dst:
        return 1
    adj = _ref_adjacency(stream)
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


def _ref_two_color(stream):
    """The former coloring; it followed edge direction, so compare it on
    undirected streams only."""
    adj = _ref_adjacency(stream)
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


def _coloring(two_color, stream):
    try:
        colors = two_color(stream)
    except ValueError as err:
        return str(err)
    assert colors.dtype == np.int8
    return colors.tolist()


def random_graphs():
    """Sparse random graphs on 1-30 vertices, so isolated vertices are
    common, in both directions; every fourth one has src == dst."""
    rng = cb.derive_rng(74)
    streams = []
    for i in range(240):
        nv = int(rng.integers(1, 31))
        directed = bool(i % 2)
        pairs = [(a, b) for a in range(nv) for b in range(nv) if a != b and (directed or a < b)]
        keep = rng.random(len(pairs)) < float(rng.uniform(0.0, 3.0)) / nv
        edges = [p for p, k in zip(pairs, keep) if k]
        src = int(rng.integers(nv))
        dst = src if i % 4 < 2 else int(rng.integers(nv))
        streams.append(cb.GraphStream(nv, directed, src, dst, 0, edges))
    return streams


def test_distance_and_reachability_match_the_replaced_traversals():
    streams = [s for triple in sampled_gadgets() for s in triple] + random_graphs()
    for s in streams:
        assert cb.oracle_distance(s) == _ref_distance(s)
        assert cb.oracle_reachable(s) == _ref_reachable(s)
    # both answers, both directions and src == dst all occur
    assert {_ref_reachable(s) for s in streams} == {0, 1}
    assert {s.directed for s in streams} == {False, True}
    assert any(s.src == s.dst for s in streams)


def test_two_color_matches_the_replaced_coloring_on_undirected_streams():
    streams = [s for triple in sampled_gadgets() for s in triple] + random_graphs()
    # depths on a 300-vertex path pass 127, where an int8 depth overflows
    streams.append(_stream(300, False, [(x, x + 1) for x in range(299)]))
    undirected = [s for s in streams if not s.directed]
    outcomes = [_coloring(cb.two_color, s) for s in undirected]
    assert outcomes == [_coloring(_ref_two_color, s) for s in undirected]
    # proper colorings and the not-bipartite error both occur
    assert "graph is not bipartite" in outcomes
    assert any(isinstance(c, list) for c in outcomes)


def test_adjacency_lists_each_vertex_neighbours_as_the_per_edge_loop_did():
    streams = [s for triple in sampled_gadgets() for s in triple]
    streams += [_stream(4, False, [(0, 1), (1, 0), (0, 1), (2, 3)]), _stream(3, True, [])]
    for s in streams + [replace(s, directed=False) for s in streams if s.directed]:
        ptr, nbr = oracles._adjacency(s, s.directed)
        assert [nbr[ptr[x]:ptr[x + 1]] for x in range(s.nv)] == _ref_adjacency(s)


def test_oracles_past_16_bit_vertex_ids():
    # the radix sort covers keys up to 16 bits; these sort as uint32
    nv = 70_000
    edges = np.column_stack([np.arange(nv - 1), np.arange(1, nv)])
    path = cb.GraphStream(nv, False, 0, nv - 1, 0, edges[::-1])
    assert cb.oracle_distance(path) == nv - 1
    assert cb.oracle_perfect_matching(path) == 1
    assert cb.oracle_perfect_matching(cb.GraphStream(nv, False, 0, 1, 0, edges[1:])) == 0
    backwards = cb.GraphStream(nv, True, 0, nv - 1, 0, edges[:, ::-1])
    assert cb.oracle_reachable(backwards) == 0
    assert cb.oracle_distance(cb.GraphStream(nv, True, nv - 1, 0, 0, edges[:, ::-1])) == nv - 1


# ------------------------------------------- the list and csgraph kernels

ORACLES = (cb.oracle_distance, cb.oracle_reachable, cb.two_color, cb.oracle_perfect_matching)


def _outcome(oracle, stream):
    """An oracle's answer, its coloring as a list, or its error message."""
    try:
        answer = oracle(stream)
    except ValueError as err:
        return str(err)
    if isinstance(answer, np.ndarray):
        assert answer.dtype == np.int8
        return answer.tolist()
    return answer


def _nx_outcomes(s):
    """The outcome of each of ORACLES on s, by networkx."""
    g = _nx_graph(s)
    distance = nx.shortest_path_length(g, s.src, s.dst) if nx.has_path(g, s.src, s.dst) else math.inf
    undirected = g.to_undirected(as_view=True)
    bipartite = nx.is_bipartite(undirected)
    coloring = _nx_two_color(s).tolist() if bipartite else "graph is not bipartite"
    if s.directed:
        matching = "matching oracle needs an undirected stream"
    elif s.nv % 2:
        matching = 0
    elif not bipartite:
        matching = coloring
    else:
        top = [x for x in range(s.nv) if coloring[x] == 0]
        matching = int(len(nx.bipartite.hopcroft_karp_matching(undirected, top_nodes=top)) == s.nv)
    return distance, int(distance < math.inf), coloring, matching


def _path(nv, directed=False, src=0, dst=None):
    """The path 0 - 1 - ... - nv-1, its edges listed last first."""
    edges = np.column_stack([np.arange(nv - 1), np.arange(1, nv)])
    return cb.GraphStream(nv, directed, src, nv - 1 if dst is None else dst, 0, edges[::-1])


def kernel_streams():
    """Streams for the kernel comparison, on both sides of the edge count
    that chooses the kernel."""
    rng = cb.derive_rng(75)
    streams = [s for triple in sampled_gadgets() for s in triple] + random_graphs()
    streams += [_path(300), _path(300, True, 299, 0)]
    inst = cb.sample_intersect_sc(400, 3, rng, include_prob=0.02)
    streams += [cb.build_distance_gadget(inst), cb.build_reachability_gadget(inst),
                cb.build_matching_gadget(inst)]
    # repeated edges in both orientations, where csgraph's strong components
    # never return, on 2 vertices and above the kernel threshold; then with an
    # odd cycle, and with a self-loop
    streams.append(_stream(2, False, [(0, 1), (1, 0), (0, 1), (1, 0)]))
    side = np.arange(400) % 2
    pairs = np.array([(a, b) for a, b in combinations(range(400), 2) if side[a] != side[b]])
    pairs = pairs[rng.random(len(pairs)) < 0.02]
    repeated = np.concatenate([pairs, pairs[:, ::-1], pairs[: len(pairs) // 2]])
    streams.append(_stream(400, False, repeated))
    streams.append(_stream(400, False, [*repeated, (0, 2), (2, 4), (4, 0)]))
    streams.append(_unchecked_stream(400, [*repeated, (5, 5)]))
    return streams


def _unchecked_stream(nv, edges):
    """An undirected 0 -> nv-1 stream that skips GraphStream's checks, which
    refuse a self-loop."""
    with pytest.raises(ValueError, match="self-loop"):
        _stream(nv, False, edges)
    stream = object.__new__(cb.GraphStream)
    fields = dict(nv=nv, directed=False, src=0, dst=nv - 1, p=0, edges=np.array(edges, dtype=np.int64))
    for name, value in fields.items():
        object.__setattr__(stream, name, value)
    return stream


def test_both_kernels_agree_with_each_other_and_with_networkx(monkeypatch):
    # the oracles import these inside the function, so the patch is seen
    calls = []
    for name in ("breadth_first_order", "connected_components"):
        library = getattr(csgraph, name)
        monkeypatch.setattr(csgraph, name, lambda *a, library=library, **kw: calls.append(1) or library(*a, **kw))
    streams = kernel_streams()
    assert {s.ne >= oracles.CSGRAPH_MIN_EDGES for s in streams} == {False, True}
    assert min(s.ne for s in streams[-3:]) >= oracles.CSGRAPH_MIN_EDGES
    results = []
    for s in streams:
        outcomes = []
        for min_edges in (math.inf, 0):
            monkeypatch.setattr(oracles, "CSGRAPH_MIN_EDGES", min_edges)
            del calls[:]
            outcomes.append([_outcome(oracle, s) for oracle in ORACLES])
            # the threshold chose the kernel: the list BFS calls no csgraph
            assert bool(calls) == (min_edges == 0)
        results.append(_nx_outcomes(s))
        assert outcomes[0] == outcomes[1] == list(results[-1])
    # every answer and both coloring outcomes occur
    assert {r[1] for r in results} == {0, 1}
    assert {r[3] for r in results} >= {0, 1, "graph is not bipartite"}
    assert any(r[2] == "graph is not bipartite" for r in results)


@pytest.mark.parametrize("min_edges", [math.inf, 0])
def test_both_kernels_on_70000_vertex_paths(monkeypatch, min_edges):
    # networkx would take seconds here; the answers are known
    monkeypatch.setattr(oracles, "CSGRAPH_MIN_EDGES", min_edges)
    nv = 70_000
    path = _path(nv)
    assert [_outcome(oracle, path) for oracle in ORACLES] == [
        nv - 1, 1, (np.arange(nv) % 2).tolist(), 1
    ]
    assert _outcome(cb.oracle_distance, _path(nv, True)) == nv - 1
    assert _outcome(cb.oracle_reachable, _path(nv, True, nv - 1, 0)) == 0
    assert _outcome(cb.oracle_distance, _path(nv, False, nv - 1, 1)) == nv - 2
