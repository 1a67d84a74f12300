"""Graph oracles against hand graphs and independent brute-force baselines."""
import math
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

import chasebench as cb


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


def test_perfect_matching_hand_cases():
    assert cb.oracle_perfect_matching(_stream(4, False, [(0, 1), (2, 3)])) == 1
    assert cb.oracle_perfect_matching(_stream(4, False, [(0, 1), (0, 2), (0, 3)])) == 0
    assert cb.oracle_perfect_matching(_stream(3, False, [(0, 1), (1, 2)])) == 0  # odd
    assert cb.oracle_perfect_matching(_stream(2, False, [])) == 0
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
    """Parity of the BFS distance from each component's lowest vertex."""
    g = _nx_graph(s)
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


def test_oracles_agree_with_networkx_on_sampled_gadgets():
    # the criterion-03 sampled family: k in [2, 16], depth in [2, 4]
    rng = cb.derive_rng(72)
    answers = set()
    for _ in range(300):
        k = int(rng.integers(2, 17))
        depth = int(rng.integers(2, 5))
        inst = cb.sample_intersect_sc(k, depth, rng, include_prob=float(rng.uniform(0.05, 0.5)))

        dist = cb.build_distance_gadget(inst)
        g = _nx_graph(dist)
        want = (
            nx.shortest_path_length(g, dist.src, dist.dst)
            if nx.has_path(g, dist.src, dist.dst)
            else math.inf
        )
        assert cb.oracle_distance(dist) == want

        reach = cb.build_reachability_gadget(inst)
        reachable = int(nx.has_path(_nx_graph(reach), reach.src, reach.dst))
        assert cb.oracle_reachable(reach) == reachable

        match = cb.build_matching_gadget(inst)
        g = _nx_graph(match)
        top = [v for v, side in nx.bipartite.color(g).items() if side == 0]
        matched = nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)
        assert cb.oracle_perfect_matching(match) == int(len(matched) == match.nv)
        answers.add(reachable)
    assert answers == {0, 1}
