"""Whole-pass baselines against the per-edge code they replaced.

Each reference class keeps one baseline's former begin_pass / observe_edge /
end_pass methods and inherits init and the state encoding, which did not
change; the union-find reference also keeps its former parent pointers,
_find and canonicalizing serializer.  run_per_edge is the former harness
loop.  Every comparison asserts the same (answer, passes_used,
max_state_bits) and the same final state bytes as run_streaming gives the
current algorithm.
"""
from functools import lru_cache

import numpy as np
import pytest

import chasebench as cb
from chasebench import streaming
from chasebench.util import pack_uints, unpack_uints


class _RefBidirectionalBfs(streaming._BidirectionalBfs):
    def begin_pass(self):
        self.new_s = np.zeros(self.n, dtype=bool)
        self.new_t = np.zeros(self.n, dtype=bool)

    def observe_edge(self, a, b):
        if self.fr_s[a]:
            self.new_s[b] = True
        if self.fr_s[b]:
            self.new_s[a] = True
        if self.fr_t[a]:
            self.new_t[b] = True
        if self.fr_t[b]:
            self.new_t[a] = True

    def end_pass(self):
        self.level += 1
        self.fr_s = self.new_s & ~self.vis_s
        self.fr_t = self.new_t & ~self.vis_t
        self.vis_s |= self.fr_s
        self.vis_t |= self.fr_t
        if (self.vis_s & self.vis_t).any():
            return 1
        if 2 * self.level >= self.bound:
            return 0
        if not self.fr_s.any() or not self.fr_t.any():
            return 0
        return None


class _RefForwardBfs(streaming._ForwardBfs):
    def begin_pass(self):
        self.new = np.zeros(self.n, dtype=bool)

    def observe_edge(self, a, b):
        if self.fr[a]:
            self.new[b] = True
        if not self.directed and self.fr[b]:
            self.new[a] = True

    def end_pass(self):
        self.level += 1
        self.fr = self.new & ~self.vis
        self.vis |= self.fr
        if self.vis[self.dst]:
            return 1
        if self.level >= self.bound or not self.fr.any():
            return 0
        return None


class _RefUnionFind(streaming._UnionFind):
    def init(self, meta):
        if meta.directed:
            raise ValueError("union-find decides undirected connectivity only")
        self.n = meta.nv
        self.src = meta.src
        self.dst = meta.dst
        self.width = max(1, (self.n - 1).bit_length())
        self.parent = list(range(self.n))
        if meta.src == meta.dst:
            return 1
        return None

    def _find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def serialize_state(self):
        roots = [self._find(x) for x in range(self.n)]
        return pack_uints(roots, self.width)

    def restore_state(self, blob):
        self.parent = [int(x) for x in unpack_uints(blob, self.width, self.n)]

    def begin_pass(self):
        pass

    def observe_edge(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb

    def end_pass(self):
        return int(self._find(self.src) == self._find(self.dst))


class _RefDirectedFrontier(streaming._DirectedFrontier):
    def begin_pass(self):
        self.changed = False

    def observe_edge(self, a, b):
        if self.vis[a] and not self.vis[b]:
            self.vis[b] = True
            self.changed = True
        if not self.directed and self.vis[b] and not self.vis[a]:
            self.vis[a] = True
            self.changed = True

    def end_pass(self):
        if self.vis[self.dst]:
            return 1
        if not self.changed:
            return 0
        return None


REFERENCES = {
    "bidir-bfs": _RefBidirectionalBfs,
    "forward-bfs": _RefForwardBfs,
    "union-find": _RefUnionFind,
    "directed-frontier": _RefDirectedFrontier,
}
UNDIRECTED_ONLY = {"bidir-bfs", "union-find"}


def run_per_edge(alg, stream, budget):
    """The former run_streaming: one observe_edge call per edge."""

    def checkpoint():
        blob = alg.serialize_state()
        alg.restore_state(blob)
        return len(blob) * 8

    answer = alg.init(cb.StreamMeta.of(stream))
    max_bits = checkpoint()
    passes = 0
    edges = stream.edges.tolist()
    while answer is None and passes < budget:
        passes += 1
        alg.begin_pass()
        for a, b in edges:
            alg.observe_edge(a, b)
        answer = alg.end_pass()
        max_bits = max(max_bits, checkpoint())
    return answer if answer is None else int(answer), passes, max_bits


def outcomes(name, stream, budget, bound=None):
    """(current, reference) results: the report triple plus final state bytes."""
    args = (2 * (stream.p + 1) if bound is None else bound,) if name.endswith("bfs") else ()
    alg, ref = cb.ALGORITHMS[name](*args), REFERENCES[name](*args)
    report = cb.run_streaming(alg, stream, budget)
    got = (report.answer, report.passes_used, report.max_state_bits, alg.serialize_state())
    return got, (*run_per_edge(ref, stream, budget), ref.serialize_state())


def applicable(name, stream):
    return not (stream.directed and name in UNDIRECTED_ONLY)


@lru_cache(maxsize=None)
def sampled_streams():
    """About 200 sampled intersection instances (k 1-16, depth 1-4), each as
    distance, reachability and matching gadgets in both arrival orders."""
    rng = cb.derive_rng(505)
    streams = []
    for _ in range(200):
        k = int(rng.integers(1, 17))
        depth = int(rng.integers(1, 5))
        # about 0.5 to 2.5 targets per element, so both answers occur
        inst = cb.sample_intersect_sc(k, depth, rng, min(1.0, float(rng.uniform(0.5, 2.5)) / k))
        for build in (cb.build_distance_gadget, cb.build_reachability_gadget, cb.build_matching_gadget):
            stream = build(inst)
            streams += [stream, cb.reverse_stream(stream)]
    return tuple(streams)


def random_simple_graph(seed, nv, density, directed):
    rng = cb.derive_rng(506, seed)
    pairs = [(a, b) for a in range(nv) for b in range(nv) if a != b and (directed or a < b)]
    keep = rng.random(len(pairs)) < density
    edges = np.array([p for p, k in zip(pairs, keep) if k], dtype=np.int64).reshape(-1, 2)
    edges = edges[rng.permutation(len(edges))]
    return cb.GraphStream(nv, directed, 0, nv - 1, int(rng.integers(0, 3)), edges)


def mismatches(name, streams, budget=None):
    count = 0
    for s in streams:
        if applicable(name, s):
            got, want = outcomes(name, s, s.nv + 1 if budget is None else budget)
            count += got != want
    return count


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_sampled_gadgets_match_the_per_edge_reference(name):
    streams = sampled_streams()
    assert mismatches(name, streams) == 0
    # the sample has both answers, and directed streams where they are allowed
    assert {s.directed for s in streams if applicable(name, s)} == (
        {False} if name in UNDIRECTED_ONLY else {False, True}
    )
    answers = {outcomes(name, s, s.nv + 1)[0][0] for s in streams[:60] if applicable(name, s)}
    assert answers == {0, 1}


@pytest.mark.parametrize("budget", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_small_pass_budgets_match_the_per_edge_reference(name, budget):
    assert mismatches(name, sampled_streams()[:120], budget) == 0


@pytest.mark.parametrize("name", ["bidir-bfs", "forward-bfs"])
def test_bfs_bounds_match_the_per_edge_reference(name):
    # zero answers at init, 2 is one level either side, and a bound past
    # every distance stops only when a frontier runs dry
    for s in sampled_streams()[:90]:
        if applicable(name, s):
            for bound in (0, 2, 2 * s.nv):
                got, want = outcomes(name, s, s.nv + 1, bound)
                assert got == want


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_random_simple_graphs_match_the_per_edge_reference(name):
    graphs = [
        random_simple_graph(seed, nv, density, directed)
        for seed, (nv, density) in enumerate([(2, 0.5), (5, 0.3), (12, 0.15), (24, 0.08), (40, 0.04)] * 6)
        for directed in (False, True)
    ]
    assert mismatches(name, graphs) == 0


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_src_equals_dst_matches_the_per_edge_reference(name):
    for directed in (False, True):
        s = cb.GraphStream(4, directed, 2, 2, 1, [[0, 1], [1, 2], [2, 3]])
        if applicable(name, s):
            got, want = outcomes(name, s, 5)
            assert got == want
            assert got[:2] == (1, 0)


def test_a_k400_instance_matches_the_per_edge_reference():
    inst = cb.sample_intersect_sc(400, 3, cb.derive_rng(507), include_prob=0.03)
    streams = [build(inst) for build in (
        cb.build_distance_gadget, cb.build_reachability_gadget, cb.build_matching_gadget
    )]
    assert min(s.ne for s in streams) > 25000
    for name in REFERENCES:
        assert mismatches(name, streams) == 0


def _restored_pass(alg):
    """Answer and state after one edgeless pass from a restored state that
    already joins vertex 3 to vertex 0."""
    alg.init(cb.StreamMeta(4, False, 0, 3, 0))
    alg.restore_state(pack_uints([0, 1, 2, 0], 2))
    if isinstance(alg, _RefUnionFind):
        alg.begin_pass()
        answer = alg.end_pass()
    else:
        answer = alg.run_pass(np.zeros((0, 2), dtype=np.int64))
    return answer, alg.serialize_state().hex()


def test_union_find_honors_a_restored_state():
    assert _restored_pass(cb.alg_union_find()) == (1, "18")
    assert _restored_pass(_RefUnionFind()) == (1, "18")


def _reached_without_back_edge(frontier, edges, directed):
    a, b = edges[:, 0], edges[:, 1]
    out = np.zeros(len(frontier), dtype=bool)
    out[b[frontier[a]]] = True
    return out


def _reached_while_updating_frontier(frontier, edges, directed):
    fr = frontier.copy()
    out = np.zeros(len(frontier), dtype=bool)
    for a, b in edges.tolist():
        if fr[a]:
            out[b] = fr[b] = True
        if not directed and fr[b]:
            out[a] = fr[a] = True
    return out


@pytest.mark.parametrize("broken", [_reached_without_back_edge, _reached_while_updating_frontier])
def test_the_comparison_catches_a_broken_frontier_step(monkeypatch, broken):
    monkeypatch.setattr(streaming, "_reached", broken)
    streams = sampled_streams()[:120]
    assert mismatches("forward-bfs", streams) > 0
    assert mismatches("bidir-bfs", streams) > 0
