"""Pass accounting, state checkpointing, and the four streaming algorithms."""
import math

import numpy as np
import pytest

import chasebench as cb
from chasebench.verify import identity_instance


def _connectivity_stream(seed, nv=24, density=0.12):
    rng = cb.derive_rng(seed)
    pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    take = rng.random(len(pairs)) < density
    edges = tuple(p for p, keep in zip(pairs, take) if keep)
    return cb.GraphStream(nv, False, 0, nv - 1, 0, edges)


def test_algorithm_registry_names():
    assert set(cb.ALGORITHMS) == {"bidir-bfs", "forward-bfs", "union-find", "directed-frontier"}
    for name, factory in cb.ALGORITHMS.items():
        alg = factory(2) if name.endswith("bfs") else factory()
        assert alg.name == name


def test_pass_counts_on_the_identity_gadgets():
    inst = identity_instance(4, 2)  # two layers per side, hard for one pass
    d = cb.build_distance_gadget(inst)
    bound = 2 * (d.p + 1)
    assert cb.run_streaming(cb.alg_bidirectional_bfs(bound), d, 10).passes_used == 2
    assert cb.run_streaming(cb.alg_forward_bfs(bound), d, 10).passes_used == 4
    g = cb.build_reachability_gadget(inst)
    assert cb.run_streaming(cb.alg_directed_frontier(), g, 10).passes_used == 2
    assert cb.run_streaming(cb.alg_union_find(), d, 10).passes_used == 1


def test_frontier_chaining_is_arrival_order_sensitive():
    g = cb.build_reachability_gadget(identity_instance(4, 2))
    fwd = cb.run_streaming(cb.alg_directed_frontier(), g, 10)
    rev = cb.run_streaming(cb.alg_directed_frontier(), cb.reverse_stream(g), 10)
    assert fwd.answer == rev.answer == 1
    assert fwd.passes_used == 2
    assert rev.passes_used == 3


def test_forward_bfs_level_count_is_arrival_order_insensitive():
    d = cb.build_distance_gadget(identity_instance(4, 2))
    bound = 2 * (d.p + 1)
    fwd = cb.run_streaming(cb.alg_forward_bfs(bound), d, 10)
    rev = cb.run_streaming(cb.alg_forward_bfs(bound), cb.reverse_stream(d), 10)
    assert fwd.passes_used == rev.passes_used == 4
    assert fwd.answer == rev.answer == 1


def test_answers_match_oracles_on_random_gadgets():
    rng = cb.derive_rng(80)
    for _ in range(40):
        k = int(rng.integers(2, 8))
        depth = int(rng.integers(1, 4))
        inst = cb.sample_intersect_sc(k, depth, rng)
        d = cb.build_distance_gadget(inst)
        g = cb.build_reachability_gadget(inst)
        bound = 2 * depth
        dist = cb.oracle_distance(d)
        want_d = int(dist <= bound)
        assert cb.run_streaming(cb.alg_bidirectional_bfs(bound), d, 100).answer == want_d
        assert cb.run_streaming(cb.alg_forward_bfs(bound), d, 100).answer == want_d
        assert cb.run_streaming(cb.alg_directed_frontier(), g, 100).answer == cb.oracle_reachable(g)
        conn = cb.run_streaming(cb.alg_union_find(), d, 100)
        assert conn.answer == int(dist != math.inf)
        assert conn.passes_used == 1


def test_union_find_matches_connectivity_on_random_streams():
    for seed in range(25):
        s = _connectivity_stream(seed)
        report = cb.run_streaming(cb.alg_union_find(), s, 5)
        assert report.answer == int(cb.oracle_distance(s) != math.inf)
        assert report.passes_used == 1


def test_union_find_rejects_directed_streams():
    s = cb.GraphStream(3, True, 0, 2, 0, ((0, 1),))
    with pytest.raises(ValueError):
        cb.run_streaming(cb.alg_union_find(), s, 2)


def test_union_find_state_stays_within_word_budget():
    for nv in (16, 64, 256):
        s = _connectivity_stream(nv, nv=nv, density=0.05)
        report = cb.run_streaming(cb.alg_union_find(), s, 2)
        width = math.ceil(math.log2(nv))
        assert report.max_state_bits <= 2 * nv * width


def test_budget_exhaustion_reports_undecided():
    d = cb.build_distance_gadget(identity_instance(4, 2))
    report = cb.run_streaming(cb.alg_forward_bfs(2 * (d.p + 1)), d, 2)
    assert report.answer is None
    assert report.passes_used == 2
    report = cb.run_streaming(cb.alg_forward_bfs(2 * (d.p + 1)), d, 0)
    assert report.answer is None
    assert report.passes_used == 0


def test_negative_budget_rejected():
    d = cb.build_distance_gadget(identity_instance(2, 1))
    with pytest.raises(ValueError):
        cb.run_streaming(cb.alg_union_find(), d, -1)


def test_src_equals_dst_answers_at_init():
    s = cb.GraphStream(3, False, 1, 1, 0, ((0, 1),))
    for factory in (lambda: cb.alg_bidirectional_bfs(2), lambda: cb.alg_forward_bfs(2)):
        report = cb.run_streaming(factory(), s, 5)
        assert report.answer == 1
        assert report.passes_used == 0


def test_zero_distance_bound_answers_at_init():
    s = cb.GraphStream(3, False, 0, 2, 0, ((0, 1),))
    for factory in (cb.alg_bidirectional_bfs, cb.alg_forward_bfs):
        report = cb.run_streaming(factory(0), s, 5)
        assert report.answer == 0
        assert report.passes_used == 0


def test_bidirectional_bound_must_be_even():
    with pytest.raises(ValueError, match="^distance bound must be even and non-negative$"):
        cb.alg_bidirectional_bfs(3)
    with pytest.raises(ValueError, match="^distance bound must be even and non-negative$"):
        cb.alg_bidirectional_bfs(-2)


def test_forward_bound_must_be_non_negative():
    with pytest.raises(ValueError, match="^distance bound must be non-negative$"):
        cb.alg_forward_bfs(-1)
    assert cb.alg_forward_bfs(3).bound == 3


@pytest.mark.parametrize("name, want_passes", [("forward-bfs", 4), ("bidir-bfs", 2)])
def test_state_survives_serialize_restore_between_passes(name, want_passes):
    # drive the algorithm by hand, moving state to a fresh instance mid-run
    d = cb.build_distance_gadget(identity_instance(4, 2))
    bound = 2 * (d.p + 1)
    meta = cb.StreamMeta.of(d)

    first = cb.ALGORITHMS[name](bound)
    assert first.init(meta) is None
    assert first.run_pass(d.edges) is None
    blob = first.serialize_state()

    second = cb.ALGORITHMS[name](bound)
    second.init(meta)
    second.restore_state(blob)
    answer = None
    passes = 1
    while answer is None:
        answer = second.run_pass(d.edges)
        passes += 1
    assert answer == 1
    assert passes == want_passes


@pytest.mark.parametrize("name, want", [
    ("bidir-bfs", [
        "00000000800000000080800000000080",
        "01000000880000000880080000000800",
        "02000000888000008880008000008000",
    ]),
    ("forward-bfs", [
        "00000000800000800000",
        "01000000880000080000",
        "02000000888000008000",
        "03000000888800000800",
        "04000000888880000080",
    ]),
])
def test_bfs_state_bytes_are_pinned(name, want):
    # level, then each ball's visited mask, then each ball's frontier mask
    d = cb.build_distance_gadget(identity_instance(4, 2))
    alg = cb.ALGORITHMS[name](4)
    answer = alg.init(cb.StreamMeta.of(d))
    states = [alg.serialize_state().hex()]
    while answer is None:
        answer = alg.run_pass(d.edges)
        states.append(alg.serialize_state().hex())
    assert answer == 1
    assert states == want


def test_run_report_state_bits_are_checkpoint_sizes():
    d = cb.build_distance_gadget(identity_instance(4, 2))
    alg = cb.alg_forward_bfs(2 * (d.p + 1))
    report = cb.run_streaming(alg, d, 10)
    assert report.max_state_bits == 8 * len(alg.serialize_state())


def test_stream_meta_mirrors_header():
    d = cb.build_distance_gadget(identity_instance(3, 1))
    meta = cb.StreamMeta.of(d)
    assert (meta.nv, meta.directed, meta.src, meta.dst, meta.p) == (
        d.nv, d.directed, d.src, d.dst, d.p,
    )


def test_bidirectional_meets_in_half_the_passes():
    for q in (1, 2, 3):
        inst = identity_instance(3, q)
        d = cb.build_distance_gadget(inst)
        bound = 2 * q
        bidir = cb.run_streaming(cb.alg_bidirectional_bfs(bound), d, 50)
        fwd = cb.run_streaming(cb.alg_forward_bfs(bound), d, 50)
        assert bidir.answer == fwd.answer == 1
        assert bidir.passes_used == q
        assert fwd.passes_used == 2 * q
