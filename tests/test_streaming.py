"""Pass accounting, state checkpointing, and the four streaming algorithms."""
import math

import numpy as np
import pytest

import chasebench as cb
from chasebench import streaming
from chasebench.util import pack_uints, unpack_uints
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


@pytest.mark.parametrize("name, reverse, want", [
    ("directed-frontier", False, ["00000000800000", "00000000880000", "00000000888880"]),
    ("directed-frontier", True, ["00000000800000", "00000000888000", "00000000888800", "00000000888880"]),
    ("union-find", False, ["00443214c74254b635cf846530", "00443004430044300443004430"]),
])
def test_frontier_and_union_find_state_bytes_are_pinned(name, reverse, want):
    # directed-frontier: a level word that stays 0, then the 20-bit visited
    # mask; union-find: each vertex's root in 5 bits, most significant first
    inst = identity_instance(4, 2)
    stream = (cb.build_reachability_gadget if name == "directed-frontier" else cb.build_distance_gadget)(inst)
    stream = cb.reverse_stream(stream) if reverse else stream
    alg = cb.ALGORITHMS[name]()
    answer = alg.init(cb.StreamMeta.of(stream))
    states = [alg.serialize_state().hex()]
    while answer is None:
        answer = alg.run_pass(stream.edges)
        states.append(alg.serialize_state().hex())
    assert answer == 1
    assert states == want


@pytest.mark.parametrize("nv", [1, 7, 8, 9, 2800])
@pytest.mark.parametrize("count", range(1, 7))
def test_mask_codec_round_trips(count, nv):
    rng = cb.derive_rng(22, count, nv)
    masks = rng.random((count, nv)) < 0.5
    level = int(rng.integers(0, 2**32))
    blob = streaming._pack_masks(level, masks)
    # the same bytes as the level word followed by each mask packed on its own
    assert blob == level.to_bytes(4, "little") + b"".join(np.packbits(m).tobytes() for m in masks)
    assert len(blob) == 4 + count * ((nv + 7) // 8)
    got_level, got = streaming._unpack_masks(blob, nv, count)
    assert got_level == level
    assert got.dtype == bool and np.array_equal(got, masks)


def _wrong_lengths(blob):
    return [b"", blob[:-1], blob + b"\0"]


@pytest.mark.parametrize("name", sorted(cb.ALGORITHMS))
def test_restore_refuses_a_blob_of_the_wrong_length(name):
    s = cb.GraphStream(12, False, 0, 11, 0, [[v, v + 1] for v in range(11)])
    alg = cb.ALGORITHMS[name](4) if name.endswith("bfs") else cb.ALGORITHMS[name]()
    alg.init(cb.StreamMeta.of(s))
    blob = alg.serialize_state()
    for bad in _wrong_lengths(blob) + [blob[:4], blob + bytes(28)]:
        with pytest.raises(ValueError, match=f"has {len(bad)} bytes"):
            alg.restore_state(bad)
    alg.restore_state(blob)
    assert alg.serialize_state() == blob


@pytest.mark.parametrize("name", ["bidir-bfs", "directed-frontier", "forward-bfs"])
@pytest.mark.parametrize("nv", [12, 13, 15, 16])
def test_restore_refuses_each_padding_bit_of_each_row(name, nv):
    # e.g. forward-bfs's 12-vertex init 0000000080008000 as 0000000080018000
    alg = cb.ALGORITHMS[name](4) if name.endswith("bfs") else cb.ALGORITHMS[name]()
    alg.init(cb.StreamMeta(nv, False, 0, nv - 1, 0))
    blob = alg.serialize_state()
    step = (nv + 7) // 8
    rows = (len(blob) - 4) // step
    for row in range(rows):
        for bit in range(8 * step - nv):
            bad = bytearray(blob)
            bad[4 + row * step + step - 1] |= 1 << bit
            with pytest.raises(ValueError, match="padding bit"):
                alg.restore_state(bytes(bad))
    alg.restore_state(blob)
    assert alg.serialize_state() == blob


@pytest.mark.parametrize("name, bound, last", [
    ("forward-bfs", 4, 4), ("forward-bfs", 3, 3), ("bidir-bfs", 4, 2), ("bidir-bfs", 6, 3),
    ("directed-frontier", None, 0),
])
def test_restore_refuses_a_level_no_run_reaches(name, bound, last):
    s = cb.GraphStream(12, False, 0, 11, 0, [[v, v + 1] for v in range(11)])
    alg = cb.ALGORITHMS[name](bound) if name.endswith("bfs") else cb.ALGORITHMS[name]()
    alg.init(cb.StreamMeta.of(s))
    blob = alg.serialize_state()
    if bound is not None:
        # dst is 11 hops away, so the run spends every pass the bound allows
        # and the harness restores the state at the last level
        assert cb.run_streaming(cb.ALGORITHMS[name](bound), s, 100) == cb.RunReport(0, last, len(blob) * 8)
    for level in (last + 1, 2**32 - 1):
        with pytest.raises(ValueError, match=f"level {level}, above the last reachable level {last}"):
            alg.restore_state(level.to_bytes(4, "little") + blob[4:])
    alg.restore_state(last.to_bytes(4, "little") + blob[4:])
    assert alg.serialize_state()[4:] == blob[4:]


def test_union_find_refuses_a_root_beyond_the_last_vertex():
    alg = cb.alg_union_find()
    alg.init(cb.StreamMeta(12, False, 0, 11, 0))
    with pytest.raises(ValueError, match="root beyond the last vertex"):
        alg.restore_state(pack_uints([0] * 11 + [12], 4))
    alg.restore_state(pack_uints([0] * 11 + [11], 4))


@pytest.mark.parametrize("width, count", [(4, 12), (3, 12), (1, 1), (5, 20)])
def test_unpack_uints_refuses_a_blob_of_the_wrong_length(width, count):
    values = np.arange(count) % (1 << width)
    blob = pack_uints(values, width)
    assert len(blob) == (count * width + 7) // 8
    assert np.array_equal(unpack_uints(blob, width, count), values)
    for bad in _wrong_lengths(blob):
        with pytest.raises(ValueError, match=f"has {len(bad)} bytes"):
            unpack_uints(bad, width, count)


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
