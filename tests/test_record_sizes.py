"""Record sizes, query vertices, r and t are stored as Python ints, so every
record a constructor accepts is one its serializer writes back; the counts
that the reduction, the protocols, the streaming harness and the entropy
toolkit take work alike for every spelling of an integer."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasebench as cb
from chasebench import oracles

EDGE = [[0, 1]]
PATH = cb.GraphStream(4, False, 0, 3, 0, [[0, 1], [1, 2], [2, 3]])
TRANSCRIPT = cb.Transcript([(0, 0, "01")])
SIZES = {"nv", "src", "dst", "p", "n", "r", "t", "players", "rounds"}

# integral values of another type: stored as the int they equal, or, for a
# call that returns a plain result, the pair (that result, the same call on ints)
ACCEPTED = {
    "stream-nv-float": lambda: cb.GraphStream(3.0, False, 0, 2, 0, EDGE),
    "stream-dst-float": lambda: cb.GraphStream(3, False, 0, 2.0, 0, EDGE),
    "stream-src-bool": lambda: cb.GraphStream(3, False, True, 2, 0, EDGE),
    "stream-numpy-ints": lambda: cb.GraphStream(
        np.int64(3), np.bool_(True), np.uint8(0), 2, np.int32(1), EDGE
    ),
    "sc-p-float": lambda: cb.ScInstance(2, 1.0, (cb.SetFunctionTable.identity(2),)),
    "pc-n-float": lambda: cb.PcInstance(2.0, 1, (cb.FunctionTable(2.0, [0, 1]),)),
    "params-n-numpy": lambda: cb.ReductionParams(np.int64(4096), 2, 5, 2),
    "params-t-float": lambda: cb.ReductionParams(4096, 2, 5, 2.0),
    "choose-params-n-numpy": lambda: cb.choose_params(np.int64(4096), 2, 5),
    "choose-params-r-float": lambda: cb.choose_params(4096, 2, 5.0),
    "permutation-family-n-float": lambda: cb.PermutationFamily(2.0, [[[0, 1]]], [[[0, 1]]]),
    "sample-permutations-n-float": lambda: cb.sample_permutation_family(4.0, 1, 1, cb.derive_rng(4)),
    "sample-permutations-t-numpy": lambda: cb.sample_permutation_family(4, 2, np.int32(2), cb.derive_rng(4)),
    "schedule-rounds-float": lambda: cb.Schedule(2, 1.0, ((0, 1),)),
    "standard-schedule-players-float": lambda: cb.Schedule.standard(2.0, np.int64(1)),
    "schedule-player-float": lambda: cb.Schedule(2, 1, ((0.0, np.int64(1)),)),
    "run-protocol-player-float": lambda: (
        cb.run_protocol(cb.Schedule(2, 1, ((0.0, 1),)), [lambda i, t, r: "1"] * 2, [0, 0]),
        cb.run_protocol(cb.Schedule(2, 1, ((0, 1),)), [lambda i, t, r: "1"] * 2, [0, 0]),
    ),
    "feasible-n-numpy": lambda: (cb.feasible(np.int64(4096), 2, 5, 2), cb.feasible(4096, 2, 5, 2)),
    "c-star-n-float": lambda: (cb.c_star_threshold(8.0), cb.c_star_threshold(8)),
    "set-message-n-numpy": lambda: (cb.set_message_bits(TRANSCRIPT, np.int64(2)), cb.set_message_bits(TRANSCRIPT, 2)),
    "bfs-bound-float": lambda: (
        cb.run_streaming(cb.alg_forward_bfs(3.0), PATH, 10), cb.run_streaming(cb.alg_forward_bfs(3), PATH, 10)
    ),
    "pass-budget-numpy": lambda: (
        cb.run_streaming(cb.alg_directed_frontier(), PATH, np.int64(2)),
        cb.run_streaming(cb.alg_directed_frontier(), PATH, 2),
    ),
}

REFUSED = {
    "stream-p-half": lambda: cb.GraphStream(3, False, 0, 2, 0.5, EDGE),
    "stream-nv-fraction": lambda: cb.GraphStream(3.5, False, 0, 2, 0, EDGE),
    "stream-src-nan": lambda: cb.GraphStream(3, False, float("nan"), 2, 0, EDGE),
    "stream-dst-string": lambda: cb.GraphStream(3, False, 0, "2", 0, EDGE),
    "stream-directed-string": lambda: cb.GraphStream(3, "no", 0, 2, 0, EDGE),
    "stream-directed-int": lambda: cb.GraphStream(3, 1, 0, 2, 0, EDGE),
    "function-n-inf": lambda: cb.FunctionTable(float("inf"), [0]),
    "set-table-n-fraction": lambda: cb.SetFunctionTable(1.5, [0, 1], [0]),
    "sc-p-fraction": lambda: cb.ScInstance(2, 1.5, (cb.SetFunctionTable.identity(2),)),
    "lpce-r-fraction": lambda: cb.LpceInstance(
        cb.sample_uniform_pc(2, 1, cb.derive_rng(1)), cb.sample_uniform_pc(2, 1, cb.derive_rng(2)), 2.5
    ),
    "orlpce-t-fraction": lambda: cb.OrLpceInstance(
        1.5, (cb.sample_uniform_lpce(2, 1, 3, cb.derive_rng(3)),)
    ),
    "params-n-fraction": lambda: cb.ReductionParams(4096.5, 2, 5, 2),
    "choose-params-p-fraction": lambda: cb.choose_params(4096, 2.5, 5),
    "feasible-t-fraction": lambda: cb.feasible(4096, 2, 5, 2.5),
    "c-star-n-fraction": lambda: cb.c_star_threshold(8.5),
    "permutation-family-n-fraction": lambda: cb.PermutationFamily(2.5, [[[0, 1]]], [[[0, 1]]]),
    "sample-permutations-n-fraction": lambda: cb.sample_permutation_family(2.5, 1, 1, cb.derive_rng(4)),
    "schedule-rounds-fraction": lambda: cb.Schedule(2, 1.5, ((0, 1),)),
    "standard-schedule-players-fraction": lambda: cb.Schedule.standard(2.5, 1),
    "schedule-player-fraction": lambda: cb.Schedule(2, 1, ((0.5, 1),)),
    "schedule-player-string": lambda: cb.Schedule(2, 1, ((0, "1"),)),
    "set-message-n-fraction": lambda: cb.set_message_bits(TRANSCRIPT, 2.5),
    "bfs-bound-fraction": lambda: cb.alg_forward_bfs(2.5),
    "bidir-bound-fraction": lambda: cb.alg_bidirectional_bfs(3.5),
    "pass-budget-fraction": lambda: cb.run_streaming(cb.alg_directed_frontier(), PATH, 2.5),
}


def _round_trip(record):
    if isinstance(record, cb.GraphStream):
        text = cb.serialize_stream(record)
        return text, cb.parse_stream(text)
    text = cb.serialize_game(record)
    return text, cb.parse_game(text)


@pytest.mark.parametrize("make", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_integral_sizes_are_stored_as_ints_and_written_back(make):
    record = make()
    if isinstance(record, tuple):
        got, want = record
        assert type(got) is type(want) and got == want
        return
    sizes = [f.name for f in dataclasses.fields(record) if f.name in SIZES]
    assert sizes and all(type(getattr(record, name)) is int for name in sizes)
    assert type(getattr(record, "directed", False)) is bool
    if isinstance(record, cb.Schedule):
        assert all(type(player) is int for rnd in record.order for player in rnd)
    if isinstance(record, (cb.ReductionParams, cb.PermutationFamily, cb.Schedule)):
        return  # no text form
    text, back = _round_trip(record)
    assert back == record and _round_trip(back)[0] == text
    if isinstance(record, cb.GraphStream):
        assert oracles.oracle_distance(record) == math.inf  # the one edge misses dst=2


@pytest.mark.parametrize("make", REFUSED.values(), ids=REFUSED.keys())
def test_non_integral_sizes_are_refused(make):
    with pytest.raises(ValueError, match="is not an integer|must be a bool"):
        make()


def _loose(draw, value: int):
    """value as an int, a float, a numpy int, a bool when it is 0 or 1, or
    now and then value + 0.5; returns (spelled value, is it integral)."""
    spellings = [value, float(value), np.int64(value)] + ([bool(value)] if value in (0, 1) else [])
    if draw(st.integers(0, 7)):
        return draw(st.sampled_from(spellings)), True
    return value + 0.5, False


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_accepted_stream_round_trips(data):
    draw = data.draw
    nv = draw(st.integers(2, 6))
    edges = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=8))
    sizes = (nv, draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1)), draw(st.integers(0, 3)))
    spelled = [_loose(draw, value) for value in sizes]
    nv_, src, dst, p = [value for value, _ in spelled]
    try:
        directed = draw(st.sampled_from([False, True, np.bool_(False), np.bool_(True)]))
        stream = cb.GraphStream(nv_, directed, src, dst, p, np.array(edges).reshape(-1, 2))
    except ValueError:
        assert not all(ok for _, ok in spelled)
        return
    assert all(ok for _, ok in spelled)
    text, back = _round_trip(stream)
    assert back == stream and cb.serialize_stream(back) == text


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_accepted_game_round_trips(data):
    draw = data.draw
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    r, t = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["pc", "sc", "lpce", "orlpce", "intersectsc"]))
    spelled = {key: _loose(draw, value) for key, value in (("n", n), ("p", p), ("r", r), ("t", t))}
    size = {key: value for key, (value, _) in spelled.items()}
    used = {"pc": "np", "sc": "np", "lpce": "npr", "orlpce": "nprt", "intersectsc": "np"}[kind]
    rng = cb.derive_rng(draw(st.integers(0, 2**32)))

    def chase(set_valued):
        if set_valued:
            tables = [cb.sample_set_function(n, rng) for _ in range(p)]
            return cb.ScInstance(size["n"], size["p"], tables)
        tables = [cb.FunctionTable(size["n"], rng.integers(0, n, n)) for _ in range(p)]
        return cb.PcInstance(size["n"], size["p"], tables)

    try:
        if kind in ("pc", "sc"):
            inst = chase(kind == "sc")
        elif kind == "intersectsc":
            inst = cb.IntersectScInstance(chase(True), chase(True))
        else:
            items = [cb.LpceInstance(chase(False), chase(False), size["r"]) for _ in range(t)]
            inst = items[0] if kind == "lpce" else cb.OrLpceInstance(size["t"], items)
    except ValueError:
        assert not all(spelled[key][1] for key in used)
        return
    assert all(spelled[key][1] for key in used)
    text, back = _round_trip(inst)
    assert back == inst and cb.serialize_game(back) == text
