"""Blackboard simulator rules and the two exact intersection protocols."""
import re

import pytest

import chasebench as cb
from chasebench.errors import ProtocolError
from helpers import all_set_tables, brute_intersect, identity_set_table, intersect_instance


def test_schedule_validation():
    with pytest.raises(ProtocolError):
        cb.Schedule(0, 1, ((0,),))
    with pytest.raises(ProtocolError):
        cb.Schedule(2, 2, ((0, 1),))  # rounds/order mismatch
    with pytest.raises(ProtocolError):
        cb.Schedule(2, 1, ((0, 2),))  # player out of range
    with pytest.raises(ProtocolError):
        cb.Schedule(2, 1, ((0, 0),))  # duplicate turn
    with pytest.raises(ProtocolError):
        cb.Schedule(2, 1, ((),))  # nobody ever speaks
    std = cb.Schedule.standard(3, 2)
    assert std.order == ((0, 1, 2), (0, 1, 2))


def test_run_protocol_answer_is_last_bit():
    sched = cb.Schedule(2, 1, ((0, 1),))
    answer, tr = cb.run_protocol(
        sched, [lambda inp, t, r: "01", lambda inp, t, r: "111"], [None, None]
    )
    assert answer == 1
    assert tr.messages == [(0, 0, "01"), (0, 1, "111")]
    assert tr.total_bits == 5


def test_run_protocol_rejects_bad_messages():
    sched = cb.Schedule(1, 1, ((0,),))
    with pytest.raises(ProtocolError):
        cb.run_protocol(sched, [lambda inp, t, r: ""], [None])
    with pytest.raises(ProtocolError):
        cb.run_protocol(sched, [lambda inp, t, r: "2"], [None])
    with pytest.raises(ProtocolError):
        cb.run_protocol(sched, [lambda inp, t, r: "01", lambda inp, t, r: "1"], [None])


def test_transcript_lookup_and_dump_format():
    tr = cb.Transcript([(0, 1, "101"), (1, 0, "0")])
    assert tr.message_from(0, 1) == "101"
    assert tr.rounds == 2 and cb.Transcript().rounds == 0
    with pytest.raises(ProtocolError):
        tr.message_from(2, 0)
    for line in tr.dump().splitlines():
        assert re.fullmatch(r"\d+ \d+ bits:[01]+", line)


def _counts_ok(inst, answer, transcript, kind):
    n, p = inst.n, inst.p
    if kind == "forward":
        assert transcript.rounds == p
        assert cb.set_message_bits(transcript, n) == 2 * p * n
    else:
        assert transcript.rounds == 1
        assert transcript.total_bits == 2 * p * n + 1
        assert transcript.total_bits <= 2 * p * (n + 1)
    assert answer == brute_intersect(inst)


def test_protocols_agree_with_oracle_random():
    rng = cb.derive_rng(414)
    for _ in range(300):
        n = int(rng.integers(2, 17))
        p = int(rng.integers(1, 4))
        inst = cb.sample_intersect_sc(n, p, rng)
        fwd, tr_f = cb.forward_sc_protocol(inst)
        rev, tr_r = cb.reverse_order_sc_protocol(inst)
        _counts_ok(inst, fwd, tr_f, "forward")
        _counts_ok(inst, rev, tr_r, "reverse")


def test_protocols_exhaustive_two_elements_one_layer():
    # all 256 single-layer instances on a 2-element ground set
    tables = all_set_tables(2)
    for fl in tables:
        for fr in tables:
            inst = intersect_instance(2, [fl], [fr])
            fwd, tr_f = cb.forward_sc_protocol(inst)
            rev, tr_r = cb.reverse_order_sc_protocol(inst)
            want = brute_intersect(inst)
            assert fwd == rev == want
            assert cb.set_message_bits(tr_f, 2) == 4


def test_protocols_exhaustive_three_elements_one_varying_table():
    # k=3 tier restricted to one free table against the identity layer;
    # the full product space is out of reach, see the varied-table loop
    tables = all_set_tables(3)
    ident = identity_set_table(3)
    for free in tables:
        for left_side in (True, False):
            inst = (
                intersect_instance(3, [free], [ident])
                if left_side
                else intersect_instance(3, [ident], [free])
            )
            fwd, _ = cb.forward_sc_protocol(inst)
            rev, _ = cb.reverse_order_sc_protocol(inst)
            assert fwd == rev == brute_intersect(inst)


def test_forward_round_structure():
    rng = cb.derive_rng(88)
    inst = cb.sample_intersect_sc(8, 3, rng)
    _, tr = cb.forward_sc_protocol(inst)
    n, p = inst.n, inst.p
    # per round: the two set speakers send n bits, everyone else 1 bit
    # (for p >= 2 the closer's final message is the bare answer bit)
    for k in range(p):
        sizes = sorted(len(bits) for r, _, bits in tr.messages if r == k)
        assert sizes == [1] * (2 * p - 2) + [n, n]
        assert len(tr.message_from(k, p - 1 - k)) >= n
        assert len(tr.message_from(k, 2 * p - 1 - k)) >= n


def test_forward_single_layer_closer_appends_answer():
    rng = cb.derive_rng(90)
    inst = cb.sample_intersect_sc(6, 1, rng)
    _, tr = cb.forward_sc_protocol(inst)
    sizes = sorted(len(bits) for _, _, bits in tr.messages)
    assert sizes == [6, 7]


def test_reverse_order_speaks_highest_player_first():
    rng = cb.derive_rng(89)
    inst = cb.sample_intersect_sc(5, 2, rng)
    _, tr = cb.reverse_order_sc_protocol(inst)
    players = [pl for _, pl, _ in tr.messages]
    assert players == [3, 2, 1, 0]
    assert all(r == 0 for r, _, _ in tr.messages)


def test_set_message_bits_requires_room_for_flags():
    with pytest.raises(ValueError):
        cb.set_message_bits(cb.Transcript([(0, 0, "1")]), 1)
