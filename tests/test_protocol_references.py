"""Differential tests: the one schedule-driven set-chase strategy against the two strategy sets it replaced.

The references below are the earlier forward and reverse-order protocols,
kept verbatim: each wrote the chain rule out for its own speaking order.
Each test asserts the current protocols give the same answer and a
byte-identical transcript dump.
"""
import numpy as np

import chasebench as cb
from chasebench.games import SetFunctionTable, _vec_apply_sorted
from chasebench.protocols import Schedule, Strategy, Transcript, run_protocol
from chasebench.util import bitmap_to_str, str_to_bitmap
from helpers import all_set_tables, intersect_instance

# ------------------------------------------------------------------ references


def _apply_table(table: SetFunctionTable, prev_bits: str | None) -> np.ndarray:
    if prev_bits is None:
        cur = np.array([0], dtype=np.int64)
    else:
        cur = np.nonzero(str_to_bitmap(prev_bits[: table.n]))[0].astype(np.int64)
    return _vec_apply_sorted(table, cur)


def _bitmap(n: int, elems: np.ndarray) -> str:
    mask = np.zeros(n, dtype=bool)
    mask[elems] = True
    return bitmap_to_str(mask)


def _intersect_bit(left_bits: str, right_bits: str, n: int) -> str:
    hit = (str_to_bitmap(left_bits[:n]) & str_to_bitmap(right_bits[:n])).any()
    return "1" if hit else "0"


def reference_forward(inst):
    n, p = inst.n, inst.p

    def make_strategy(player: int) -> Strategy:
        def speak(table: SetFunctionTable, transcript: Transcript, round_: int) -> str:
            msg = None
            if player == p - 1 - round_:  # left set speaker this round
                prev = None if round_ == 0 else transcript.message_from(round_ - 1, player + 1)
                msg = _bitmap(n, _apply_table(table, prev))
            elif player == 2 * p - 1 - round_:  # right set speaker this round
                prev = None if round_ == 0 else transcript.message_from(round_ - 1, player + 1)
                msg = _bitmap(n, _apply_table(table, prev))
            if player == 2 * p - 1 and round_ == p - 1:
                # final turn: append the answer bit to whatever was due
                left_final = transcript.message_from(p - 1, 0)
                right_final = msg if msg is not None else transcript.message_from(p - 1, p)
                answer = _intersect_bit(left_final, right_final, n)
                return (msg or "") + answer
            return msg if msg is not None else "0"

        return speak

    schedule = Schedule.standard(2 * p, p)
    inputs = list(inst.left.funcs) + list(inst.right.funcs)
    strategies = [make_strategy(i) for i in range(2 * p)]
    return run_protocol(schedule, strategies, inputs)


def reference_reverse(inst):
    n, p = inst.n, inst.p

    def make_strategy(player: int) -> Strategy:
        def speak(table: SetFunctionTable, transcript: Transcript, round_: int) -> str:
            starts_side = player == 2 * p - 1 or player == p - 1
            prev = None if starts_side else transcript.message_from(0, player + 1)
            msg = _bitmap(n, _apply_table(table, prev))
            if player == 0:
                answer = _intersect_bit(msg, transcript.message_from(0, p), n)
                return msg + answer
            return msg

        return speak

    schedule = Schedule(2 * p, 1, (tuple(range(2 * p - 1, -1, -1)),))
    inputs = list(inst.left.funcs) + list(inst.right.funcs)
    strategies = [make_strategy(i) for i in range(2 * p)]
    return run_protocol(schedule, strategies, inputs)


# ------------------------------------------------------------------ differential


def _assert_matches_references(inst):
    for current, reference in (
        (cb.forward_sc_protocol, reference_forward),
        (cb.reverse_order_sc_protocol, reference_reverse),
    ):
        got_answer, got = current(inst)
        want_answer, want = reference(inst)
        assert got_answer == want_answer
        assert got.dump() == want.dump()


def test_sampled_instances_match_the_references():
    rng = cb.derive_rng(2026, 8)
    for n in [1, *rng.integers(1, 17, size=299).tolist()]:
        inst = cb.sample_intersect_sc(
            n, int(rng.integers(1, 5)), rng, include_prob=float(rng.uniform(0.05, 0.6))
        )
        _assert_matches_references(inst)


def test_every_two_element_single_layer_instance_matches_the_references():
    tables = all_set_tables(2)
    for fl in tables:
        for fr in tables:
            _assert_matches_references(intersect_instance(2, [fl], [fr]))
