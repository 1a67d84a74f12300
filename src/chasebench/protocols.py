"""Blackboard protocol simulator and the two exact set-chase protocols.

Every message is broadcast: a strategy sees its own input plus the full
transcript so far.  A schedule fixes who speaks when; the last scheduled
speaker's message ends with the answer bit.  Player indices are 0-based,
as are round indices; transcript dumps keep that convention.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ProtocolError
from .games import IntersectScInstance, SetFunctionTable, _vec_apply_sorted
from .util import bitmap_to_str, str_to_bitmap

__all__ = [
    "Schedule",
    "Transcript",
    "run_protocol",
    "forward_sc_protocol",
    "reverse_order_sc_protocol",
    "set_message_bits",
]

Strategy = Callable[[Any, "Transcript", int], str]


@dataclass(frozen=True)
class Schedule:
    """Speaking order: `order[i]` lists the players of round i in turn order."""

    players: int
    rounds: int
    order: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(tuple(rnd) for rnd in self.order))
        if self.players < 1:
            raise ProtocolError("need at least one player")
        if self.rounds < 1 or len(self.order) != self.rounds:
            raise ProtocolError("order must list exactly `rounds` rounds")
        for rnd in self.order:
            seen = set()
            for player in rnd:
                if not 0 <= player < self.players:
                    raise ProtocolError(f"player {player} outside [0, {self.players})")
                if player in seen:
                    raise ProtocolError(f"player {player} scheduled twice in one round")
                seen.add(player)
        if not any(self.order):
            raise ProtocolError("schedule has no turns")

    @classmethod
    def standard(cls, players: int, rounds: int) -> "Schedule":
        """Every round runs player 0 through players-1 in order."""
        return cls(players, rounds, tuple(tuple(range(players)) for _ in range(rounds)))


@dataclass
class Transcript:
    """Broadcast history: (round, player, bits) triples in emission order."""

    messages: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        return sum(len(bits) for _, _, bits in self.messages)

    def message_from(self, round_: int, player: int) -> str:
        for r, pl, bits in self.messages:
            if r == round_ and pl == player:
                return bits
        raise ProtocolError(f"no message from player {player} in round {round_}")

    def dump(self) -> str:
        """One line per message: `<round> <player> bits:<01-string>`."""
        return "".join(f"{r} {pl} bits:{bits}\n" for r, pl, bits in self.messages)


def _validate_message(bits: str) -> None:
    if not isinstance(bits, str) or not bits:
        raise ProtocolError("a scheduled turn must emit a nonempty bit string")
    if bits.count("0") + bits.count("1") != len(bits):
        raise ProtocolError(f"message must contain only 0/1, got {bits!r}")


def run_protocol(
    schedule: Schedule, strategies: Sequence[Strategy], inputs: Sequence[Any]
) -> tuple[int, Transcript]:
    """Execute the schedule; returns (answer, transcript).

    Strategies are deterministic callables (own_input, transcript, round) ->
    bit string.  Only the scheduled player is asked to speak at each turn.
    The final bit of the final scheduled message is the protocol's answer.
    """
    if len(strategies) != schedule.players or len(inputs) != schedule.players:
        raise ProtocolError("need one strategy and one input per player")
    transcript = Transcript()
    for round_, turn_order in enumerate(schedule.order):
        for player in turn_order:
            bits = strategies[player](inputs[player], transcript, round_)
            _validate_message(bits)
            transcript.messages.append((round_, player, bits))
    answer = int(transcript.messages[-1][2][-1])
    return answer, transcript


# ---------------------------------------------------------------------------
# set-chase protocols
#
# For an intersection instance with p layers per side there are 2p players:
# player i < p holds left table i, player p+i holds right table i.  A "set
# message" is the current reachable set as a fixed-width n-bit bitmap.


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


def forward_sc_protocol(inst: IntersectScInstance) -> tuple[int, Transcript]:
    """Exact p-round protocol in the standard speaking order.

    Round k (0-based) extends each side's reachable set by one layer: player
    p-1-k broadcasts the left set, player 2p-1-k the right set, everyone
    else a 1-bit placeholder.  The last speaker of the last round reads both
    final bitmaps off the blackboard and outputs the intersection bit, so
    set messages total exactly 2p*n bits.
    """
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


def reverse_order_sc_protocol(inst: IntersectScInstance) -> tuple[int, Transcript]:
    """Exact 1-round protocol: players speak in reverse index order.

    Each player extends the appropriate reachable set by their own layer and
    broadcasts it as an n-bit bitmap; player 0 appends the answer bit, so the
    total is 2p*n + 1 <= 2p*(n+1) bits.
    """
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


def set_message_bits(transcript: Transcript, n: int) -> int:
    """Total bits spent on set bitmaps (answer and placeholder bits excluded).

    Set messages are n or n+1 bits long (the final speaker appends the answer
    bit), placeholders are 1 bit, so lengths distinguish them for n >= 2.
    """
    if n < 2:
        raise ValueError("set-message accounting requires n >= 2")
    return sum(n for _, _, bits in transcript.messages if len(bits) >= n)
