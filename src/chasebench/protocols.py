"""Blackboard protocol simulator and the two exact set-chase protocols.

Every message is broadcast: a strategy sees its own input plus the full
transcript so far.  A schedule fixes who speaks when; the last scheduled
speaker's message ends with the answer bit.  Player indices are 0-based,
as are round indices; transcript dumps keep that convention.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from .errors import ProtocolError
from .games import IntersectScInstance, SetFunctionTable, _start, _step
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

    @property
    def rounds(self) -> int:
        return max((r for r, _, _ in self.messages), default=-1) + 1

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


def _set_chase_protocol(inst: IntersectScInstance, schedule: Schedule) -> tuple[int, Transcript]:
    """Run the one set-chase rule under `schedule`; only the order differs.

    Players p-1 and 2p-1 broadcast their table's image of {0} at their first
    turn, any other player i its table's image of player i+1's set at its
    first turn after that broadcast.  Other turns send the placeholder "0";
    the last turn appends the intersection bit of player 0's and p's sets.
    """
    p = inst.p
    starts = (p - 1, 2 * p - 1)
    said: dict[int, int] = {}  # player -> round of its set broadcast
    for round_, turn_order in enumerate(schedule.order):
        for player in turn_order:
            if player not in said and (player in starts or player + 1 in said):
                said[player] = round_
            last = (round_, player)

    def speak(player: int, table: SetFunctionTable, transcript: Transcript, round_: int) -> str:
        msg = ""
        if round_ == said.get(player):
            if player in starts:
                msg = bitmap_to_str(_start(table))
            else:
                prev = transcript.message_from(said[player + 1], player + 1)
                msg = bitmap_to_str(_step(table, str_to_bitmap(prev)))
        if (round_, player) != last:
            return msg or "0"
        left = msg if player == 0 else transcript.message_from(said[0], 0)
        right = msg if player == p else transcript.message_from(said[p], p)
        return msg + ("1" if (str_to_bitmap(left) & str_to_bitmap(right)).any() else "0")

    inputs = list(inst.left.funcs) + list(inst.right.funcs)
    return run_protocol(schedule, [partial(speak, i) for i in range(2 * p)], inputs)


def forward_sc_protocol(inst: IntersectScInstance) -> tuple[int, Transcript]:
    """Exact p-round protocol in the standard speaking order.

    Round k (0-based) extends each side's reachable set by one layer: player
    p-1-k broadcasts the left set, player 2p-1-k the right set, everyone
    else a 1-bit placeholder.  The last speaker of the last round reads both
    final bitmaps off the blackboard and outputs the intersection bit, so
    set messages total exactly 2p*n bits.
    """
    return _set_chase_protocol(inst, Schedule.standard(2 * inst.p, inst.p))


def reverse_order_sc_protocol(inst: IntersectScInstance) -> tuple[int, Transcript]:
    """Exact 1-round protocol: players speak in reverse index order.

    Each player extends the appropriate reachable set by their own layer and
    broadcasts it as an n-bit bitmap; player 0 appends the answer bit, so the
    total is 2p*n + 1 <= 2p*(n+1) bits.
    """
    return _set_chase_protocol(inst, Schedule(2 * inst.p, 1, (tuple(range(2 * inst.p))[::-1],)))


def set_message_bits(transcript: Transcript, n: int) -> int:
    """Total bits spent on set bitmaps (answer and placeholder bits excluded).

    Set messages are n or n+1 bits long (the final speaker appends the answer
    bit), placeholders are 1 bit, so lengths distinguish them for n >= 2.
    """
    if n < 2:
        raise ValueError("set-message accounting requires n >= 2")
    return sum(n for _, _, bits in transcript.messages if len(bits) >= n)
