"""Randomized reduction from OR-of-escape-equality to set-chase intersection.

The reduction scrambles each item's chase with fresh layer permutations
(shared at the outermost layer so equality survives), then overlays the t
scrambled items into one set-chase instance whose final sets intersect
whenever some item's chases agree.  A pre-round short-circuit handles the
non-injectivity escape: if any table is r-non-injective the answer is 1
before any scrambling happens.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InfeasibleParametersError
from .games import (
    FunctionTable,
    IntersectScInstance,
    LpceInstance,
    OrLpceInstance,
    ScInstance,
    SetFunctionTable,
    is_r_non_injective,
)
from .protocols import Transcript
from .util import FrozenRecord, exact_int, frozen_copy

__all__ = [
    "ReductionParams",
    "choose_params",
    "PermutationFamily",
    "sample_permutation_family",
    "scramble",
    "overlay",
    "ShortCircuit",
    "reduce_or_lpce",
    "end_to_end_solve",
    "end_to_end_report",
    "EndToEndReport",
    "feasible",
]


def feasible(n: int, p: int, r: int, t: int) -> bool:
    """Exact check of the soundness budget: 10 * t^(2p) * r^(p-1) <= n."""
    n, p, r, t = (exact_int(value, name) for value, name in zip((n, p, r, t), "nprt"))
    # unless t = r = 1, t^(2p) * r^(p-1) >= 2^(p-1) > n once p exceeds n's bit
    # length, so a huge p is refused before its power is built
    if p > n.bit_length() and max(t, r) >= 2 and min(t, r) >= 1:
        return False
    return 10 * t ** (2 * p) * r ** (p - 1) <= n


@dataclass(frozen=True)
class ReductionParams:
    """Problem size (n, p, r) plus a fan-in t within the soundness budget."""

    n: int
    p: int
    r: int
    t: int

    def __post_init__(self):
        for name in ("n", "p", "r", "t"):
            object.__setattr__(self, name, exact_int(getattr(self, name), name))
        if min(self.n, self.p, self.r, self.t) < 1:
            raise ValueError("parameters must be positive")
        if not feasible(self.n, self.p, self.r, self.t):
            raise InfeasibleParametersError(
                f"t={self.t} violates 10*t^(2p)*r^(p-1) <= n for n={self.n}, p={self.p}, r={self.r}"
            )


def choose_params(n: int, p: int, r: int) -> ReductionParams:
    """Largest fan-in on the standard schedule, in exact integer arithmetic.

    Picks the largest t with (10*r*t^2)^p <= n, the integer form of
    t <= n^(1/(2p)) / sqrt(10*r).  Doubles an upper bound, then bisects, so
    the budget is only evaluated at widths up to max(1, 2t), which keeps the
    powers small when p is large.  Raises when even t=1 does not fit.
    """
    n, p, r = (exact_int(value, name) for value, name in zip((n, p, r), "npr"))
    if n < 1 or p < 1 or r < 1:
        raise ValueError("parameters must be positive")

    def fits(width: int) -> bool:
        # base >= 10 > 2, so base**p > n once p reaches n's bit length
        return p < n.bit_length() and (10 * r * width * width) ** p <= n

    t, hi = 0, 1  # invariant: fits(t) and not fits(hi) once the doubling stops
    while fits(hi):
        t, hi = hi, 2 * hi
    while hi - t > 1:
        mid = (t + hi) // 2
        if fits(mid):
            t = mid
        else:
            hi = mid
    if t < 1:
        raise InfeasibleParametersError(
            f"no positive width satisfies (10*r*t^2)^p <= n for n={n}, p={p}, r={r}"
        )
    return ReductionParams(n, p, r, t)


@dataclass(frozen=True, eq=False)
class PermutationFamily(FrozenRecord):
    """Per-item, per-layer permutations for both chase sides.

    pi[j, i] scrambles layer i of item j's left chase; rho likewise on the
    right.  The outermost layers are shared: pi[j, 0] == rho[j, 0], which is
    what lets a scrambled equality survive as an intersection.
    """

    n: int
    pi: np.ndarray  # shape (t, p, n)
    rho: np.ndarray  # shape (t, p, n)

    def __post_init__(self):
        object.__setattr__(self, "n", exact_int(self.n, "n"))
        pi = frozen_copy(self.pi, np.int64)
        rho = frozen_copy(self.rho, np.int64)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "rho", rho)
        self._check_shapes()
        for fam in (pi, rho):
            # a row is a permutation iff its n values lie in [0, n) and hit all n slots
            flat = fam.reshape(-1, self.n)
            if flat.size and (flat.min() < 0 or flat.max() >= self.n):
                raise ValueError("every row must be a permutation of [0, n)")
            hit = np.zeros(flat.size, dtype=bool)
            hit[(flat + np.arange(len(flat))[:, None] * self.n).ravel()] = True
            if not hit.all():
                raise ValueError("every row must be a permutation of [0, n)")
        if not np.array_equal(pi[:, 0, :], rho[:, 0, :]):
            raise ValueError("outermost layers must be shared between pi and rho")

    def _check_shapes(self) -> None:
        if self.pi.ndim != 3 or self.pi.shape != self.rho.shape or self.pi.shape[2] != self.n:
            raise ValueError("pi and rho must both have shape (t, p, n)")

    @property
    def t(self) -> int:
        return self.pi.shape[0]

    @property
    def p(self) -> int:
        return self.pi.shape[1]

    def inverse(self) -> "PermutationFamily":
        return PermutationFamily._trusted(n=self.n, pi=_invert(self.pi), rho=_invert(self.rho))


def _invert(perms: np.ndarray) -> np.ndarray:
    """Inverse of each permutation along the last axis (equal to its argsort)."""
    inv = np.empty_like(perms)
    np.put_along_axis(inv, perms, np.arange(perms.shape[-1]), axis=-1)
    return inv


def sample_permutation_family(
    n: int, p: int, t: int, rng: np.random.Generator
) -> PermutationFamily:
    """Independent uniform permutations, except the shared outermost layer.

    Draw order per item: shared layer first, then remaining left layers, then
    remaining right layers, so a fixed seed pins the whole family.
    """
    n, p, t = (exact_int(value, name) for value, name in zip((n, p, t), "npt"))
    pi, rho = [], []
    for _ in range(t):
        shared = rng.permutation(n)
        pi += [shared, *(rng.permutation(n) for _ in range(1, p))]
        rho += [shared, *(rng.permutation(n) for _ in range(1, p))]
    return PermutationFamily._trusted(
        n=n,
        pi=np.array(pi, dtype=np.int64).reshape(t, p, n),
        rho=np.array(rho, dtype=np.int64).reshape(t, p, n),
    )


def _scramble_side(
    funcs: Sequence[FunctionTable], perms: np.ndarray
) -> tuple[FunctionTable, ...]:
    """Conjugate one chase's tables by the layer permutations.

    Layer i becomes perms[i] o f_i o perms[i+1]^-1; the innermost layer has
    no inner inverse so the chase still starts at the raw element 0.  An
    inner layer is one scatter: the new table sends perms[i+1][x] to
    perms[i][f_i(x)].  Each new table is a permutation of a valid table's
    image, so it is built through the trusted entry.
    """
    p = len(funcs)
    n = funcs[0].n
    out = []
    for i in range(p):
        image = perms[i][funcs[i].image]
        if i + 1 < p:
            inner = np.empty_like(image)
            inner[perms[i + 1]] = image
            image = inner
        out.append(FunctionTable._trusted(n=n, image=image))
    return tuple(out)


def scramble(
    item: LpceInstance, j: int, perms: PermutationFamily
) -> tuple[tuple[FunctionTable, ...], tuple[FunctionTable, ...]]:
    """Scrambled copies of item's left and right tables under family slot j.

    The chase answers are carried through: each side's answer becomes the
    shared outermost permutation of the original answer, so equality (and
    every table's preimage-count profile) is preserved exactly.
    """
    if item.n != perms.n or item.p != perms.p:
        raise ValueError("permutation family does not match the item's shape")
    if not 0 <= j < perms.t:
        raise ValueError(f"item slot {j} outside [0, {perms.t})")
    left = _scramble_side(item.left.funcs, perms.pi[j])
    right = _scramble_side(item.right.funcs, perms.rho[j])
    return left, right


def overlay(
    scrambled: Sequence[tuple[Sequence[FunctionTable], Sequence[FunctionTable]]]
) -> IntersectScInstance:
    """Merge t scrambled items into one set-chase intersection instance.

    Layer i of the result maps x to the set of the t scrambled layer-i
    values at x (duplicates collapse).  Every pair must hold two sides of p
    FunctionTables over one n, p and n being those of pair 0's left side;
    a pair that does not is refused with a ValueError that names it.

    Each layer is one stable sort of the n*t keys x*n + image_j[x].  Row x's
    keys lie in [x*n, (x+1)*n), so the sorted keys hold row x's t values in
    slots [x*t, (x+1)*t), ascending, and a key equal to the one before it is
    a duplicate within its row.  Row x then starts at slot t*x less the
    duplicates before it, and its values are its keys less x*n with the
    duplicates deleted.  Every row comes out strictly ascending and in
    [0, n), so the tables are built through the trusted entry.  Keys stay
    below n^2, which int64 holds for every n whose tables fit in memory.
    """
    if not scrambled or not scrambled[0][0]:
        raise ValueError("need at least one scrambled item with at least one layer")
    p, n, t = len(scrambled[0][0]), scrambled[0][0][0].n, len(scrambled)
    for j, (left, right) in enumerate(scrambled):
        if len(left) != p or len(right) != p:
            raise ValueError(
                f"pair {j} has {len(left)} left and {len(right)} right layers, not {p} a side"
            )
        if not all(isinstance(f, FunctionTable) and f.n == n for f in (*left, *right)):
            raise ValueError(f"pair {j} holds a table that is not a FunctionTable over n={n}")
    row_start = np.arange(n + 1, dtype=np.int64) * t
    slot_base = np.arange(n, dtype=np.int64).repeat(t) * n  # x*n in each of row x's slots
    row_base = slot_base[::t]
    keys = np.empty(n * t, dtype=np.int64)

    def overlay_layer(images) -> SetFunctionTable:
        for j, image in enumerate(images):
            np.add(image, row_base, out=keys[j::t])
        keys.sort(kind="stable")
        dup = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        offsets = row_start - np.searchsorted(dup, row_start)
        values = np.delete(np.subtract(keys, slot_base, out=keys), dup)
        return SetFunctionTable._trusted(n=n, offsets=offsets, values=values)

    def overlay_side(side: int) -> ScInstance:
        layers = (overlay_layer([pair[side][i].image for pair in scrambled]) for i in range(p))
        return ScInstance(n, p, tuple(layers))

    return IntersectScInstance(overlay_side(0), overlay_side(1))


@dataclass(frozen=True)
class ShortCircuit:
    """Pre-round outcome: some table tripped the non-injectivity escape.

    witness is (item, side, layer) of the first offending table, sides being
    0=left, 1=right.  The game answer is 1 by definition in this case.
    """

    witness: tuple[int, int, int]

    @property
    def answer(self) -> int:
        return 1


def _find_non_injective(inst: OrLpceInstance) -> tuple[int, int, int] | None:
    """(item, side, layer) of the first r-non-injective table in tables() order."""
    for index, f in enumerate(inst.tables()):
        if is_r_non_injective(f, inst.r):
            item, player = divmod(index, 2 * inst.p)
            return (item, *divmod(player, inst.p))
    return None


def reduce_or_lpce(
    inst: OrLpceInstance,
    rng: np.random.Generator,
    *,
    check_feasible: bool = True,
) -> Union[IntersectScInstance, ShortCircuit]:
    """Randomized reduction to set-chase intersection.

    Completeness is deterministic: an OR answer of 1 always maps to an
    intersecting instance.  Soundness (a 0 maps to non-intersecting with
    probability >= 9/10) additionally needs the parameter budget checked by
    `feasible`; pass check_feasible=False to run the map outside the budget,
    e.g. for completeness-only experiments.
    """
    if check_feasible and not feasible(inst.n, inst.p, inst.r, inst.t):
        raise InfeasibleParametersError(
            f"10*t^(2p)*r^(p-1) > n for n={inst.n}, p={inst.p}, r={inst.r}, t={inst.t}"
        )
    witness = _find_non_injective(inst)
    if witness is not None:
        return ShortCircuit(witness)
    perms = sample_permutation_family(inst.n, inst.p, inst.t, rng)
    pairs = [scramble(item, j, perms) for j, item in enumerate(inst.items)]
    return overlay(pairs)


Solver = Callable[[IntersectScInstance], tuple[int, Transcript]]


@dataclass(frozen=True)
class EndToEndReport:
    """Outcome of solving an OR instance through the reduction."""

    answer: int
    communication_bits: int
    short_circuited: bool


def end_to_end_report(
    inst: OrLpceInstance,
    solver: Solver,
    rng: np.random.Generator,
    *,
    check_feasible: bool = True,
) -> EndToEndReport:
    """Reduce, then run a set-chase intersection solver on the result.

    Communication accounting charges one pre-round bit per player (2p bits,
    each player reporting whether any table they hold is non-injective) on
    top of whatever the solver's transcript used.
    """
    pre_round_bits = 2 * inst.p
    reduced = reduce_or_lpce(inst, rng, check_feasible=check_feasible)
    if isinstance(reduced, ShortCircuit):
        return EndToEndReport(1, pre_round_bits, True)
    answer, transcript = solver(reduced)
    return EndToEndReport(answer, pre_round_bits + transcript.total_bits, False)


def end_to_end_solve(
    inst: OrLpceInstance,
    solver: Solver,
    rng: np.random.Generator,
    *,
    check_feasible: bool = True,
) -> int:
    """Answer bit of `end_to_end_report` (short-circuits pass through as 1)."""
    return end_to_end_report(inst, solver, rng, check_feasible=check_feasible).answer
