"""Pointer-chase and set-chase game instances, evaluators, and samplers.

The games here are communication problems: p players each hold one function
table over a common ground set of size n, and the quantity of interest is a
nested application of those tables.  A pointer chase follows single values,
a set chase follows subsets under vectorized application.  On top of the two
chases sit the derived predicates: equality of two chases, equality with a
non-injectivity escape hatch, set-chase intersection, and a t-way OR.

Indexing convention: ground-set elements, table indices, and players are all
0-based.  The chase starts at element 0 (the traditional "start at 1" with
labels shifted down).  Serializers in `gameio` keep the same convention.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np

from .util import FrozenRecord, frozen_copy

__all__ = [
    "FunctionTable",
    "SetFunctionTable",
    "PcInstance",
    "ScInstance",
    "LpceInstance",
    "OrLpceInstance",
    "IntersectScInstance",
    "vec_apply",
    "eval_pc",
    "eval_sc",
    "is_r_non_injective",
    "eval_equal_pc",
    "eval_lpce",
    "eval_intersect_sc",
    "eval_or_lpce",
    "sample_uniform_function",
    "sample_uniform_pc",
    "sample_uniform_lpce",
    "sample_uniform_or_lpce",
    "sample_set_function",
    "sample_intersect_sc",
    "force_equal",
]


@dataclass(frozen=True, eq=False)
class FunctionTable(FrozenRecord):
    """A total mapping from [0, n) to [0, n), stored as an image array.

    image[x] is the value the table assigns to x.  Instances are immutable:
    the table holds a read-only copy of the array it was given.
    """

    n: int
    image: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground set must be nonempty")
        image = frozen_copy(self.image, np.int64)
        if image.shape != (self.n,):
            raise ValueError(f"image must have shape ({self.n},), got {image.shape}")
        if image.min() < 0 or image.max() >= self.n:
            raise ValueError("image values must lie in [0, n)")
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, n: int) -> "FunctionTable":
        return cls(n, np.arange(n))

    @classmethod
    def constant(cls, n: int, value: int) -> "FunctionTable":
        return cls(n, np.full(n, value))

    def __call__(self, x: int) -> int:
        return int(self.image[x])


@dataclass(frozen=True, eq=False)
class SetFunctionTable(FrozenRecord):
    """A total mapping from [0, n) to subsets of [0, n).

    Rows are packed: the image of x is values[offsets[x]:offsets[x+1]],
    strictly ascending.  Empty images are allowed.
    """

    n: int
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground set must be nonempty")
        offsets = frozen_copy(self.offsets, np.int64)
        values = frozen_copy(self.values, np.int64)
        if offsets.shape != (self.n + 1,) or offsets[0] != 0:
            raise ValueError("offsets must have shape (n+1,) and start at 0")
        if np.count_nonzero(offsets[1:] < offsets[:-1]) or offsets[-1] != values.size:
            raise ValueError("offsets must be nondecreasing and end at len(values)")
        if values.size and (values.min() < 0 or values.max() >= self.n):
            raise ValueError("image values must lie in [0, n)")
        # ascending within each row: a non-increase values[i-1] >= values[i] is
        # allowed only where a row starts at i (is_start[1:-1] covers i = 1 .. size-1)
        is_start = np.zeros(values.size + 1, dtype=bool)
        is_start[offsets[1:-1]] = True
        if ((values[1:] <= values[:-1]) & ~is_start[1:-1]).any():
            raise ValueError("each image row must be strictly ascending")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_sets(cls, n: int, sets: Sequence[Iterable[int]]) -> "SetFunctionTable":
        if len(sets) != n:
            raise ValueError("need exactly one image set per ground-set element")
        rows = [sorted(set(int(y) for y in s)) for s in sets]
        return cls(n, np.cumsum([0, *map(len, rows)]), [y for row in rows for y in row])

    @classmethod
    def identity(cls, n: int) -> "SetFunctionTable":
        return cls(n, np.arange(n + 1), np.arange(n))

    @classmethod
    def from_function(cls, table: FunctionTable) -> "SetFunctionTable":
        """Singleton-image table computing the same chase as `table`."""
        return cls(table.n, np.arange(table.n + 1), table.image)

    def image(self, x: int) -> np.ndarray:
        if not 0 <= x < self.n:
            raise ValueError(f"element {x} outside [0, {self.n})")
        return self.values[self.offsets[x]:self.offsets[x + 1]]

    def total_image_size(self) -> int:
        return int(self.values.size)


def _check_layer_shapes(n: int, p: int, funcs, kind) -> None:
    if p < 1:
        raise ValueError("need at least one layer")
    if len(funcs) != p:
        raise ValueError(f"expected {p} tables, got {len(funcs)}")
    for f in funcs:
        if not isinstance(f, kind):
            raise TypeError(f"layer tables must be {kind.__name__}")
        if f.n != n:
            raise ValueError("all layers must share the same ground set size")


@dataclass(frozen=True)
class PcInstance:
    """A pointer chase: p function tables applied innermost-last-first.

    funcs[0] is the outermost table (applied last); funcs[p-1] is applied
    first to the start element 0.
    """

    n: int
    p: int
    funcs: tuple[FunctionTable, ...]

    def __post_init__(self):
        object.__setattr__(self, "funcs", tuple(self.funcs))
        _check_layer_shapes(self.n, self.p, self.funcs, FunctionTable)


@dataclass(frozen=True)
class ScInstance:
    """A set chase: like PcInstance but with set-valued tables."""

    n: int
    p: int
    funcs: tuple[SetFunctionTable, ...]

    def __post_init__(self):
        object.__setattr__(self, "funcs", tuple(self.funcs))
        _check_layer_shapes(self.n, self.p, self.funcs, SetFunctionTable)


@dataclass(frozen=True)
class LpceInstance:
    """Two pointer chases plus a non-injectivity escape threshold r.

    The predicate is forced to 1 whenever any table has some output with at
    least r preimages; otherwise it is plain equality of the two chases.
    """

    left: PcInstance
    right: PcInstance
    r: int

    def __post_init__(self):
        if self.left.n != self.right.n or self.left.p != self.right.p:
            raise ValueError("left and right chases must have matching n and p")
        if self.r < 1:
            raise ValueError("escape threshold r must be positive")

    @property
    def n(self) -> int:
        return self.left.n

    @property
    def p(self) -> int:
        return self.left.p

    def tables(self) -> tuple[FunctionTable, ...]:
        return self.left.funcs + self.right.funcs


@dataclass(frozen=True)
class OrLpceInstance:
    """A t-way OR of escape-equality items sharing n, p, and r."""

    t: int
    items: tuple[LpceInstance, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if self.t < 1 or len(self.items) != self.t:
            raise ValueError("need exactly t >= 1 items")
        if len({(item.n, item.p, item.r) for item in self.items}) != 1:
            raise ValueError("all items must share n, p, and r")

    @property
    def n(self) -> int:
        return self.items[0].n

    @property
    def p(self) -> int:
        return self.items[0].p

    @property
    def r(self) -> int:
        return self.items[0].r


@dataclass(frozen=True)
class IntersectScInstance:
    """Two set chases; the predicate asks whether the final sets intersect."""

    left: ScInstance
    right: ScInstance

    def __post_init__(self):
        if self.left.n != self.right.n or self.left.p != self.right.p:
            raise ValueError("left and right chases must have matching n and p")

    @property
    def n(self) -> int:
        return self.left.n

    @property
    def p(self) -> int:
        return self.left.p


# ---------------------------------------------------------------------------
# evaluators


def _start(f: SetFunctionTable) -> np.ndarray:
    """Mask of row 0, the image of the start element 0."""
    mask = np.zeros(f.n, dtype=bool)
    mask[f.values[: f.offsets[1]]] = True
    return mask


def _step(f: SetFunctionTable, mask: np.ndarray) -> np.ndarray:
    """Mask of the union of f's image rows over the elements set in `mask`."""
    out = np.zeros(f.n, dtype=bool)
    out[f.values[mask.repeat(f.offsets[1:] - f.offsets[:-1])]] = True
    return out


def _chase(funcs: Sequence[SetFunctionTable]) -> np.ndarray:
    """Mask of the set chase from {0}: funcs[-1] first, funcs[0] last."""
    mask = _start(funcs[-1])
    for f in reversed(funcs[:-1]):
        mask = _step(f, mask)
    return mask


def vec_apply(f: SetFunctionTable, s: Iterable[int]) -> frozenset[int]:
    """Union of f's image sets over the elements of s."""
    mask = np.zeros(f.n, dtype=bool)
    for x in s:
        if not (isinstance(x, Integral) or isinstance(x, Real) and float(x).is_integer()):
            raise ValueError(f"element {x!r} is not an integer")
        if not 0 <= x < f.n:
            raise ValueError(f"element {int(x)} outside [0, {f.n})")
        mask[int(x)] = True
    return frozenset(np.flatnonzero(_step(f, mask)).tolist())


def eval_pc(inst: PcInstance) -> int:
    """Chase the start element 0 through the tables, innermost first."""
    x = 0
    for f in reversed(inst.funcs):
        x = int(f.image[x])
    return x


def eval_sc(inst: ScInstance) -> frozenset[int]:
    """Chase the start set {0} through the set tables, innermost first."""
    return frozenset(np.flatnonzero(_chase(inst.funcs)).tolist())


def is_r_non_injective(f: FunctionTable, r: int) -> bool:
    """True when some output value has at least r preimages."""
    if r < 1:
        raise ValueError("r must be positive")
    return int(np.bincount(f.image, minlength=f.n).max()) >= r


def eval_equal_pc(left: PcInstance, right: PcInstance) -> int:
    if left.n != right.n or left.p != right.p:
        raise ValueError("chases must have matching n and p")
    return int(eval_pc(left) == eval_pc(right))


def eval_lpce(inst: LpceInstance) -> int:
    """Equality with escape: 1 if any table is r-non-injective, else equality."""
    if any(is_r_non_injective(f, inst.r) for f in inst.tables()):
        return 1
    return eval_equal_pc(inst.left, inst.right)


def eval_intersect_sc(inst: IntersectScInstance) -> int:
    return int((_chase(inst.left.funcs) & _chase(inst.right.funcs)).any())


def eval_or_lpce(inst: OrLpceInstance) -> int:
    return int(any(eval_lpce(item) for item in inst.items))


# ---------------------------------------------------------------------------
# samplers
#
# All samplers draw from the supplied generator in a documented fixed order,
# so identical seeds reproduce identical instances bit for bit.


def sample_uniform_function(n: int, rng: np.random.Generator) -> FunctionTable:
    """A uniformly random function table: each image entry iid uniform."""
    return FunctionTable(n, rng.integers(0, n, size=n))


def sample_uniform_pc(n: int, p: int, rng: np.random.Generator) -> PcInstance:
    """Uniform pointer chase; tables drawn in funcs order (outermost first)."""
    return PcInstance(n, p, tuple(sample_uniform_function(n, rng) for _ in range(p)))


def sample_uniform_lpce(n: int, p: int, r: int, rng: np.random.Generator) -> LpceInstance:
    """Uniform escape-equality item; left chase drawn before right."""
    left = sample_uniform_pc(n, p, rng)
    right = sample_uniform_pc(n, p, rng)
    return LpceInstance(left, right, r)


def sample_uniform_or_lpce(
    n: int, p: int, r: int, t: int, rng: np.random.Generator
) -> OrLpceInstance:
    """Uniform t-way OR instance; items drawn in index order."""
    return OrLpceInstance(t, tuple(sample_uniform_lpce(n, p, r, rng) for _ in range(t)))


def sample_set_function(
    n: int, rng: np.random.Generator, include_prob: float = 0.5
) -> SetFunctionTable:
    """Random set table with iid membership coins of the given bias.

    include_prob=0.5 is the uniform distribution over all set tables.
    """
    if not 0.0 <= include_prob <= 1.0:
        raise ValueError("include_prob must be a probability")
    rows, cols = np.nonzero(rng.random((n, n)) < include_prob)  # row-major: rows ascend
    return SetFunctionTable(n, np.searchsorted(rows, np.arange(n + 1)), cols)


def sample_intersect_sc(
    n: int, p: int, rng: np.random.Generator, include_prob: float = 0.5
) -> IntersectScInstance:
    """Random intersection instance; left tables drawn before right."""
    left = ScInstance(n, p, tuple(sample_set_function(n, rng, include_prob) for _ in range(p)))
    right = ScInstance(n, p, tuple(sample_set_function(n, rng, include_prob) for _ in range(p)))
    return IntersectScInstance(left, right)


def force_equal(inst: LpceInstance) -> LpceInstance:
    """Minimal edit making both chases land on the same element.

    Rewrites one entry of the right chase's outermost table so the right
    chase ends at the left chase's answer.  Everything else is untouched;
    the result may still short-circuit if some table is r-non-injective.
    """
    target = eval_pc(inst.left)
    x = 0
    for f in reversed(inst.right.funcs[1:]):
        x = int(f.image[x])
    outer = inst.right.funcs[0].image.copy()
    outer[x] = target
    new_right = PcInstance(
        inst.right.n, inst.right.p, (FunctionTable(inst.right.n, outer),) + inst.right.funcs[1:]
    )
    return LpceInstance(inst.left, new_right, inst.r)
