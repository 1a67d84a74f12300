"""Small shared helpers: RNG derivation, bit packing, and frozen array records."""
from __future__ import annotations

from dataclasses import fields

import numpy as np


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Return a generator keyed by a master seed plus an index path.

    Identical (master_seed, path) pairs always yield the same stream, and
    distinct paths yield independent streams, so per-trial generators can be
    handed out without coordinating callers.
    """
    return np.random.default_rng([int(master_seed), *[int(x) for x in path]])


def pack_uints(values, width: int) -> bytes:
    """Pack non-negative integers into a byte string at `width` bits each."""
    if width <= 0:
        raise ValueError("width must be positive")
    vals = np.asarray(values, dtype=np.uint64)
    if vals.size == 0:
        return b""
    bits = np.zeros(vals.size * width, dtype=np.uint8)
    for b in range(width):
        # most significant bit of each value first
        bits[b::width] = (vals >> np.uint64(width - 1 - b)) & np.uint64(1)
    return np.packbits(bits).tobytes()


def unpack_uints(blob: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of pack_uints for a known element count."""
    if width <= 0:
        raise ValueError("width must be positive")
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count * width)
    out = np.zeros(count, dtype=np.uint64)
    for b in range(width):
        out = (out << np.uint64(1)) | bits[b::width].astype(np.uint64)
    return out.astype(np.int64)


def bitmap_to_str(mask: np.ndarray) -> str:
    """Render a 1-D boolean array as a left-to-right 0/1 string.

    Each bool is one byte (0 or 1); adding ord("0") turns the bytes into the
    ASCII digits, so the string is built at C speed.  Non-bool input counts
    an entry as 1 when it is truthy.
    """
    bits = np.asarray(mask, dtype=bool)
    return (bits.view(np.uint8) + ord("0")).tobytes().decode("ascii")


def str_to_bitmap(bits: str) -> np.ndarray:
    return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")


def frozen_copy(values, dtype) -> np.ndarray:
    """A read-only, C-contiguous copy of `values` as `dtype`; never a view.

    Into an integer dtype, a value the cast would change (1.5, NaN, inf)
    raises ValueError; numpy's OverflowError for a Python number beyond the
    dtype passes through.
    """
    src = np.asarray(values)
    if src.dtype == dtype or np.dtype(dtype).kind != "i":
        arr = np.array(src, dtype=dtype, order="C")
    else:
        if src.dtype.kind in "fc" and not np.isfinite(src).all():
            raise ValueError(f"values change under the cast to {np.dtype(dtype)}")
        # cast `values`: inference may turn a Python int beyond int64 into a float
        with np.errstate(invalid="ignore"):
            arr = np.array(values, dtype=dtype, order="C")
        if not (arr == src).all():
            raise ValueError(f"values change under the cast to {np.dtype(dtype)}")
    arr.flags.writeable = False
    return arr


class FrozenRecord:
    """Base of the `@dataclass(frozen=True, eq=False)` records that store
    arrays via `frozen_copy`: equal when of the same class with every field
    equal (arrays by `np.array_equal`), and unhashable like their arrays."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True
