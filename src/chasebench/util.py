"""Small shared helpers: RNG derivation, bit packing, and frozen array records."""
from __future__ import annotations

from dataclasses import fields
from numbers import Integral, Real

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
    """Inverse of pack_uints for a known element count: the blob must be
    exactly the ceil(count * width / 8) bytes that pack_uints writes."""
    if width <= 0:
        raise ValueError("width must be positive")
    size = (count * width + 7) // 8
    if len(blob) != size:
        raise ValueError(f"blob has {len(blob)} bytes, not the {size} of {count} {width}-bit words")
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count * width)
    out = np.zeros(count, dtype=np.uint64)
    for b in range(width):
        out = (out << np.uint64(1)) | bits[b::width].astype(np.uint64)
    return out.astype(np.int64)


def stable_order(keys: np.ndarray, nkeys: int) -> np.ndarray:
    """The positions of keys in [0, nkeys), sorted by key and, among equal
    keys, ascending.  numpy's stable sort is a radix sort on integers of up
    to 16 bits, so the keys are sorted in the narrowest type that holds
    nkeys."""
    return keys.astype(np.min_scalar_type(nkeys)).argsort(kind="stable")


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


def exact_int(value, name: str) -> int:
    """`value` as a Python int, if it is an integer or a real number equal
    to one (2.0, numpy integers); anything else (1.5, NaN, inf, a string)
    raises ValueError naming `name`."""
    if type(value) is int:  # the usual case, spared the slower ABC checks below
        return value
    if isinstance(value, Integral) or isinstance(value, Real) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} {value!r} is not an integer")


def frozen_copy(values, dtype) -> np.ndarray:
    """A read-only, C-contiguous copy of `values` as `dtype`; never a view.

    Into an integer dtype, a value the cast would change (1.5, NaN, inf, a
    float beyond the dtype) raises ValueError; numpy's OverflowError for a
    Python int beyond the dtype passes through.
    """
    src = np.asarray(values)
    if src.dtype == dtype or np.dtype(dtype).kind != "i":
        arr = np.array(src, dtype=dtype, order="C")
    else:
        if src.dtype.kind in "fc" and not np.isfinite(src).all():
            raise ValueError(f"values change under the cast to {np.dtype(dtype)}")
        # cast `values`: inference may turn a Python int beyond int64 into a float
        try:
            with np.errstate(invalid="ignore"):
                arr = np.array(values, dtype=dtype, order="C")
        except OverflowError:
            # inference gives a float for [2**63, 1] too, so only the
            # elements tell a Python int beyond the dtype from a float
            bounds = np.iinfo(dtype)
            ints = [x for x in np.array(values, dtype=object).flat if type(x) is int]
            if src.dtype.kind in "fc" and all(bounds.min <= x <= bounds.max for x in ints):
                raise ValueError(f"values change under the cast to {np.dtype(dtype)}") from None
            raise
        if not (arr == src).all():
            raise ValueError(f"values change under the cast to {np.dtype(dtype)}")
    arr.flags.writeable = False
    return arr


# _LEAST_FIRST_DIGIT[g] is the least first byte of a token whose separator
# comes g bytes after the previous one, so that it has g - 1 digits: "0" for
# one digit, "1" for more, as a longer token must not lead with a zero.  An
# empty token (g = 1) and one of over 18 digits (g >= 20) get 256, which no
# byte reaches; 10**18 - 1 < 2**63, so 18 digits always fit int64.
_LEAST_FIRST_DIGIT = np.array(
    [256, 256, ord("0")] + [ord("1")] * 17 + [256], dtype=np.int16
)


def scan_canonical_rows(body: str, nlines: int, labelled: bool = False, width: int | None = None):
    """Tokenize `nlines` canonical rows of unsigned decimals in bulk.

    A canonical row is tokens joined by single spaces and ended by '\\n';
    a token is 1 to 18 ASCII digits with no leading zero.  When labelled,
    the first token of each row is followed by ':' (`x: y1 y2`, or `x:`
    alone).  Given a width, every row must hold exactly that many tokens.
    Returns (values, offsets) as int64 arrays, where row i holds
    values[offsets[i]:offsets[i + 1]], or None if the body holds any other
    text, including a different number of rows.  Nothing is allocated from
    nlines before the rows are counted.
    """
    try:
        # a leading newline ends a virtual row -1, so every token and row
        # follows a separator
        raw = b"\n" + body.encode("ascii")
    except UnicodeEncodeError:
        return None
    seps = raw.translate(None, b"0123456789")  # the separators in order
    if labelled:
        # every row's first separator is its only ':', and a space or a newline follows it
        if not (
            seps.count(b"\n:") == nlines == seps.count(b":")
            and raw.count(b": ") + raw.count(b":\n") == nlines
        ):
            return None
        # dropping the ':' leaves plain rows; an empty label is now an empty token
        raw, seps = raw.replace(b":", b""), seps.replace(b":", b"")
    if not raw.endswith(b"\n") or seps.count(b"\n") != nlines + 1 or seps.translate(None, b" \n"):
        return None
    # the rows are counted, so this row pattern is no longer than seps
    if width is not None and seps[1:] != (b" " * (width - 1) + b"\n") * nlines:
        return None
    byte = np.frombuffer(raw, np.uint8)
    at = (byte < ord("0")).nonzero()[0]  # the separators, each ending a token but the first
    least = _LEAST_FIRST_DIGIT.take(at[1:] - at[:-1], mode="clip")
    if np.count_nonzero(byte[at[:-1] + 1] < least):
        return None
    values = np.fromstring(raw, dtype=np.int64, count=least.size, sep=" ")
    if width is not None:  # the row pattern already fixed where rows end
        return values, np.arange(0, values.size + 1, width)
    # the k-th newline among the separators follows the first k rows' tokens
    return values, (np.frombuffer(seps, np.uint8) == ord("\n")).nonzero()[0]


def _digit_words() -> np.ndarray:
    """Two tables of 10**4 uint32 words, entry d holding the four ASCII
    digits of d: the first with d's leading zeros as NUL bytes (0 keeps its
    last digit), the second zero-padded.  Built in place, without
    temporaries larger than 200 bytes."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    words = np.empty((2, 100, 100, 2), np.uint16)  # [table, d // 100, d % 100, half]
    words[..., 0] = pairs[:, None]
    words[..., 1] = pairs
    blanked = words[0].view(np.uint8).reshape(10**4, 4)
    for place, below in enumerate((1000, 100, 10)):
        blanked[:below, place] = 0
    return words.view(np.uint32).ravel()


# a value's top 4-digit chunk c is written as entry c, with its leading zeros
# blanked; every lower chunk c as entry 10**4 + c, zero-padded
_DIGIT_WORDS = _digit_words()


def format_canonical_rows(values, offsets, labelled: bool = False) -> str:
    """The canonical rows that scan_canonical_rows reads back as (values, offsets).

    Row i holds values[offsets[i]:offsets[i + 1]] written as decimals joined
    by single spaces and ended by '\\n'; when labelled, its first value is
    followed by ':' (`x: y1 y2`, or `x:` alone).  Every row needs a value,
    and every value must be non-negative; values up to 2**63 - 1 are written
    as "%d" writes them, though the scanner refuses more than 18 digits.

    Each value gets one cell of uint32 words: its 4-digit chunks, looked up
    in _DIGIT_WORDS, then a word with its separator bytes.  Unused bytes
    stay NUL and one translate deletes them.
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets[0] != 0 or offsets[-1] != values.size or np.count_nonzero(offsets[1:] <= offsets[:-1]):
        raise ValueError("offsets must rise strictly from 0 to len(values): every row needs a value")
    if values.size == 0:  # no rows
        return ""
    # a negative value wraps past 2**63 as uint64, so one max checks both ends
    top = int(values.view(np.uint64).max())
    if top > 2**63 - 1:
        raise ValueError("values must be non-negative")
    chunks = (len(str(top)) + 3) // 4
    cells = np.zeros((values.size, chunks + 1), dtype=np.uint32)
    if chunks == 1:  # every value is its own top chunk
        cells[:, 0] = _DIGIT_WORDS.take(values)
    else:
        for i in range(chunks):  # chunk i counts from the lowest
            rest = values // 10 ** (4 * i)
            word = _DIGIT_WORDS.take(rest % 10**4 + (rest >= 10**4) * 10**4)
            if i:
                word[rest == 0] = 0  # the whole chunk lies above the value
            cells[:, chunks - 1 - i] = word
    # the first two bytes of the last word; a label's are ':' and its row's next separator
    sep, sep_after_label = cells.view(np.uint8)[:, 4 * chunks:4 * chunks + 2].T
    sep[:] = ord(" ")
    sep[offsets[1:] - 1] = ord("\n")
    if labelled:
        sep_after_label[offsets[:-1]] = sep[offsets[:-1]]
        sep[offsets[:-1]] = ord(":")
    return cells.tobytes().translate(None, b"\0").decode("ascii")


class FrozenRecord:
    """Base of the `@dataclass(frozen=True, eq=False)` records that hold
    read-only arrays: equal when of the same class with every field equal
    (arrays by `np.array_equal`), and unhashable like their arrays.

    A record has two entries.  The public constructor stores a
    `frozen_copy` of each array it is given and checks every value.
    `cls._trusted(**attrs)` is for code inside the package that has just
    built the arrays itself: it stores them as they are, marked read-only,
    after checking only dtype, contiguity and `_check_shapes`.  Its caller
    must pass fresh int64 arrays that nothing else holds and whose values
    are valid by how they were made.
    """

    __hash__ = None

    @classmethod
    def _trusted(cls, **attrs):
        if attrs.keys() != cls.__dataclass_fields__.keys():
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls.__dataclass_fields__)}")
        record = object.__new__(cls)
        for name, value in attrs.items():
            if isinstance(value, np.ndarray):
                if value.dtype != np.int64 or not value.flags.c_contiguous:
                    raise ValueError(f"{name} must be a C-contiguous int64 array")
                value.flags.writeable = False
            object.__setattr__(record, name, value)
        record._check_shapes()
        return record

    def _check_shapes(self) -> None:
        """Raise ValueError unless the arrays have the shapes the other fields
        call for; O(1), and run by both entries."""
        raise NotImplementedError(f"{type(self).__name__} has no trusted entry")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True
