"""Differential tests: the array-level code against the versions it replaced.

Each reference below is the earlier version (a per-element loop, or for the
scramble and overlay kernels the earlier array code), kept verbatim in
behaviour, and each test asserts the current code accepts and rejects (or
renders, or builds) exactly what the reference does, with the same error text.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chasebench import games, info
from chasebench.errors import ProtocolError
from chasebench.games import FunctionTable, IntersectScInstance, ScInstance, SetFunctionTable
from chasebench.protocols import _validate_message
from chasebench.reduction import (
    PermutationFamily,
    ShortCircuit,
    _invert,
    _scramble_side,
    overlay,
    reduce_or_lpce,
    sample_permutation_family,
)
from chasebench.util import bitmap_to_str, derive_rng, format_canonical_rows, scan_canonical_rows
from helpers import LINE_BREAKS

# ------------------------------------------------------------------ references


def reference_set_table_error(n, offsets, values):
    """Old SetFunctionTable validation; returns the error text or None."""
    if n < 1:
        return "ground set must be nonempty"
    offsets = np.asarray(offsets, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if offsets.shape != (n + 1,) or offsets[0] != 0:
        return "offsets must have shape (n+1,) and start at 0"
    if np.any(np.diff(offsets) < 0) or offsets[-1] != values.size:
        return "offsets must be nondecreasing and end at len(values)"
    if values.size and (values.min() < 0 or values.max() >= n):
        return "image values must lie in [0, n)"
    if values.size > 1:
        non_incr = np.nonzero(np.diff(values) <= 0)[0] + 1
        starts = set(offsets[1:-1].tolist())
        if any(int(i) not in starts for i in non_incr):
            return "each image row must be strictly ascending"
    return None


def reference_bitmap_to_str(mask):
    return "".join("1" if b else "0" for b in mask)


def reference_validate_message(bits):
    if not isinstance(bits, str) or not bits:
        raise ProtocolError("a scheduled turn must emit a nonempty bit string")
    if any(c not in "01" for c in bits):
        raise ProtocolError(f"message must contain only 0/1, got {bits!r}")


def reference_scan_rows(body, nlines, labelled, width):
    """Rows parsed with int() and accepted only if they render back to the
    body: the round-trip rule the byte scanner replaced."""
    lines = body.split("\n")
    if lines.pop() != "" or len(lines) != nlines:
        return None
    values, offsets = [], [0]
    for line in lines:
        try:
            row = [int(token) for token in (line.replace(":", "", 1) if labelled else line).split(" ")]
        except ValueError:
            return None
        rendered = " ".join(map(str, row))
        if labelled:
            rendered = rendered.replace(" ", ": ", 1) if len(row) > 1 else rendered + ":"
        if rendered != line or min(row) < 0 or max(row) >= 10**18:
            return None
        if width is not None and len(row) != width:
            return None
        values += row
        offsets.append(len(values))
    return np.array(values, dtype=np.int64), np.array(offsets, dtype=np.int64)


def current_set_table_error(n, offsets, values):
    try:
        SetFunctionTable(n, offsets, values)
    except ValueError as exc:
        return str(exc)
    return None


# ------------------------------------------------------------------ row check


@st.composite
def packed_rows(draw):
    """(n, offsets, values) from per-row lists; rows may be empty or unsorted."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, n - 1), max_size=4)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [sorted(set(r)) for r in rows]
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(r) for r in rows])
    values = np.array([v for r in rows for v in r], dtype=np.int64)
    return n, offsets, values


@settings(max_examples=200, deadline=None)
@given(packed_rows())
@example((1, np.array([0, 1]), np.array([0])))  # n = 1
@example((1, np.array([0, 2]), np.array([0, 0])))  # n = 1, repeat inside the row
@example((3, np.array([0, 0, 2, 2]), np.array([0, 2])))  # empty first and last rows
@example((3, np.array([0, 0, 0, 0]), np.array([], dtype=np.int64)))  # all rows empty
@example((3, np.array([0, 2, 3, 3]), np.array([0, 2, 2])))  # equal across a boundary
@example((3, np.array([0, 1, 3, 3]), np.array([2, 1, 1])))  # equal inside a row
@example((2, np.array([0, 2, 2]), np.array([1, 0])))  # descent, last row empty
def test_row_check_rejects_what_the_loop_rejected(case):
    n, offsets, values = case
    assert current_set_table_error(n, offsets, values) == reference_set_table_error(
        n, offsets, values
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(st.integers(-1, 6), max_size=7),
    st.lists(st.integers(-1, 6), max_size=6),
)
def test_row_check_matches_on_arbitrary_offsets(n, offsets, values):
    # unstructured offsets exercise the earlier shape and range checks too
    offsets = np.array(offsets, dtype=np.int64)
    values = np.array(values, dtype=np.int64)
    assert current_set_table_error(n, offsets, values) == reference_set_table_error(
        n, offsets, values
    )


# ------------------------------------------------------- canonical row scanner


@st.composite
def row_bodies(draw):
    """(body, nlines, labelled, width): canonical rows, now and then with a
    few characters inserted, replaced or deleted, or the wrong line count."""
    labelled = draw(st.booleans())
    token = st.one_of(st.integers(0, 99), st.sampled_from([10**17, 10**18 - 1, 10**18, 2**63]))
    rows = draw(st.lists(st.lists(token, min_size=1, max_size=4), max_size=5))
    lines = [" ".join(map(str, row)) for row in rows]
    if labelled:
        lines = [line.replace(" ", ": ", 1) if " " in line else line + ":" for line in lines]
    chars = list("".join(line + "\n" for line in lines))
    noise = st.sampled_from(list("0123456789 :\n+-_\t٣") + list(LINE_BREAKS))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(chars)))
        edit = draw(st.integers(0, 2))
        if edit == 0:
            chars.insert(at, draw(noise))
        elif at < len(chars):
            if edit == 1:
                chars[at] = draw(noise)
            else:
                del chars[at]
    nlines = len(rows) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    width = draw(st.sampled_from([None, None, 1, 2, 3]))
    return "".join(chars), nlines, labelled, width


@settings(max_examples=600, deadline=None)
@given(row_bodies())
@example(("", 0, False, None))  # no rows
@example(("", 0, True, 2))
@example(("0\n", 0, False, None))  # more rows than asked for
@example(("1 2\n", 2, False, None))  # fewer
@example(("1 2", 1, False, None))  # no final newline
@example(("01 2\n", 1, False, None))  # leading zero
@example(("0 0\n", 1, False, 2))  # zeros alone are canonical
@example(("999999999999999999 1\n", 1, False, 2))  # 18 digits
@example(("1000000000000000000 1\n", 1, False, 2))  # 19 digits
@example(("1  2\n", 1, False, None))  # empty token
@example(("1 2 \n", 1, False, None))
@example(("\n", 1, False, None))  # empty row
@example(("0:\n1: 0 1\n", 2, True, None))
@example(("0: 1\n1:\n", 2, True, 2))  # width refused
@example((":\n", 1, True, None))  # empty label
@example(("0:1\n", 1, True, None))  # no space after the label
@example(("0 1:\n", 1, True, None))  # ':' after the second token
@example(("0::\n", 1, True, None))
@example(("0: 1\x0c\n", 1, True, None))
@example(("0 1\n", 1, True, None))  # no label
@example(("0: 1\n", 1, False, None))  # a label where none belongs
def test_scan_canonical_rows_matches_the_round_trip_rule(case):
    want = reference_scan_rows(*case)
    got = scan_canonical_rows(*case)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[0].dtype == got[1].dtype == np.int64
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


# -------------------------------------------------------- canonical row writer


def reference_format_rows(rows, labelled):
    """Rows written one by one with str(), the way the per-line serializers
    wrote them: `x: y1 y2` or `x:` when labelled, `y1 y2` when not."""
    lines = []
    for row in rows:
        line = " ".join(map(str, row))
        if labelled:
            line = line.replace(" ", ": ", 1) if len(row) > 1 else line + ":"
        lines.append(line + "\n")
    return "".join(lines)


def _flatten(rows):
    values = np.array([v for row in rows for v in row], dtype=np.int64)
    return values, np.cumsum([0] + [len(row) for row in rows])


# the value at each chunk boundary of the writer and the scanner's largest
_EDGE_VALUES = [0, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 10**4 + 1, 10**8 - 1, 10**8, 10**18 - 1]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.lists(st.one_of(st.integers(0, 10**18 - 1), st.sampled_from(_EDGE_VALUES)), min_size=1, max_size=5),
        max_size=6,
    ),
    st.booleans(),
)
@example([], False)  # no rows
@example([[0]], True)  # a label alone: an empty row `0:`
@example([_EDGE_VALUES], False)
@example([[v] for v in _EDGE_VALUES], True)
def test_scan_canonical_rows_inverts_format_canonical_rows(rows, labelled):
    values, offsets = _flatten(rows)
    text = format_canonical_rows(values, offsets, labelled)
    assert text == reference_format_rows(rows, labelled)
    got = scan_canonical_rows(text, len(offsets) - 1, labelled)
    assert got is not None
    assert got[0].tolist() == values.tolist() and got[1].tolist() == offsets.tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8))
@example([10**d - 1 for d in range(1, 19)] + [10**d for d in range(19)] + [2**63 - 1])
def test_format_canonical_rows_writes_percent_d_up_to_int64_max(values):
    # values over 18 digits are beyond the scanner; such text goes to the line parsers
    text = format_canonical_rows(values, [0, len(values)])
    assert text == " ".join("%d" % v for v in values) + "\n"
    assert format_canonical_rows(values, range(len(values) + 1), labelled=True) == "".join(
        "%d:\n" % v for v in values
    )


def test_format_canonical_rows_refuses_negative_values_and_empty_rows():
    with pytest.raises(ValueError, match="non-negative"):
        format_canonical_rows([3, -1], [0, 2])
    with pytest.raises(ValueError, match="non-negative"):
        format_canonical_rows([-(2**63)], [0, 1])
    for offsets in ([0], [0, 0], [0, 1, 1], [0, 2, 1], [1, 1], [0, 2]):
        with pytest.raises(ValueError, match="every row needs a value"):
            format_canonical_rows([1], offsets)
    assert format_canonical_rows([], [0]) == ""


# -------------------------------------------------------------- bitmap_to_str


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.booleans(), max_size=300),
    st.integers(1, 4),
    st.integers(0, 3),
    st.booleans(),
)
@example([], 1, 0, False)  # length 0
def test_bitmap_to_str_matches_join(bits, step, start, reverse):
    base = np.array(bits, dtype=bool)
    view = base[start::step]
    if reverse:
        view = view[::-1]
    # strided and reversed views are not contiguous
    assert bitmap_to_str(view) == reference_bitmap_to_str(view)
    assert bitmap_to_str(base) == reference_bitmap_to_str(base)


def test_bitmap_to_str_accepts_lists_and_int_masks():
    assert bitmap_to_str([True, False, True]) == "101"
    ints = np.array([0, 3, -1, 0, 1])
    assert bitmap_to_str(ints) == reference_bitmap_to_str(ints) == "01101"


# ---------------------------------------------------------- _validate_message


def outcome(check, bits):
    try:
        check(bits)
    except ProtocolError as exc:
        return str(exc)
    return None


MESSAGE_EXAMPLES = [
    "", "0", "1", "01", "0110", "012", " 01", "01\n", "１", "0１", "\x00", "0\x00",
    "٠", "o1", "10" * 50,
]


@pytest.mark.parametrize("bits", MESSAGE_EXAMPLES)
def test_validate_message_examples(bits):
    assert outcome(_validate_message, bits) == outcome(reference_validate_message, bits)


@pytest.mark.parametrize("bits", [None, b"01", ["0", "1"], 1, 0.0, bytearray(b"1")])
def test_validate_message_rejects_non_strings_alike(bits):
    got = outcome(_validate_message, bits)
    assert got is not None
    assert got == outcome(reference_validate_message, bits)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(alphabet="01", max_size=40), st.text(max_size=40)))
def test_validate_message_matches_loop(bits):
    assert outcome(_validate_message, bits) == outcome(reference_validate_message, bits)


# --------------------------------------------------------- permutation family


def reference_permutation_error(n, pi, rho):
    """Old PermutationFamily row check, sorting each row; error text or None."""
    ref = np.arange(n)
    for fam in (pi, rho):
        flat = fam.reshape(-1, n)
        if not all(np.array_equal(np.sort(row), ref) for row in flat):
            return "every row must be a permutation of [0, n)"
    if not np.array_equal(pi[:, 0, :], rho[:, 0, :]):
        return "outermost layers must be shared between pi and rho"
    return None


@st.composite
def permutation_families(draw):
    """(n, pi, rho) of shape (t, p, n); rows are permutations, possibly broken."""
    n = draw(st.integers(1, 6))
    t, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pi = np.array([[rng.permutation(n) for _ in range(p)] for _ in range(t)])
    rho = np.array([[rng.permutation(n) for _ in range(p)] for _ in range(t)])
    rho[:, 0] = pi[:, 0]
    for _ in range(draw(st.integers(0, 2))):
        # overwrite one entry, possibly with a duplicate or an out-of-range value
        fam = pi if draw(st.booleans()) else rho
        j, i = draw(st.integers(0, t - 1)), draw(st.integers(0, p - 1))
        fam[j, i, draw(st.integers(0, n - 1))] = draw(st.integers(-1, n))
    return n, pi, rho


@settings(max_examples=200, deadline=None)
@given(permutation_families())
def test_permutation_check_rejects_what_sorting_rejected(case):
    n, pi, rho = case
    try:
        PermutationFamily(n, pi, rho)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == reference_permutation_error(n, pi, rho)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_permutation_inverse_equals_argsort(n, p, t, seed):
    fam = sample_permutation_family(n, p, t, np.random.default_rng(seed))
    inv = fam.inverse()
    assert np.array_equal(inv.pi, np.argsort(fam.pi, axis=2))
    assert np.array_equal(inv.rho, np.argsort(fam.rho, axis=2))


# ------------------------------------------------------- scramble and overlay


def reference_scramble_side(funcs, perms):
    """Old _scramble_side: gather through each inner layer's inverse permutation."""
    p = len(funcs)
    n = funcs[0].n
    out = []
    for i in range(p):
        image = funcs[i].image
        if i + 1 < p:
            image = image[_invert(perms[i + 1])]
        out.append(FunctionTable(n, perms[i][image]))
    return tuple(out)


def reference_overlay(scrambled):
    """Old overlay: sort the stacked (t, n) images along axis 0 per layer."""
    n = scrambled[0][0][0].n
    p = len(scrambled[0][0])

    def overlay_side(side):
        tables = []
        for i in range(p):
            stacked = np.sort(np.stack([pair[side][i].image for pair in scrambled]), axis=0)
            keep = np.ones_like(stacked, dtype=bool)
            keep[1:] = stacked[1:] != stacked[:-1]
            offsets = np.zeros(n + 1, dtype=np.int64)
            offsets[1:] = np.cumsum(keep.sum(axis=0))
            values = stacked.T[keep.T]
            tables.append(SetFunctionTable(n, offsets, values))
        return ScInstance(n, p, tuple(tables))

    return IntersectScInstance(overlay_side(0), overlay_side(1))


def reference_reduce(inst, rng):
    """reduce_or_lpce with the old scramble and overlay, for an instance that
    does not short-circuit; same RNG draws."""
    perms = sample_permutation_family(inst.n, inst.p, inst.t, rng)
    return reference_overlay(
        [
            (
                reference_scramble_side(item.left.funcs, perms.pi[j]),
                reference_scramble_side(item.right.funcs, perms.rho[j]),
            )
            for j, item in enumerate(inst.items)
        ]
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(1, 1, 1, 0)  # one element, one layer, one item
@example(2, 3, 6, 0)  # n = 2 makes most of the six images collide
def test_scramble_and_overlay_match_references(n, p, t, seed):
    # small n makes the t images collide, so the dedup inside each row runs
    rng = np.random.default_rng(seed)
    perms = sample_permutation_family(n, p, t, rng)
    scrambled = []
    for j in range(t):
        pair = []
        for fam in (perms.pi, perms.rho):
            funcs = tuple(FunctionTable(n, rng.integers(0, n, n)) for _ in range(p))
            got = _scramble_side(funcs, fam[j])
            assert got == reference_scramble_side(funcs, fam[j])
            pair.append(got)
        scrambled.append(tuple(pair))
    assert overlay(scrambled) == reference_overlay(scrambled)


@pytest.mark.parametrize("seed", range(5))
def test_reduce_matches_reference_pipeline_at_n4096(seed):
    n, p, t = 4096, 2, 2
    inst = games.sample_uniform_or_lpce(n, p, info.c_star_threshold(n), t, derive_rng(seed))
    got = reduce_or_lpce(inst, derive_rng(seed, 1))
    assert not isinstance(got, ShortCircuit)
    assert got == reference_reduce(inst, derive_rng(seed, 1))
