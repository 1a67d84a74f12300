"""Records the reduction builds through the trusted entry, `FrozenRecord._trusted`:
each must equal the record its public constructor builds from the same
fields, hold fresh read-only int64 arrays, and come out of the sort-and-scan
overlay exactly as out of the kernel it replaced."""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasebench as cb

# ------------------------------------------------- the replaced code, verbatim


def reference_sample_permutation_family(n, p, t, rng):
    """The sampler that filled zeroed arrays and built the family through
    its public constructor."""
    pi = np.zeros((t, p, n), dtype=np.int64)
    rho = np.zeros((t, p, n), dtype=np.int64)
    for j in range(t):
        shared = rng.permutation(n)
        pi[j, 0] = shared
        rho[j, 0] = shared
        for i in range(1, p):
            pi[j, i] = rng.permutation(n)
        for i in range(1, p):
            rho[j, i] = rng.permutation(n)
    return cb.PermutationFamily(n, pi, rho)


def reference_keep_mask_overlay(scrambled):
    """The overlay kernel that the sort-and-scan one replaced: a keep mask,
    a cumsum over it and a boolean gather per layer, and public
    SetFunctionTable constructors.  (`test_vectorized_checks.py` keeps the
    kernel before this one.)"""
    if not scrambled:
        raise ValueError("need at least one scrambled item")
    n = scrambled[0][0][0].n
    p = len(scrambled[0][0])
    t = len(scrambled)
    row_base = np.arange(n, dtype=np.int64) * n
    keys = np.empty(n * t, dtype=np.int64)

    def overlay_side(side: int) -> cb.ScInstance:
        tables = []
        for i in range(p):
            for j, pair in enumerate(scrambled):
                np.add(pair[side][i].image, row_base, out=keys[j::t])
            keys.sort(kind="stable")
            rows = keys.reshape(n, t)
            keep = np.ones((n, t), dtype=bool)
            keep[:, 1:] = rows[:, 1:] != rows[:, :-1]
            offsets = np.zeros(n + 1, dtype=np.int64)
            offsets[1:] = np.cumsum(keep)[t - 1 :: t]
            values = (rows - row_base[:, None])[keep]
            tables.append(cb.SetFunctionTable(n, offsets, values))
        return cb.ScInstance(n, p, tuple(tables))

    return cb.IntersectScInstance(overlay_side(0), overlay_side(1))


# ------------------------------------------------------------------ checks


def _arrays(record) -> list[np.ndarray]:
    values = (getattr(record, f.name) for f in fields(record))
    return [v for v in values if isinstance(v, np.ndarray)]


def _tables(inst) -> list:
    return [*inst.left.funcs, *inst.right.funcs]


def assert_trusted(records, inputs) -> None:
    """Each record equals its public rebuild and holds int64, C-contiguous,
    read-only arrays that share memory with no input and no other output."""
    outputs = []
    for record in records:
        rebuilt = type(record)(**{f.name: getattr(record, f.name) for f in fields(record)})
        assert rebuilt == record
        for arr in _arrays(record):
            assert arr.dtype == np.int64 and arr.flags.c_contiguous and not arr.flags.writeable
            assert not any(np.shares_memory(arr, other) for other in (*inputs, *outputs))
            outputs.append(arr)


@st.composite
def or_instances(draw) -> cb.OrLpceInstance:
    """t items over [n] with p layers a side, r = n + 1 so that no table trips
    the escape.  Images are drawn freely, or cell by cell copied from item 0
    (duplicates across items), or all equal to item 0's (every overlay row
    collapses to one value), or one constant everywhere."""
    n, p, t = draw(st.integers(1, 64)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = cb.derive_rng(draw(st.integers(0, 2**32 - 1)))
    images = rng.integers(0, n, size=(t, 2, p, n))
    shape = draw(st.sampled_from(["drawn", "copied", "collapsed", "constant"]))
    if shape == "copied":
        images = np.where(rng.random(images.shape) < 0.5, images[0], images)
    elif shape == "collapsed":
        images[:] = images[0]
    elif shape == "constant":
        images[:] = rng.integers(0, n)

    def chase(j, side):
        return cb.PcInstance(n, p, tuple(cb.FunctionTable(n, images[j, side, i]) for i in range(p)))

    items = tuple(cb.LpceInstance(chase(j, 0), chase(j, 1), n + 1) for j in range(t))
    return cb.OrLpceInstance(t, items)


def _images(inst: cb.OrLpceInstance) -> list[np.ndarray]:
    return [f.image for item in inst.items for f in item.tables()]


@settings(max_examples=80, deadline=None)
@given(or_instances(), st.integers(0, 2**32 - 1))
def test_trusted_records_equal_their_public_rebuilds(inst, seed):
    n, p, t = inst.n, inst.p, inst.t
    fam = cb.sample_permutation_family(n, p, t, cb.derive_rng(seed))
    assert fam == reference_sample_permutation_family(n, p, t, cb.derive_rng(seed))
    assert_trusted([fam], [])

    inv = fam.inverse()
    assert inv.inverse() == fam
    assert_trusted([inv], [fam.pi, fam.rho])

    pairs = [cb.scramble(item, j, fam) for j, item in enumerate(inst.items)]
    scrambled_tables = [f for left, right in pairs for f in (*left, *right)]
    assert_trusted(scrambled_tables, [*_images(inst), fam.pi, fam.rho])

    plain = [(item.left.funcs, item.right.funcs) for item in inst.items]
    for scrambled in (pairs, plain):
        merged = cb.overlay(scrambled)
        assert merged == reference_keep_mask_overlay(scrambled)
        assert_trusted(_tables(merged), [f.image for pair in scrambled for side in pair for f in side])

    reduced = cb.reduce_or_lpce(inst, cb.derive_rng(seed), check_feasible=False)
    assert reduced == reference_keep_mask_overlay(pairs)
    assert_trusted(_tables(reduced), _images(inst))


def test_overlay_of_identical_items_keeps_one_value_a_row():
    rng = cb.derive_rng(3)
    item = cb.sample_uniform_lpce(40, 3, 2, rng)
    merged = cb.overlay([(item.left.funcs, item.right.funcs)] * 5)
    for table in _tables(merged):
        assert np.array_equal(table.offsets, np.arange(41))
    assert merged == reference_keep_mask_overlay([(item.left.funcs, item.right.funcs)] * 5)


def _refuse(self):
    raise AssertionError(f"{type(self).__name__} validated on the trusted path")


def test_reduction_never_runs_the_public_validation(monkeypatch):
    rng = cb.derive_rng(11)
    inst = cb.sample_uniform_or_lpce(256, 2, cb.c_star_threshold(256), 3, rng)
    plain = [(item.left.funcs, item.right.funcs) for item in inst.items]
    want = reference_keep_mask_overlay(plain)
    for cls in (cb.FunctionTable, cb.SetFunctionTable, cb.PermutationFamily):
        monkeypatch.setattr(cls, "__post_init__", _refuse)
    reduced = cb.reduce_or_lpce(inst, cb.derive_rng(12), check_feasible=False)
    merged = cb.overlay(plain)
    inverse = cb.sample_permutation_family(256, 2, 3, cb.derive_rng(12)).inverse()
    monkeypatch.undo()
    assert merged == want
    fam = reference_sample_permutation_family(256, 2, 3, cb.derive_rng(12))
    assert inverse == fam.inverse()
    pairs = [cb.scramble(item, j, fam) for j, item in enumerate(inst.items)]
    assert reduced == reference_keep_mask_overlay(pairs)


def test_trusted_entry_checks_dtype_contiguity_shape_and_fields():
    ok = np.arange(4, dtype=np.int64)
    table = cb.FunctionTable._trusted(n=4, image=ok)
    assert table.image is ok and not ok.flags.writeable
    with pytest.raises(ValueError, match="int64"):
        cb.FunctionTable._trusted(n=4, image=np.arange(4, dtype=np.int32))
    with pytest.raises(ValueError, match="C-contiguous"):
        cb.FunctionTable._trusted(n=4, image=np.arange(8, dtype=np.int64)[::2])
    with pytest.raises(ValueError, match="shape"):
        cb.FunctionTable._trusted(n=5, image=np.arange(4, dtype=np.int64))
    with pytest.raises(ValueError, match="end at len"):
        cb.SetFunctionTable._trusted(n=2, offsets=np.array([0, 1, 2]), values=np.array([0]))
    with pytest.raises(ValueError, match="shape"):
        cb.PermutationFamily._trusted(
            n=3, pi=np.zeros((1, 1, 3), np.int64), rho=np.zeros((1, 2, 3), np.int64)
        )
    with pytest.raises(TypeError):
        cb.FunctionTable._trusted(n=4)
