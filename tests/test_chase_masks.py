"""Differential tests: the mask set step (games._start, games._step) against
the sorted-array kernel it replaced and the pure-python chase."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import chasebench as cb
from chasebench.games import _start, _step
from helpers import _vec_apply_sorted, brute_eval_sc, brute_intersect, intersect_instance, set_table


def _mask(n: int, elems) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(elems, dtype=np.int64)] = True
    return mask


@st.composite
def tables(draw, n: int) -> cb.SetFunctionTable:
    """A set table on [n]: all rows empty, all rows full, or rows drawn freely
    (an empty row among them now and then)."""
    shape = draw(st.sampled_from(["empty", "full", "drawn"]))
    if shape == "empty":
        return set_table(n, [[]] * n)
    if shape == "full":
        return set_table(n, [range(n)] * n)
    return set_table(n, draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n)))


@st.composite
def masks(draw, n: int) -> np.ndarray:
    shape = draw(st.sampled_from(["empty", "full", "drawn"]))
    if shape == "empty":
        return np.zeros(n, dtype=bool)
    if shape == "full":
        return np.ones(n, dtype=bool)
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)


@st.composite
def table_and_mask(draw):
    n = draw(st.integers(1, 16))
    return draw(tables(n)), draw(masks(n))


@st.composite
def intersect_instances(draw) -> cb.IntersectScInstance:
    n = draw(st.integers(1, 16))
    depth = draw(st.integers(1, 4))
    sides = [[draw(tables(n)) for _ in range(depth)] for _ in range(2)]
    return intersect_instance(n, *sides)


@settings(max_examples=300, deadline=None)
@given(table_and_mask())
def test_start_and_step_match_the_sorted_kernel(case):
    f, mask = case
    start = _start(f)
    assert start.dtype == bool and start.shape == (f.n,)
    assert np.array_equal(start, _mask(f.n, _vec_apply_sorted(f, np.array([0]))))
    step = _step(f, mask)
    assert step.dtype == bool and step.shape == (f.n,)
    assert np.array_equal(step, _mask(f.n, _vec_apply_sorted(f, np.flatnonzero(mask))))
    assert np.array_equal(_step(f, _mask(f.n, [0])), start)


def _sorted_kernel_chase(inst: cb.ScInstance) -> frozenset[int]:
    cur = np.array([0], dtype=np.int64)
    for f in reversed(inst.funcs):
        cur = _vec_apply_sorted(f, cur)
    return frozenset(cur.tolist())


@settings(max_examples=300, deadline=None)
@given(intersect_instances())
def test_mask_chase_matches_the_sorted_kernel_and_the_brute_chase(inst):
    for side in (inst.left, inst.right):
        got = cb.eval_sc(side)
        assert got == _sorted_kernel_chase(side) == brute_eval_sc(side)
    assert cb.eval_intersect_sc(inst) == brute_intersect(inst)


def test_single_element_ground_set():
    loop, empty = set_table(1, [[0]]), set_table(1, [[]])
    assert cb.eval_sc(cb.ScInstance(1, 3, (loop,) * 3)) == frozenset({0})
    assert cb.eval_sc(cb.ScInstance(1, 2, (loop, empty))) == frozenset()
    assert cb.eval_intersect_sc(intersect_instance(1, [loop], [loop])) == 1
    assert cb.eval_intersect_sc(intersect_instance(1, [loop], [empty])) == 0
