"""Evaluators checked against hand-worked chases and a python reference."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasebench as cb
from helpers import brute_eval_sc, identity_set_table, set_table


def test_eval_pc_hand_case():
    # chase: 0 -(f2)-> 1 -(f1)-> 3 -(f0)-> 0
    f0 = cb.FunctionTable(4, np.array([3, 2, 1, 0]))
    f1 = cb.FunctionTable(4, np.array([2, 3, 0, 1]))
    f2 = cb.FunctionTable(4, np.array([1, 0, 3, 2]))
    assert cb.eval_pc(cb.PcInstance(4, 3, (f0, f1, f2))) == 0


def test_eval_pc_identity_layers():
    ident = cb.FunctionTable.identity(6)
    assert cb.eval_pc(cb.PcInstance(6, 4, (ident,) * 4)) == 0


def test_eval_pc_single_layer():
    f = cb.FunctionTable(5, np.array([4, 0, 1, 2, 3]))
    assert cb.eval_pc(cb.PcInstance(5, 1, (f,))) == 4


def test_eval_sc_hand_case():
    # {0} -(g1)-> {0,2} -(g0)-> {1} u {2} = {1,2}
    g0 = set_table(3, [[1], [0, 1, 2], [2]])
    g1 = set_table(3, [[0, 2], [], [1]])
    assert cb.eval_sc(cb.ScInstance(3, 2, (g0, g1))) == frozenset({1, 2})


def test_eval_sc_empty_propagates():
    g = set_table(2, [[], [0, 1]])
    assert cb.eval_sc(cb.ScInstance(2, 2, (g, g))) == frozenset()


def test_vec_apply_unions_rows():
    f = set_table(4, [[1, 2], [3], [], [0, 3]])
    assert cb.vec_apply(f, [0, 2]) == frozenset({1, 2})
    assert cb.vec_apply(f, [1, 3]) == frozenset({0, 3})
    assert cb.vec_apply(f, []) == frozenset()


def test_vec_apply_rejects_out_of_range():
    f = identity_set_table(3)
    with pytest.raises(ValueError):
        cb.vec_apply(f, [3])
    with pytest.raises(ValueError):
        cb.vec_apply(f, [-1])
    with pytest.raises(ValueError, match=rf"element {2**70} outside \[0, 3\)"):
        cb.vec_apply(f, [2**70])
    with pytest.raises(ValueError, match=r"element 3 outside \[0, 3\)"):
        cb.vec_apply(f, [np.int64(3)])


@pytest.mark.parametrize(
    "x",
    [1.5, -0.5, float("nan"), float("inf"), float("-inf"), np.float64(2.5), 1 + 0j, None, "1"],
)
def test_vec_apply_rejects_non_integer_elements(x):
    f = identity_set_table(3)
    with pytest.raises(ValueError, match="is not an integer"):
        cb.vec_apply(f, [0, x])


def test_vec_apply_rejects_a_huge_integral_float_as_out_of_range():
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        cb.vec_apply(identity_set_table(3), [1e300])


def test_vec_apply_accepts_integer_values_of_any_type():
    f = set_table(4, [[1, 2], [3], [], [0, 3]])
    assert cb.vec_apply(f, [1.0, True, np.int64(3), np.uint8(0)]) == frozenset({0, 1, 2, 3})
    assert cb.vec_apply(f, np.array([3, 0], dtype=np.int32)) == frozenset({0, 1, 2, 3})
    assert cb.vec_apply(f, [np.float32(2.0), False]) == frozenset({1, 2})


def test_is_r_non_injective():
    const = cb.FunctionTable.constant(5, 2)
    assert cb.is_r_non_injective(const, 5)
    assert not cb.is_r_non_injective(const, 6)
    ident = cb.FunctionTable.identity(5)
    assert cb.is_r_non_injective(ident, 1)
    assert not cb.is_r_non_injective(ident, 2)
    two_to_one = cb.FunctionTable(4, np.array([0, 0, 1, 1]))
    assert cb.is_r_non_injective(two_to_one, 2)
    assert not cb.is_r_non_injective(two_to_one, 3)


def test_eval_equal_pc():
    left = cb.PcInstance(3, 1, (cb.FunctionTable(3, np.array([2, 0, 1])),))
    right = cb.PcInstance(3, 1, (cb.FunctionTable(3, np.array([2, 1, 0])),))
    assert cb.eval_equal_pc(left, left) == 1
    assert cb.eval_equal_pc(left, right) == 1  # both chase to 2
    other = cb.PcInstance(3, 1, (cb.FunctionTable(3, np.array([1, 0, 2])),))
    assert cb.eval_equal_pc(left, other) == 0


def test_eval_lpce_equality_and_escape():
    left = cb.PcInstance(4, 1, (cb.FunctionTable(4, np.array([1, 0, 3, 2])),))
    right = cb.PcInstance(4, 1, (cb.FunctionTable(4, np.array([2, 3, 0, 1])),))
    # permutations never trip the escape for r >= 2; chases 1 vs 2 differ
    assert cb.eval_lpce(cb.LpceInstance(left, right, 2)) == 0
    # r=1 makes every table non-injective, forcing the answer to 1
    assert cb.eval_lpce(cb.LpceInstance(left, right, 1)) == 1
    assert cb.eval_lpce(cb.LpceInstance(left, left, 2)) == 1


def test_eval_lpce_escape_from_heavy_table():
    heavy = cb.PcInstance(4, 1, (cb.FunctionTable.constant(4, 3),))
    right = cb.PcInstance(4, 1, (cb.FunctionTable.identity(4),))
    # chases are 3 vs 0, but the constant table has a 4-heavy output
    assert cb.eval_lpce(cb.LpceInstance(heavy, right, 4)) == 1
    assert cb.eval_lpce(cb.LpceInstance(heavy, right, 5)) == 0


def test_eval_or_lpce_is_disjunction():
    rng = cb.derive_rng(100)
    inst = cb.sample_uniform_or_lpce(16, 2, 7, 3, rng)
    assert cb.eval_or_lpce(inst) == max(cb.eval_lpce(it) for it in inst.items)


def test_force_equal_sets_answer_one():
    rng = cb.derive_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        p = int(rng.integers(1, 4))
        item = cb.sample_uniform_lpce(n, p, n + 1, rng)  # escape unreachable
        forced = cb.force_equal(item)
        assert cb.eval_lpce(forced) == 1
        assert cb.eval_pc(forced.left) == cb.eval_pc(forced.right)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_singleton_set_chase_matches_pointer_chase(seed):
    rng = cb.derive_rng(seed)
    n = int(rng.integers(1, 9))
    p = int(rng.integers(1, 4))
    pc = cb.sample_uniform_pc(n, p, rng)
    lifted = tuple(set_table(n, [[int(f.image[x])] for x in range(n)]) for f in pc.funcs)
    sc = cb.ScInstance(n, p, lifted)
    assert cb.eval_sc(sc) == frozenset({cb.eval_pc(pc)})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_eval_sc_matches_python_reference(seed):
    rng = cb.derive_rng(seed)
    n = int(rng.integers(1, 12))
    p = int(rng.integers(1, 5))
    inst = cb.sample_intersect_sc(n, p, rng)
    assert cb.eval_sc(inst.left) == brute_eval_sc(inst.left)
    assert cb.eval_sc(inst.right) == brute_eval_sc(inst.right)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_vec_apply_monotone_in_the_argument(seed):
    rng = cb.derive_rng(seed)
    n = int(rng.integers(2, 10))
    f = cb.sample_set_function(n, rng)
    universe = list(range(n))
    small = [x for x in universe if rng.random() < 0.4]
    big = sorted(set(small) | {x for x in universe if rng.random() < 0.4})
    assert cb.vec_apply(f, small) <= cb.vec_apply(f, big)


def test_function_table_validation():
    with pytest.raises(ValueError):
        cb.FunctionTable(3, np.array([0, 1]))  # wrong shape
    with pytest.raises(ValueError):
        cb.FunctionTable(3, np.array([0, 1, 3]))  # out of range
    with pytest.raises(ValueError):
        cb.FunctionTable(0, np.array([], dtype=np.int64))


def test_function_table_is_immutable():
    f = cb.FunctionTable.identity(4)
    with pytest.raises(ValueError):
        f.image[0] = 2
    # tables copy what they are given: later edits to a writable base do
    # not reach them, and the caller's own arrays stay writable
    base = np.array([[0, 1, 1, 2], [2, 0, 1, 0]])
    image = np.array([2, 0, 1])
    f = cb.FunctionTable(3, base[1, :3])
    g = cb.SetFunctionTable(3, base[0], base[1, :2])
    own = cb.FunctionTable(3, image)
    base[:] = 0
    assert f(0) == 2 and f.image.tolist() == [2, 0, 1]
    assert [g.image(x).tolist() for x in range(3)] == [[2], [], [0]]
    assert base.flags.writeable and image.flags.writeable
    image[0] = 1
    assert own(0) == 2
    for arr in (f.image, g.offsets, g.values, own.image):
        assert not arr.flags.writeable and arr.flags.c_contiguous


def test_set_function_table_validation():
    with pytest.raises(ValueError):
        cb.SetFunctionTable(2, np.array([0, 2, 2]), np.array([1, 0]))  # row not ascending
    with pytest.raises(ValueError):
        cb.SetFunctionTable(2, np.array([0, 2, 2]), np.array([0, 0]))  # duplicate target
    with pytest.raises(ValueError):
        cb.SetFunctionTable(2, np.array([0, 1]), np.array([0]))  # offsets too short
    with pytest.raises(ValueError):
        cb.SetFunctionTable(2, np.array([0, 1, 1]), np.array([0, 1]))  # end mismatch
    with pytest.raises(ValueError):
        cb.SetFunctionTable(2, np.array([0, 2, 1]), np.array([0]))  # decreasing offsets
    with pytest.raises(ValueError):
        cb.SetFunctionTable(2, np.array([0, 1, 2]), np.array([0, 2]))  # target range


def test_set_function_table_round_trips_rows():
    rows = [[1, 3], [], [0, 1, 2, 3], [2]]
    f = set_table(4, rows)
    assert [list(f.image(x)) for x in range(4)] == rows
    assert f.total_image_size() == 7


def test_instance_shape_validation():
    ident = cb.FunctionTable.identity(3)
    with pytest.raises(ValueError):
        cb.PcInstance(3, 2, (ident,))  # layer count mismatch
    with pytest.raises(ValueError):
        cb.PcInstance(4, 1, (ident,))  # n mismatch
    left = cb.PcInstance(3, 1, (ident,))
    right = cb.PcInstance(3, 2, (ident, ident))
    with pytest.raises(ValueError):
        cb.LpceInstance(left, right, 2)
    with pytest.raises(ValueError):
        cb.LpceInstance(left, left, 0)


def test_or_instance_requires_matching_items():
    rng = cb.derive_rng(3)
    a = cb.sample_uniform_lpce(4, 1, 2, rng)
    b = cb.sample_uniform_lpce(4, 1, 3, rng)
    with pytest.raises(ValueError):
        cb.OrLpceInstance(2, (a, b))  # r mismatch
    with pytest.raises(ValueError):
        cb.OrLpceInstance(2, (a,))  # wrong count


def test_instances_differing_in_one_field_compare_unequal():
    ident = cb.FunctionTable.identity(3)
    swap = cb.FunctionTable(3, np.array([1, 0, 2]))
    pc = cb.PcInstance(3, 2, (ident, ident))
    pc_swap = cb.PcInstance(3, 2, (ident, swap))
    item = cb.LpceInstance(pc, pc, 2)
    sc = cb.ScInstance(3, 1, (identity_set_table(3),))
    sc_drop = cb.ScInstance(3, 1, (set_table(3, [[0], [1], []]),))
    pairs = [
        (pc, pc_swap),
        (sc, sc_drop),
        (item, cb.LpceInstance(pc, pc_swap, 2)),
        (item, cb.LpceInstance(pc, pc, 3)),
        (cb.OrLpceInstance(1, (item,)), cb.OrLpceInstance(2, (item, item))),
        (cb.IntersectScInstance(sc, sc), cb.IntersectScInstance(sc, sc_drop)),
    ]
    for a, b in pairs:
        assert a == cb.parse_game(cb.serialize_game(a))
        assert a != b and b != a
        with pytest.raises(TypeError):
            hash(a)
    # same n, p and layer count, different kinds
    assert pc != cb.ScInstance(3, 2, (identity_set_table(3),) * 2)
    assert sc != cb.IntersectScInstance(sc, sc)


def test_samplers_respect_requested_shape():
    rng = cb.derive_rng(9)
    sc = cb.sample_intersect_sc(6, 3, rng)
    assert (sc.n, sc.p) == (6, 3)
    orlpce = cb.sample_uniform_or_lpce(8, 2, 3, 4, rng)
    assert (orlpce.n, orlpce.p, orlpce.r, orlpce.t) == (8, 2, 3, 4)
    f = cb.sample_set_function(5, rng, include_prob=1.0)
    assert all(list(f.image(x)) == [0, 1, 2, 3, 4] for x in range(5))
    g = cb.sample_set_function(5, rng, include_prob=0.0)
    assert g.total_image_size() == 0
