"""Scramble-and-overlay reduction: parameter budget, algebra, completeness."""
import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasebench as cb
from chasebench import gameio, verify
from chasebench.errors import InfeasibleParametersError


def test_feasible_hand_values():
    # 10 * t^(2p) * r^(p-1) <= n
    assert cb.feasible(4096, 2, 15, 2)  # 10*16*15 = 2400
    assert not cb.feasible(2399, 2, 15, 2)
    assert cb.feasible(40, 1, 99, 2)  # r is free when p=1
    assert not cb.feasible(39, 1, 99, 2)
    assert not cb.feasible(64, 2, 9, 2)  # 10*16*9 = 1440


def test_feasible_equals_the_exact_formula_on_a_small_grid():
    for n in [*range(1, 70), 2**10 - 1, 2**10, 4096, 10**6]:
        for p in range(1, n.bit_length() + 4):
            for r in range(1, 5):
                for t in range(1, 5):
                    want = 10 * t ** (2 * p) * r ** (p - 1) <= n
                    assert cb.feasible(n, p, r, t) == want, (n, p, r, t)


def test_feasible_refuses_a_huge_pass_count_without_the_power():
    start = time.perf_counter()
    assert not cb.feasible(4096, 2**22, 15, 1)  # 15**(2**22 - 1) has 4.9M digits
    assert not cb.feasible(4096, 2**70, 1, 2)
    assert time.perf_counter() - start < 0.5
    assert cb.feasible(10, 2**70, 1, 1)  # t = r = 1: the budget is 10 at any p


def test_reduction_params_guard():
    params = cb.ReductionParams(4096, 2, 15, 2)
    assert (params.n, params.p, params.r, params.t) == (4096, 2, 15, 2)
    with pytest.raises(InfeasibleParametersError):
        cb.ReductionParams(64, 2, 9, 2)


def test_choose_params_frozen_example():
    assert cb.choose_params(2**20, 1, 10).t == 102


def test_choose_params_matches_linear_scan():
    for n in (64, 1000, 4096, 10**5):
        for p in (1, 2, 3):
            for r in (2, 5, 11):
                try:
                    got = cb.choose_params(n, p, r).t
                except InfeasibleParametersError:
                    got = None
                best = None
                t = 1
                while (10 * r * t * t) ** p <= n:
                    best = t
                    t += 1
                assert got == best, (n, p, r)


def test_choose_params_large_n():
    # 10*t^2 <= 2^50 < 10*(t+1)^2; a scan over t would take ~10^7 steps
    assert cb.choose_params(2**50, 1, 1).t == 10610843


def test_choose_params_infeasible_raises():
    with pytest.raises(InfeasibleParametersError):
        cb.choose_params(5, 1, 1)  # even t=1 needs n >= 10
    with pytest.raises(InfeasibleParametersError):
        cb.choose_params(4096, 2**22, 15)  # refused without building 150**(2**22)


def test_choose_params_avoids_float_rounding():
    # boundary where n is exactly the budget of t and one below
    r, p = 3, 2
    for t in (7, 23, 61):
        n_exact = (10 * r * t * t) ** p
        assert cb.choose_params(n_exact, p, r).t == t
        assert cb.choose_params(n_exact - 1, p, r).t == t - 1


def test_permutation_family_shape_and_shared_layer():
    rng = cb.derive_rng(5)
    fam = cb.sample_permutation_family(16, 3, 4, rng)
    assert fam.pi.shape == fam.rho.shape == (4, 3, 16)
    assert (fam.t, fam.p) == (4, 3)
    for j in range(4):
        assert np.array_equal(fam.pi[j, 0], fam.rho[j, 0])
        for i in range(3):
            assert sorted(fam.pi[j, i].tolist()) == list(range(16))
            assert sorted(fam.rho[j, i].tolist()) == list(range(16))


def test_permutation_family_validation():
    good = np.tile(np.arange(4), (2, 2, 1))
    bad = good.copy()
    bad[0, 1] = np.array([0, 0, 1, 2])
    with pytest.raises(ValueError):
        cb.PermutationFamily(4, bad, good)
    mismatched = good.copy()
    mismatched[1, 0] = np.array([1, 0, 2, 3])
    with pytest.raises(ValueError):
        cb.PermutationFamily(4, good, mismatched)  # first layer must be shared


def test_inverse_family_composes_to_identity():
    rng = cb.derive_rng(6)
    fam = cb.sample_permutation_family(12, 2, 3, rng)
    inv = fam.inverse()
    for j in range(3):
        for i in range(2):
            assert np.array_equal(fam.pi[j, i][inv.pi[j, i]], np.arange(12))
            assert np.array_equal(inv.rho[j, i][fam.rho[j, i]], np.arange(12))
    assert inv.inverse() == fam and inv != fam
    # a family differing from fam in one transposition of one layer
    rho = fam.rho.copy()
    rho[2, 1, [0, 1]] = rho[2, 1, [1, 0]]
    assert cb.PermutationFamily(12, fam.pi, rho) != fam


def _as_item(n, p, r, pair):
    left, right = pair
    return cb.LpceInstance(cb.PcInstance(n, p, left), cb.PcInstance(n, p, right), r)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_scramble_then_inverse_scramble_is_identity(seed):
    rng = cb.derive_rng(seed)
    n = int(rng.integers(2, 20))
    p = int(rng.integers(1, 4))
    t = int(rng.integers(1, 4))
    item = cb.sample_uniform_lpce(n, p, 2, rng)
    fam = cb.sample_permutation_family(n, p, t, rng)
    j = int(rng.integers(t))
    fwd = _as_item(n, p, 2, cb.scramble(item, j, fam))
    back = _as_item(n, p, 2, cb.scramble(fwd, j, fam.inverse()))
    assert back == item


def test_scramble_conjugates_the_chase():
    rng = cb.derive_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, 4))
        item = cb.sample_uniform_lpce(n, p, 2, rng)
        fam = cb.sample_permutation_family(n, p, 2, rng)
        j = int(rng.integers(2))
        out = _as_item(n, p, 2, cb.scramble(item, j, fam))
        # composite chase commutes with the outermost scramble layer
        assert cb.eval_pc(out.left) == int(fam.pi[j, 0][cb.eval_pc(item.left)])
        assert cb.eval_pc(out.right) == int(fam.rho[j, 0][cb.eval_pc(item.right)])
        # shared first layer: equality of endpoints is preserved exactly
        same_before = cb.eval_pc(item.left) == cb.eval_pc(item.right)
        same_after = cb.eval_pc(out.left) == cb.eval_pc(out.right)
        assert same_before == same_after


def test_scramble_validates_slot_and_shape():
    rng = cb.derive_rng(8)
    item = cb.sample_uniform_lpce(8, 2, 2, rng)
    fam = cb.sample_permutation_family(8, 2, 3, rng)
    with pytest.raises(ValueError):
        cb.scramble(item, 3, fam)
    with pytest.raises(ValueError):
        cb.scramble(item, -1, fam)
    wrong = cb.sample_uniform_lpce(7, 2, 2, rng)
    with pytest.raises(ValueError):
        cb.scramble(wrong, 0, fam)


def test_overlay_matches_python_reference():
    rng = cb.derive_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 14))
        p = int(rng.integers(1, 4))
        t = int(rng.integers(1, 5))
        items = [cb.sample_uniform_lpce(n, p, 2, rng) for _ in range(t)]
        pairs = [(it.left.funcs, it.right.funcs) for it in items]
        merged = cb.overlay(pairs)
        assert isinstance(merged, cb.IntersectScInstance)
        for side_idx, side in enumerate((merged.left, merged.right)):
            for i in range(p):
                for x in range(n):
                    want = {
                        int((it.left if side_idx == 0 else it.right).funcs[i].image[x])
                        for it in items
                    }
                    assert set(side.funcs[i].image(x).tolist()) == want


def test_overlay_rejects_empty_input():
    with pytest.raises(ValueError):
        cb.overlay([])


def _overlay_pairs(rng, *shapes):
    """One (left, right) pair of layer tuples per (n, left p, right p)."""
    def funcs(n, p):
        return cb.sample_uniform_pc(n, p, rng).funcs

    return [(funcs(n, a), funcs(n, b)) for n, a, b in shapes]


@pytest.mark.parametrize(
    "shapes, pair",
    [
        ([(8, 2, 2), (8, 3, 3)], 1),  # a later item with more layers
        ([(8, 2, 3)], 0),  # p=2 on the left, p=3 on the right
        ([(8, 2, 2), (9, 2, 2)], 1),  # a later item with a different n
        ([(8, 2, 2), (8, 2, 2), (8, 1, 1)], 2),  # a later item with fewer layers
    ],
)
def test_overlay_refuses_a_pair_unlike_the_first(shapes, pair):
    pairs = _overlay_pairs(cb.derive_rng(22), *shapes)
    with pytest.raises(ValueError, match=rf"^pair {pair} "):
        cb.overlay(pairs)


def test_overlay_refuses_a_table_that_is_not_a_function_table():
    (left, right), = _overlay_pairs(cb.derive_rng(23), (8, 2, 2))
    sets = tuple(cb.SetFunctionTable.from_function(f) for f in right)
    with pytest.raises(ValueError, match="^pair 1 "):
        cb.overlay([(left, right), (left, sets)])


def test_permutation_draws_are_pinned():
    fam = cb.sample_permutation_family(4096, 2, 2, cb.derive_rng(9))
    digest = hashlib.sha256(fam.pi.tobytes() + fam.rho.tobytes()).hexdigest()
    assert digest == "58ff5f029141f224861831175b58fccd2093ebabc5c267db080f79b1e4210dba"


def test_reduction_output_at_t3_is_pinned():
    n, p, t = 1024, 2, 3
    inst = cb.sample_uniform_or_lpce(n, p, cb.c_star_threshold(n), t, cb.derive_rng(19, 1))
    out = cb.reduce_or_lpce(inst, cb.derive_rng(19, 2), check_feasible=False)
    digest = hashlib.sha256(gameio.serialize_game(out).encode()).hexdigest()
    assert digest == "c1060c92b1ec66e97734609e39bb7aee636881487c2d68f9897183843f526a7f"


def test_reduce_checks_feasibility_by_default():
    rng = cb.derive_rng(30)
    inst = cb.sample_uniform_or_lpce(64, 2, 9, 2, rng)
    with pytest.raises(InfeasibleParametersError):
        cb.reduce_or_lpce(inst, rng)
    out = cb.reduce_or_lpce(inst, cb.derive_rng(1), check_feasible=False)
    assert isinstance(out, (cb.IntersectScInstance, cb.ShortCircuit))


def test_reduce_is_deterministic_given_the_rng_seed():
    rng = cb.derive_rng(31)
    inst = cb.sample_uniform_or_lpce(256, 1, 11, 4, rng)
    a = cb.reduce_or_lpce(inst, cb.derive_rng(77))
    b = cb.reduce_or_lpce(inst, cb.derive_rng(77))
    assert a == b


def test_short_circuit_on_heavy_table():
    ident = cb.FunctionTable.identity(8)
    const = cb.FunctionTable.constant(8, 0)
    left = cb.PcInstance(8, 1, (const,))
    right = cb.PcInstance(8, 1, (ident,))
    item0 = cb.LpceInstance(cb.PcInstance(8, 1, (ident,)), right, 4)
    item1 = cb.LpceInstance(left, right, 4)
    inst = cb.OrLpceInstance(2, (item0, item1))
    out = cb.reduce_or_lpce(inst, cb.derive_rng(0), check_feasible=False)
    assert isinstance(out, cb.ShortCircuit)
    assert out.answer == 1
    assert out.witness == (1, 0, 0)  # item 1, left side, layer 0
    j, side, layer = out.witness
    table = (inst.items[j].left if side == 0 else inst.items[j].right).funcs[layer]
    assert cb.is_r_non_injective(table, inst.r)


def test_completeness_forced_instances_reduce_to_one():
    rng = cb.derive_rng(40)
    n, p, t = 256, 1, 3
    r = cb.c_star_threshold(n)
    assert cb.feasible(n, p, r, t)
    for _ in range(30):
        inst = cb.sample_uniform_or_lpce(n, p, r, t, rng)
        items = list(inst.items)
        j = int(rng.integers(t))
        items[j] = cb.force_equal(items[j])
        forced = cb.OrLpceInstance(t, tuple(items))
        out = cb.reduce_or_lpce(forced, rng)
        if isinstance(out, cb.ShortCircuit):
            assert cb.eval_or_lpce(forced) == 1
        else:
            assert cb.eval_intersect_sc(out) == 1


def test_soundness_zero_instances_rarely_map_to_one():
    sizes = verify.soundness_sizes(cb.derive_rng(41), 150, 256, 1, 5)
    # expected false-intersection rate is t^2/n < 0.1; allow slack
    assert (sizes > 0).mean() <= 0.25


def test_end_to_end_report_accounting():
    rng = cb.derive_rng(50)
    n, p, t = 256, 1, 3
    r = cb.c_star_threshold(n)
    inst = cb.sample_uniform_or_lpce(n, p, r, t, rng)
    report = cb.reduction.end_to_end_report(inst, cb.forward_sc_protocol, cb.derive_rng(1))
    reduced = cb.reduce_or_lpce(inst, cb.derive_rng(1))
    _, transcript = cb.forward_sc_protocol(reduced)
    assert not report.short_circuited
    assert report.communication_bits == transcript.total_bits + 2 * p
    assert report.answer in (0, 1)
    assert cb.end_to_end_solve(inst, cb.forward_sc_protocol, cb.derive_rng(1)) == report.answer


def test_end_to_end_short_circuit_costs_only_the_pre_round():
    ident = cb.FunctionTable.identity(8)
    const = cb.FunctionTable.constant(8, 0)
    item = cb.LpceInstance(cb.PcInstance(8, 1, (const,)), cb.PcInstance(8, 1, (ident,)), 4)
    inst = cb.OrLpceInstance(1, (item,))
    report = cb.reduction.end_to_end_report(
        inst, cb.forward_sc_protocol, cb.derive_rng(0), check_feasible=False
    )
    assert report.short_circuited
    assert report.answer == 1
    assert report.communication_bits == 2 * inst.p
