"""Self-check suites: CSV schema, determinism, and mutation sensitivity."""
import math

import numpy as np
import pytest

import chasebench as cb
from chasebench import gadgets, verify


def test_csv_schema_and_formatting():
    rows = [
        verify.CheckResult("demo", "alpha", 1.0 / 3.0, "<=0.5", True),
        verify.CheckResult("demo", "beta", 7, "=7", True),
        verify.CheckResult("demo", "gamma", False, "=true", False),
    ]
    text = verify.to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "suite,check,measured,threshold,passed"
    assert lines[1] == "demo,alpha,0.333333333,<=0.5,true"
    assert lines[2] == "demo,beta,7,=7,true"
    assert lines[3] == "demo,gamma,false,=true,false"
    assert text.endswith("\n")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nonsense", 1)


# enough trials that the statistical rows stay comfortably inside their caps
@pytest.mark.parametrize(
    "suite,trials",
    [("info", 1000), ("protocols", 80), ("reduction", 80), ("gadgets", 50), ("streaming", 40)],
)
def test_suites_pass_at_reduced_trials(suite, trials):
    results = verify.run_suite(suite, 7, trials=trials)
    assert results, suite
    assert all(r.suite == suite for r in results)
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_all_suite_concatenates_in_fixed_order():
    results = verify.run_suite("all", 3, trials=200)
    order = []
    for r in results:
        if r.suite not in order:
            order.append(r.suite)
    assert order == ["info", "protocols", "reduction", "gadgets", "streaming"]


def test_suite_output_is_deterministic_per_seed():
    a = verify.to_csv(verify.run_suite("gadgets", 11, trials=25))
    b = verify.to_csv(verify.run_suite("gadgets", 11, trials=25))
    assert a == b


def test_gadget_suite_catches_a_broken_builder(monkeypatch):
    # sabotage: drop the last edge of every distance gadget
    real = gadgets.build_distance_gadget

    def broken(inst):
        s = real(inst)
        return cb.GraphStream(s.nv, s.directed, s.src, s.dst, s.p, s.edges[:-1])

    monkeypatch.setattr(gadgets, "build_distance_gadget", broken)
    results = verify.run_suite("gadgets", 5, trials=40)
    assert any(not r.passed for r in results)


def test_reduction_suite_catches_a_broken_scrambler(monkeypatch):
    from chasebench import reduction

    real = reduction.scramble

    def broken(item, j, perms):
        # breaks the shared outermost layer on the right side only
        left, right = real(item, j, perms)
        n = right[0].n
        shifted = cb.FunctionTable(n, (np.asarray(right[0].image) + 1) % n)
        return left, (shifted,) + tuple(right[1:])

    monkeypatch.setattr(reduction, "scramble", broken)
    results = verify.run_suite("reduction", 5, trials=40)
    assert any(not r.passed for r in results)


def reference_tilted(n, delta):
    """The bisection before its early stop: always 200 steps."""
    target = np.log2(n) - delta

    def probs_at(s):
        p0 = 1.0 / n + s
        probs = np.full(n, (1.0 - p0) / (n - 1))
        probs[0] = p0
        return probs

    lo, hi = 0.0, 1.0 - 1.0 / n - 1e-12
    for _ in range(200):
        mid = (lo + hi) / 2
        p = probs_at(mid)
        p = p[p > 0]
        if -(p * np.log2(p)).sum() > target:
            lo = mid
        else:
            hi = mid
    return probs_at(lo)


def test_tilted_stops_early_on_the_same_distribution():
    grid = [(n, delta) for n in (2, 3, 4, 5, 16, 64, 100, 256, 300)
            for delta in (1e-9, 1e-6, 4e-4, 0.01, 0.1, 0.3, 0.5, 0.99)]
    for n, delta in grid:
        assert verify.tilted(n, delta).probs.tobytes() == reference_tilted(n, delta).tobytes(), (n, delta)


@pytest.mark.parametrize("n", [8, 16])
def test_c_star_rate_equals_one_draw_per_function(n):
    # the bulk draw gives the rows that `samples` per-function draws give
    r = cb.c_star_threshold(n)
    for seed in range(12):
        for samples in (1, 37, 200):
            rng = cb.derive_rng(seed, 0, 8)
            hits = sum(cb.is_r_non_injective(cb.sample_uniform_function(n, rng), r) for _ in range(samples))
            rate, cap = verify.c_star_rate(cb.derive_rng(seed, 0, 8), n, samples)
            assert rate == hits / samples
            base = 1.0 / (2 * n * n)
            assert cap == base + 3 * math.sqrt(base * (1 - base) / samples)
