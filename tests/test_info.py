"""Entropy toolkit: frozen hand values, applicability gates, and the sampler law."""
import math
from fractions import Fraction

import numpy as np
import pytest

import chasebench as cb
from chasebench.verify import tilted

# Threshold r(n) = smallest escape threshold making a uniform random function
# r-non-injective with probability at most 1/(2n^2).  Values for n <= 12 were
# recomputed with an independent generating-function count: the number of
# tables with every preimage below r is n! [x^n] (sum_{i<r} x^i/i!)^n.
EXACT_THRESHOLDS = {2: 3, 3: 4, 4: 4, 5: 5, 6: 5, 7: 5, 8: 6, 9: 6, 10: 6, 11: 6, 12: 6}

# For n > 12 the threshold is certified by the union bound
# 2 n^3 C(n, r) <= n^r; these were recomputed by hand with exact integers.
CERTIFIED_THRESHOLDS = {16: 7, 32: 8, 64: 9, 256: 11, 4096: 15}


def _bounded_load_count(n: int, r: int) -> int:
    """Tables with every preimage smaller than r, via an EGF coefficient."""
    base = [Fraction(1, math.factorial(i)) for i in range(min(r - 1, n) + 1)]
    poly = [Fraction(1)]
    for _ in range(n):
        nxt = [Fraction(0)] * (n + 1)
        for a, ca in enumerate(poly):
            if ca:
                for b, cb_ in enumerate(base):
                    if a + b > n:
                        break
                    nxt[a + b] += ca * cb_
        poly = nxt
    return int(poly[n] * math.factorial(n))


def test_exact_thresholds_match_generating_function_oracle():
    for n, want in EXACT_THRESHOLDS.items():
        assert cb.c_star_threshold(n) == want
        bad = n**n - _bounded_load_count(n, want)
        assert 2 * n * n * bad <= n**n
        bad_prev = n**n - _bounded_load_count(n, want - 1)
        assert 2 * n * n * bad_prev > n**n  # minimality


def test_certified_thresholds():
    for n, want in CERTIFIED_THRESHOLDS.items():
        assert cb.c_star_threshold(n) == want
        assert 2 * n**3 * math.comb(n, want) <= n**want
        assert 2 * n**3 * math.comb(n, want - 1) > n ** (want - 1)


def test_threshold_rejects_tiny_ground_sets():
    with pytest.raises(ValueError):
        cb.c_star_threshold(1)


def test_distribution_validation():
    with pytest.raises(ValueError):
        cb.FiniteDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        cb.FiniteDistribution(np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        cb.FiniteDistribution(np.array([]))
    for bad in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf], [1.0, 0.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            cb.FiniteDistribution(np.array(bad))
    for bad_n in (0, -1, -5):
        with pytest.raises(ValueError, match="n >= 1"):
            cb.FiniteDistribution.uniform(bad_n)
    assert cb.FiniteDistribution.uniform(1).probs.tolist() == [1.0]
    u = cb.FiniteDistribution.uniform(4)
    assert u.n == 4
    assert np.allclose(u.probs, 0.25)
    assert u == cb.FiniteDistribution.uniform(4)
    assert u != cb.FiniteDistribution(np.array([0.25, 0.25, 0.5, 0.0]))


def test_uniform_takes_integral_sizes_only():
    assert cb.FiniteDistribution.uniform(3.0) == cb.FiniteDistribution.uniform(3)
    assert cb.FiniteDistribution.uniform(np.int64(3)) == cb.FiniteDistribution.uniform(3)
    for bad_n in (2.5, float("nan"), "3"):
        with pytest.raises(ValueError, match=r"^n .* is not an integer"):
            cb.FiniteDistribution.uniform(bad_n)


def test_entropy_hand_values():
    assert cb.entropy(cb.FiniteDistribution.uniform(16)) == pytest.approx(4.0)
    assert cb.entropy(cb.FiniteDistribution(np.array([1.0, 0.0]))) == pytest.approx(0.0)
    assert cb.entropy(cb.FiniteDistribution(np.array([0.5, 0.5]))) == pytest.approx(1.0)
    # H(1/4, 3/4) = 2 - (3/4) log2 3
    want = 2 - 0.75 * math.log2(3)
    assert cb.entropy(cb.FiniteDistribution(np.array([0.25, 0.75]))) == pytest.approx(want)


def test_kl_divergence_hand_values():
    u = cb.FiniteDistribution.uniform(2)
    v = cb.FiniteDistribution(np.array([0.25, 0.75]))
    assert cb.kl_divergence(u, u) == pytest.approx(0.0)
    want = 0.5 * math.log2(0.5 / 0.25) + 0.5 * math.log2(0.5 / 0.75)
    assert cb.kl_divergence(u, v) == pytest.approx(want)
    degenerate = cb.FiniteDistribution(np.array([1.0, 0.0]))
    assert cb.kl_divergence(u, degenerate) == math.inf
    assert cb.kl_divergence(degenerate, u) == pytest.approx(1.0)


def test_mutual_information_hand_values():
    ident = np.eye(4) / 4
    assert cb.mutual_information(ident) == pytest.approx(2.0)
    indep = np.full((4, 4), 1 / 16)
    assert cb.mutual_information(indep) == pytest.approx(0.0)
    half = np.array([[0.25, 0.25], [0.0, 0.5]])
    hx = cb.entropy(cb.FiniteDistribution(half.sum(axis=1)))
    hy = cb.entropy(cb.FiniteDistribution(half.sum(axis=0)))
    hxy = -sum(p * math.log2(p) for p in half.ravel() if p > 0)
    assert cb.mutual_information(half) == pytest.approx(hx + hy - hxy)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mutual_information_refuses_non_finite_entries(bad):
    with pytest.raises(ValueError, match="not a probability distribution"):
        cb.mutual_information([[bad, 0.0], [0.0, 1.0]])


def test_almost_uniform_refuses_non_integer_elements_and_a_bad_delta():
    d = cb.FiniteDistribution.uniform(8)
    with pytest.raises(ValueError, match="change under the cast"):
        cb.check_almost_uniform(d, [1.5, 2.7, 3.2, 4.9], 1e-4)
    with pytest.raises(ValueError, match="change under the cast"):
        cb.check_almost_uniform(d, np.array([0.0, 1.5]), 1e-4)
    for delta in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="delta must be a non-negative number"):
            cb.check_almost_uniform(d, [1, 2], delta)
    # integral values of any type, from any iterable, count as their ints
    want = cb.check_almost_uniform(d, [1, 2, 3, 4], 1e-4)
    for s in ([1.0, 2, np.int64(3), 4], {1, 2, 3, 4}, iter([4, 3, 2, 1, 1]), np.array([1, 2, 3, 4])):
        assert cb.check_almost_uniform(d, s, 1e-4) == want


def test_almost_uniform_gate_and_bound():
    delta = 48.0**-2
    d = tilted(64, delta / 2)
    s = list(range(32))
    report = cb.check_almost_uniform(d, s, delta)
    assert report.applicable and report.holds
    # slack term comes from the stated tolerance, not the observed deficit
    big_delta = math.sqrt(4 * delta * 64 / len(s))
    assert report.big_delta == pytest.approx(big_delta, rel=1e-9)
    assert report.lower_bound == pytest.approx(len(s) / 64 * (1 - big_delta), rel=1e-9)
    assert report.prob_in_set >= report.lower_bound
    assert report.entropy_deficit == pytest.approx(delta / 2, rel=1e-3)


def test_almost_uniform_not_applicable_cases():
    delta = 48.0**-2
    heavy = cb.FiniteDistribution(np.array([0.9] + [0.1 / 15] * 15))
    report = cb.check_almost_uniform(heavy, range(8), delta)
    assert not report.applicable  # entropy deficit far above delta
    tiny_set = cb.check_almost_uniform(cb.FiniteDistribution.uniform(64), range(1), delta)
    assert not tiny_set.applicable  # slack term exceeds the 1/10 gate
    empty = cb.check_almost_uniform(cb.FiniteDistribution.uniform(4), [], delta)
    assert not empty.applicable


def test_almost_uniform_holds_on_random_mild_tilts():
    rng = cb.derive_rng(90)
    delta = 48.0**-2
    checked = 0
    for _ in range(200):
        n = int(rng.choice([16, 64, 256]))
        d = tilted(n, float(rng.uniform(0, delta)))
        size = int(rng.integers(n // 2, n + 1))
        s = rng.choice(n, size=size, replace=False)
        report = cb.check_almost_uniform(d, s.tolist(), delta)
        if report.applicable:
            checked += 1
            assert report.holds
    assert checked > 50


def test_collision_bounds_on_near_uniform_pairs():
    delta = 48.0**-2
    for n in (4, 16, 64):
        x = tilted(n, delta * 0.9)
        y = tilted(n, delta * 0.5)
        report = cb.collision_bounds_check(x, y, delta)
        assert report.applicable
        collision = float(np.dot(x.probs, y.probs))
        assert report.collision_prob == pytest.approx(collision)
        assert collision >= 1 / (8 * n)
        assert report.collision_holds
        assert report.distinct_holds
        assert 1 - collision >= 0.25


def test_collision_bounds_gates():
    delta = 48.0**-2
    heavy = cb.FiniteDistribution(np.array([0.9, 0.05, 0.03, 0.02]))
    assert not cb.collision_bounds_check(heavy, heavy, delta).applicable
    # n=2: the collision bound applies but the distinctness clause needs n>=4
    two = cb.collision_bounds_check(
        cb.FiniteDistribution.uniform(2), cb.FiniteDistribution.uniform(2), delta
    )
    assert two.applicable
    assert two.distinct_holds is None


def test_mixture_entropy_hand_case():
    x0 = cb.FiniteDistribution(np.array([1.0, 0.0]))
    x1 = cb.FiniteDistribution(np.array([0.0, 1.0]))
    y = cb.FiniteDistribution(np.array([0.5, 0.5]))
    report = cb.mixture_entropy_check(x0, x1, y)
    # mixture is uniform on 2: H = 1; bound = 1 + 0 + 0
    assert report.mixture_entropy == pytest.approx(1.0)
    assert report.upper_bound == pytest.approx(1.0)
    assert report.holds


def test_mixture_entropy_random_inequality():
    rng = cb.derive_rng(91)
    for _ in range(500):
        n = int(rng.integers(2, 24))
        x0 = cb.FiniteDistribution(np.diff(np.sort(np.concatenate([[0, 1], rng.random(n - 1)]))))
        x1 = cb.FiniteDistribution(np.diff(np.sort(np.concatenate([[0, 1], rng.random(n - 1)]))))
        w = float(rng.uniform(0, 1))
        y = cb.FiniteDistribution(np.array([w, 1 - w]))
        report = cb.mixture_entropy_check(x0, x1, y)
        assert report.holds
        lhs = cb.entropy(
            cb.FiniteDistribution(w * x0.probs + (1 - w) * x1.probs)
        )
        assert report.mixture_entropy == pytest.approx(lhs, abs=1e-9)
        want_bound = 1 + w * cb.entropy(x0) + (1 - w) * cb.entropy(x1)
        assert report.upper_bound == pytest.approx(want_bound, abs=1e-9)


def test_good_set_frozen_example():
    p = cb.FiniteDistribution(np.array([0.3] + [0.1] * 7))
    q = cb.FiniteDistribution(np.array([0.004] + [0.996 / 7] * 7))
    good = cb.good_set(p, q, 0.9)
    assert sorted(good) == [1, 2, 3, 4, 5, 6, 7]
    # atom 0 is excluded because p_0 * 2^{-(a+1)/eps} > q_0
    a = cb.kl_divergence(p, q)
    cutoff = 2 ** (-(a + 1) / 0.9)
    assert 0.3 * cutoff > 0.004
    assert all(0.1 * cutoff <= 0.996 / 7 + 1e-15 for _ in range(7))


def test_good_set_mass_lower_bound_random():
    rng = cb.derive_rng(92)
    for _ in range(300):
        n = int(rng.integers(2, 16))
        p = cb.FiniteDistribution(np.diff(np.sort(np.concatenate([[0, 1], rng.random(n - 1)]))))
        q_raw = rng.random(n) + 1e-3
        q = cb.FiniteDistribution(q_raw / q_raw.sum())
        eps = float(rng.uniform(0.05, 1.0))
        good = cb.good_set(p, q, eps)
        mass = float(p.probs[sorted(good)].sum())
        assert mass >= 1 - eps - 1e-9


def test_good_set_degenerates_to_support_when_divergence_is_infinite():
    p = cb.FiniteDistribution(np.array([0.5, 0.5, 0.0]))
    q = cb.FiniteDistribution(np.array([0.0, 0.5, 0.5]))
    assert cb.kl_divergence(p, q) == math.inf
    assert sorted(cb.good_set(p, q, 0.5)) == [0, 1]


def test_rejection_sampler_law_and_step_count():
    p = cb.FiniteDistribution(np.array([0.3] + [0.1] * 7))
    q = cb.FiniteDistribution(np.array([0.004] + [0.996 / 7] * 7))
    eps = 0.9
    a = cb.kl_divergence(p, q)
    stop = 2 ** (-(a + 1) / eps)
    rng = cb.derive_rng(93)
    outcomes = [cb.rejection_sample(p, q, eps, rng) for _ in range(20000)]
    values = np.array([-1 if o.value is None else o.value for o in outcomes])
    steps = np.array([o.steps for o in outcomes])
    assert steps.min() >= 1
    # bottom symbol appears with probability 1 - P(Good) = 0.3
    bottom_rate = float(np.mean(values < 0))
    assert abs(bottom_rate - 0.3) < 0.02
    # successful draws follow p restricted to the good set
    for atom in range(1, 8):
        rate = float(np.mean(values == atom))
        assert abs(rate - 0.1) < 0.02
    assert not np.any(values == 0)  # atom 0 is outside the good set
    # expected number of rounds is exactly 1/stop
    assert abs(steps.mean() - 1 / stop) < 4 * steps.std() / math.sqrt(len(steps))


def test_rejection_sampler_is_deterministic_per_seed():
    p = cb.FiniteDistribution.uniform(6)
    q = cb.FiniteDistribution(np.array([0.3, 0.2, 0.2, 0.1, 0.1, 0.1]))
    a = [cb.rejection_sample(p, q, 0.5, cb.derive_rng(5, i)) for i in range(50)]
    b = [cb.rejection_sample(p, q, 0.5, cb.derive_rng(5, i)) for i in range(50)]
    assert [(o.value, o.steps) for o in a] == [(o.value, o.steps) for o in b]


def test_rejection_sampler_rejects_infinite_divergence():
    p = cb.FiniteDistribution(np.array([0.5, 0.5, 0.0]))
    q = cb.FiniteDistribution(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        cb.rejection_sample(p, q, 0.5, cb.derive_rng(0))


def test_rejection_sampler_step_cap():
    p = cb.FiniteDistribution.uniform(4)
    q = cb.FiniteDistribution(np.array([0.97, 0.01, 0.01, 0.01]))
    with pytest.raises(RuntimeError):
        cb.rejection_sample(p, q, 0.01, cb.derive_rng(1), max_steps=3)
