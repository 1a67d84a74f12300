"""Finite-distribution information toolkit.

Everything works in bits (base-2 logs): entropy, divergence, the
almost-uniform and collision bounds for high-entropy variables, the
two-case mixture entropy bound, the Good-set rejection sampler, and the
exact non-injectivity threshold used to pick the escape parameter r.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .util import FrozenRecord, frozen_copy

__all__ = [
    "FiniteDistribution",
    "entropy",
    "kl_divergence",
    "mutual_information",
    "AlmostUniformReport",
    "check_almost_uniform",
    "CollisionReport",
    "collision_bounds_check",
    "MixtureEntropyReport",
    "mixture_entropy_check",
    "good_set",
    "SamplerOutcome",
    "rejection_sample",
    "c_star_threshold",
]

_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteDistribution(FrozenRecord):
    """Probabilities over the labels 0..n-1, normalized within 1e-9."""

    probs: np.ndarray

    def __post_init__(self):
        probs = frozen_copy(self.probs, np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty vector")
        # NaN passes both checks below: it is neither < 0 nor off the sum test
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if (probs < 0).any():
            raise ValueError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > _NORM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, n: int) -> "FiniteDistribution":
        if n < 1:
            raise ValueError("uniform distribution needs n >= 1")
        return cls(np.full(n, 1.0 / n))

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0)


def entropy(d: FiniteDistribution) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    p = d.probs[d.probs > 0]
    return float(-(p * np.log2(p)).sum())


def kl_divergence(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """D(p || q) in bits; +inf when q misses mass somewhere p has some."""
    if p.n != q.n:
        raise ValueError("distributions live on different label sets")
    mask = p.probs > 0
    if (q.probs[mask] == 0).any():
        return math.inf
    pm = p.probs[mask]
    return float((pm * np.log2(pm / q.probs[mask])).sum())


def mutual_information(joint: np.ndarray) -> float:
    """I(X;Y) in bits from a joint probability table (rows = X)."""
    j = np.asarray(joint, dtype=np.float64)
    if j.ndim != 2:
        raise ValueError("joint must be a 2-d table")
    if (j < 0).any() or abs(float(j.sum()) - 1.0) > _NORM_TOL:
        raise ValueError("joint table is not a probability distribution")
    px = j.sum(axis=1)
    py = j.sum(axis=0)
    outer = np.outer(px, py)
    mask = j > 0
    return float((j[mask] * np.log2(j[mask] / outer[mask])).sum())


@dataclass(frozen=True)
class AlmostUniformReport:
    """Outcome of the high-entropy hitting bound on one set.

    Not applicable (holds=None) when the entropy deficit exceeds delta or
    the error term Delta = sqrt(4*delta*n/|S|) exceeds 1/10.
    """

    applicable: bool
    holds: Optional[bool]
    prob_in_set: float
    lower_bound: float
    big_delta: float
    entropy_deficit: float


def check_almost_uniform(
    d: FiniteDistribution, s: Iterable[int], delta: float
) -> AlmostUniformReport:
    """Check Pr[X in S] >= (|S|/n)(1 - Delta) for an H(X) >= log n - delta variable."""
    idx = np.unique(np.fromiter(s, dtype=np.int64))
    if idx.size and (idx[0] < 0 or idx[-1] >= d.n):
        raise ValueError("set element outside the distribution's domain")
    deficit = math.log2(d.n) - entropy(d)
    if idx.size == 0:
        return AlmostUniformReport(False, None, 0.0, 0.0, math.inf, deficit)
    big_delta = math.sqrt(4.0 * delta * d.n / idx.size)
    applicable = deficit <= delta + _NORM_TOL and big_delta <= 0.1
    prob = float(d.probs[idx].sum())
    bound = idx.size / d.n * (1.0 - big_delta)
    holds = prob >= bound - 1e-12 if applicable else None
    return AlmostUniformReport(applicable, holds, prob, bound, big_delta, deficit)


@dataclass(frozen=True)
class CollisionReport:
    """Collision and anti-collision bounds for two high-entropy variables."""

    applicable: bool
    collision_prob: float
    collision_lower: float
    collision_holds: Optional[bool]
    distinct_prob: float
    distinct_lower: float
    distinct_holds: Optional[bool]  # None when n < 4: bound not claimed


def collision_bounds_check(
    x: FiniteDistribution, y: FiniteDistribution, delta: float = 48.0 ** -2
) -> CollisionReport:
    """Check Pr[X=Y] >= 1/(8n) and, for n >= 4, Pr[X != Y] >= 1/4.

    X and Y are independent with entropies at least log n - delta; pairs
    outside that regime are reported as not applicable rather than judged.
    """
    if x.n != y.n:
        raise ValueError("distributions live on different label sets")
    n = x.n
    log_n = math.log2(n)
    applicable = (
        entropy(x) >= log_n - delta - _NORM_TOL and entropy(y) >= log_n - delta - _NORM_TOL
    )
    collision = float((x.probs * y.probs).sum())
    col_lower = 1.0 / (8 * n)
    dis_lower = 0.25
    col_holds = collision >= col_lower - 1e-15 if applicable else None
    if applicable and n >= 4:
        dis_holds: Optional[bool] = (1.0 - collision) >= dis_lower - 1e-15
    else:
        dis_holds = None
    return CollisionReport(
        applicable, collision, col_lower, col_holds, 1.0 - collision, dis_lower, dis_holds
    )


@dataclass(frozen=True)
class MixtureEntropyReport:
    """H(X_Y) against 1 + sum_i Pr[Y=i] H(X_i) for a binary selector Y."""

    mixture_entropy: float
    upper_bound: float
    slack: float
    holds: bool


def mixture_entropy_check(
    x0: FiniteDistribution, x1: FiniteDistribution, y: FiniteDistribution
) -> MixtureEntropyReport:
    if y.n != 2:
        raise ValueError("selector must be a distribution on {0, 1}")
    if x0.n != x1.n:
        raise ValueError("mixture components live on different label sets")
    mix = FiniteDistribution(y.probs[0] * x0.probs + y.probs[1] * x1.probs)
    h = entropy(mix)
    bound = 1.0 + float(y.probs[0]) * entropy(x0) + float(y.probs[1]) * entropy(x1)
    return MixtureEntropyReport(h, bound, bound - h, h <= bound + 1e-9)


def _good_mask(p: FiniteDistribution, q: FiniteDistribution, cutoff: float) -> np.ndarray:
    return (p.probs > 0) & (p.probs * cutoff <= q.probs)


def good_set(p: FiniteDistribution, q: FiniteDistribution, eps: float) -> frozenset[int]:
    """Atoms of p whose mass q does not undershoot by factor 2^{-(a+1)/eps}.

    a is the divergence D(p || q).  Restricted to p's support (zero-mass
    atoms satisfy the threshold vacuously and carry nothing).  The returned
    set always holds at least 1 - eps of p's mass; an infinite divergence
    degenerates the cutoff to 0 and the set to all of p's support.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    a = kl_divergence(p, q)
    mask = _good_mask(p, q, 2.0 ** (-(a + 1.0) / eps) if math.isfinite(a) else 0.0)
    weight = float(p.probs[mask].sum())
    if weight < 1.0 - eps - 1e-9:
        raise RuntimeError(
            f"good set carries {weight} < 1-eps of the mass; this contradicts the bound"
        )
    return frozenset(np.flatnonzero(mask).tolist())


@dataclass(frozen=True)
class SamplerOutcome:
    """Result of one rejection-sampling run.

    steps counts draws from q until the process stopped.  value is the
    accepted label, or None when the second coin fired (the bottom case,
    reported as R = 0 in the accounting).
    """

    value: Optional[int]
    steps: int


def rejection_sample(
    p: FiniteDistribution,
    q: FiniteDistribution,
    eps: float,
    rng: np.random.Generator,
    max_steps: int = 10 ** 6,
) -> SamplerOutcome:
    """Sample from p (restricted to the good set) using only draws from q.

    Per step: draw gamma ~ q; if gamma is good, accept it with probability
    c*p(gamma)/q(gamma) where c = 2^{-(a+1)/eps}; otherwise flip the bottom
    coin with probability c*(1-w)/(1-c*w), w being p's good mass.  Each step
    stops the process with probability exactly c, accepted values follow p
    conditioned on the good set, and E[steps] = 1/c.

    Draw order per step: one uniform for gamma, one for the accept coin
    (only when gamma is good), one for the bottom coin (only when not yet
    accepted).  Deterministic for a fixed rng state.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    a = kl_divergence(p, q)
    if not math.isfinite(a):
        raise ValueError("divergence is infinite; the sampler would never stop")
    c = 2.0 ** (-(a + 1.0) / eps)
    mask = _good_mask(p, q, c)
    w = float(p.probs[mask].sum())
    bottom = c * (1.0 - w) / (1.0 - c * w) if w < 1.0 else 0.0
    cum = np.cumsum(q.probs)
    for step in range(1, max_steps + 1):
        gamma = int(np.searchsorted(cum, rng.random(), side="right"))
        gamma = min(gamma, q.n - 1)
        if mask[gamma] and rng.random() < c * p.probs[gamma] / q.probs[gamma]:
            return SamplerOutcome(gamma, step)
        if rng.random() < bottom:
            return SamplerOutcome(None, step)
    raise RuntimeError(
        f"rejection sampler did not stop within {max_steps} steps; "
        f"per-step stop probability is {c:.3g}"
    )


@lru_cache(maxsize=None)
def _max_load_below(n: int, r: int) -> int:
    """Number of functions [n]->[n] in which every value has < r preimages."""
    # distribute n balls over n bins, all loads <= r-1, counting ordered placements
    dp = {n: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for balls, ways in dp.items():
            for take in range(0, min(r - 1, balls) + 1):
                key = balls - take
                nxt[key] = nxt.get(key, 0) + ways * math.comb(balls, take)
        dp = nxt
    return dp.get(0, 0)


def c_star_threshold(n: int) -> int:
    """Smallest certified r with Pr[uniform f is r-non-injective] <= 1/(2n^2).

    Exact max-load counting for n <= 12 gives the true minimum; beyond that
    the union bound n*C(n,r)/n^r certifies the probability, which can only
    overshoot r by a little (safe direction for the escape threshold).
    """
    if n < 2:
        raise ValueError("threshold needs n >= 2")
    r = 1
    while True:
        if n <= 12:
            bad = n ** n - _max_load_below(n, r)
            ok = 2 * n * n * bad <= n ** n
        else:
            ok = 2 * n ** 3 * math.comb(n, r) <= n ** r
        if ok:
            return r
        r += 1
