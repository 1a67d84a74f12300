"""The benchmark's four workloads: inputs, per-instance pipelines and checks.

Each workload prepares its inputs from the seed before the timed loop
(shape parameters, and any input chasebench does not sample itself), then
runs one instance at a time.  An instance calls chasebench's public
functions through the tracer, checks every answer against the evaluator
or a reference computed here, checks every round trip for equality, and
adds exact counts to a per-instance dict.  It returns True when every
check held.

Functions are looked up on their modules at call time, so a test can
replace one with a faulty version and see the checks catch it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chasebench import gadgets, gameio, games, info, oracles, protocols, reduction, streaming
from chasebench.util import derive_rng

STREAM_ALGS = ("bidir-bfs", "forward-bfs", "union-find", "directed-frontier")

SITES = (
    "games.sample_intersect_sc",
    "games.sample_uniform_or_lpce",
    "games.force_equal",
    "games.eval_intersect_sc",
    "games.eval_or_lpce",
    "gameio.serialize_game",
    "gameio.parse_game",
    "reduction.reduce_or_lpce",
    "protocols.forward_sc_protocol",
    "protocols.reverse_order_sc_protocol",
    "gadgets.build_distance_gadget",
    "gadgets.build_reachability_gadget",
    "gadgets.build_matching_gadget",
    "gadgets.serialize_stream",
    "gadgets.parse_stream",
    "gadgets.reverse_stream",
    "oracles.oracle_distance",
    "oracles.oracle_reachable",
    "oracles.oracle_perfect_matching",
    *(f"streaming.run_streaming.{alg}" for alg in STREAM_ALGS),
    "info.rejection_sample",
    "info.good_set",
    "info.mixture_entropy_check",
    "info.check_almost_uniform",
)
LAYERS = ("games", "gameio", "reduction", "protocols", "gadgets", "oracles", "streaming", "info")

# exact per-instance counts; `max_state_bits` aggregates by max, the rest by sum
COUNTERS = (
    "gadgets.edges",
    "gadgets.stream_bytes",
    "gameio.bytes",
    *(f"streaming.{alg}.{key}" for alg in STREAM_ALGS
      for key in ("edges_observed", "passes", "max_state_bits")),
    "protocols.total_bits",
    "reduction.instances",
    "reduction.shortcircuits",
    "reduction.zero_instances",
    "reduction.false_intersections",
    "info.rejection_steps",
)


def is_max_counter(name: str) -> bool:
    return name.endswith(".max_state_bits")


@dataclass(frozen=True)
class Workload:
    """prepare(seed) returns inputs with .shape(i) and .warmup; run(inputs,
    shape, rng, tracer, counts) runs one instance and returns whether its
    checks held."""

    name: str
    wid: int
    prepare: Callable
    run: Callable
    batch: int  # positions cycled through; each keeps its inputs on every pass
    repeat: int  # positions re-run with tracing flipped for the exact-count check


class _Shapes:
    """(k, depth, include_prob) per instance, kept as arrays until asked for."""

    def __init__(self, ks, depths, probs, warmup):
        self._cols = (ks, depths, probs)
        self.warmup = warmup

    def shape(self, i: int):
        ks, depths, probs = self._cols
        return (int(ks[i]), int(depths[i]), float(probs[i]))


# --------------------------------------------------------- shared steps


def _bump(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + int(value)


def _game_round_trip(inst, t, c) -> bool:
    text = t.call("gameio.serialize_game", gameio.serialize_game, inst)
    _bump(c, "gameio.bytes", len(text))
    return t.call("gameio.parse_game", gameio.parse_game, text) == inst


def _protocols(inst, truth: int, t, c) -> bool:
    ok = True
    for site, solve in (
        ("protocols.forward_sc_protocol", protocols.forward_sc_protocol),
        ("protocols.reverse_order_sc_protocol", protocols.reverse_order_sc_protocol),
    ):
        answer, transcript = t.call(site, solve, inst)
        _bump(c, "protocols.total_bits", transcript.total_bits)
        ok &= answer == truth
    return ok


def _gadgets_and_oracles(inst, truth: int, t, c):
    """Build the three gadgets, round-trip each stream, ask the oracles."""
    dist_g = t.call("gadgets.build_distance_gadget", gadgets.build_distance_gadget, inst)
    reach_g = t.call("gadgets.build_reachability_gadget", gadgets.build_reachability_gadget, inst)
    match_g = t.call("gadgets.build_matching_gadget", gadgets.build_matching_gadget, inst)
    ok = True
    for g in (dist_g, reach_g, match_g):
        text = t.call("gadgets.serialize_stream", gadgets.serialize_stream, g)
        ok &= t.call("gadgets.parse_stream", gadgets.parse_stream, text) == g
        _bump(c, "gadgets.edges", g.ne)
        _bump(c, "gadgets.stream_bytes", len(text))
    dist = t.call("oracles.oracle_distance", oracles.oracle_distance, dist_g)
    ok &= int(dist <= 2 * inst.p) == truth
    ok &= t.call("oracles.oracle_reachable", oracles.oracle_reachable, reach_g) == truth
    ok &= t.call("oracles.oracle_perfect_matching", oracles.oracle_perfect_matching, match_g) == truth
    return ok, dist_g, reach_g, dist


# ---------------------------------------------------------- gadget-small


_SMALL_BATCH = 135  # 3 of each of the 45 (k, depth) pairs


def _prepare_gadget_small(seed: int) -> _Shapes:
    # the criterion-03 random tier, k in [2, 16], depth in [2, 4] and
    # include_prob in U(0.05, 0.5), stratified so that every seed's batch
    # holds each (k, depth) pair once in each third of include_prob's
    # range: batches of different seeds then cost about the same
    rng = derive_rng(seed, 1001)
    pairs = np.array([(k, d) for k in range(2, 17) for d in range(2, 5)])
    reps = _SMALL_BATCH // len(pairs)
    cells = rng.permutation(_SMALL_BATCH)  # cell c: pair c // reps, third c % reps
    ks, depths = pairs[cells // reps].T
    probs = 0.05 + 0.45 * (cells % reps + rng.random(_SMALL_BATCH)) / reps
    return _Shapes(ks, depths, probs, (16, 4, 0.5))


def _run_gadget_small(inputs, shape, rng, t, c) -> bool:
    k, depth, prob = shape
    inst = t.call("games.sample_intersect_sc", games.sample_intersect_sc, k, depth, rng,
                  include_prob=prob)
    truth = t.call("games.eval_intersect_sc", games.eval_intersect_sc, inst)
    ok = _game_round_trip(inst, t, c)
    ok &= _gadgets_and_oracles(inst, truth, t, c)[0]
    ok &= _protocols(inst, truth, t, c)
    return ok


# ---------------------------------------------------------- reduce-n4096

_REDUCE_N, _REDUCE_P, _REDUCE_T = 4096, 2, 2


@dataclass(frozen=True)
class _ReduceInputs:
    r: int
    warmup: tuple

    def shape(self, i: int):
        # odd instances are forced to answer 1 (the criterion-01 case)
        return (i % 2 == 1,)


def _prepare_reduce(seed: int) -> _ReduceInputs:
    return _ReduceInputs(info.c_star_threshold(_REDUCE_N), (True,))


def _run_reduce(inputs, shape, rng, t, c) -> bool:
    (forced,) = shape
    n, p, tt, r = _REDUCE_N, _REDUCE_P, _REDUCE_T, inputs.r
    inst = t.call("games.sample_uniform_or_lpce", games.sample_uniform_or_lpce, n, p, r, tt, rng)
    if forced:
        items = list(inst.items)
        j = int(rng.integers(tt))
        items[j] = t.call("games.force_equal", games.force_equal, items[j])
        inst = games.OrLpceInstance(tt, tuple(items))
    truth = t.call("games.eval_or_lpce", games.eval_or_lpce, inst)
    ok = truth == 1 or not forced
    out = t.call("reduction.reduce_or_lpce", reduction.reduce_or_lpce, inst, rng)
    _bump(c, "reduction.instances", 1)
    if isinstance(out, reduction.ShortCircuit):
        _bump(c, "reduction.shortcircuits", 1)
        return ok and truth == 1 and out.answer == 1
    answer = t.call("games.eval_intersect_sc", games.eval_intersect_sc, out)
    if truth == 0:
        # soundness is probabilistic: a false intersection is a rate, not a failure
        _bump(c, "reduction.zero_instances", 1)
        _bump(c, "reduction.false_intersections", answer)
    else:
        ok &= answer == 1
    ok &= _protocols(out, answer, t, c)
    return ok


# ----------------------------------------------------------- stream-k400

_STREAM_K, _STREAM_DEPTH = 400, 3
_STRATA = 10


def _prepare_stream(seed: int) -> _Shapes:
    # include_prob log-uniform on [0.005, 0.05], taken at the midpoints of
    # its ten deciles: every seed's batch then has the same size mix, and the
    # seed only changes the sampled tables and their order
    rng = derive_rng(seed, 1003)
    probs = 0.005 * 10.0 ** ((rng.permutation(_STRATA) + 0.5) / _STRATA)
    return _Shapes(np.full(_STRATA, _STREAM_K), np.full(_STRATA, _STREAM_DEPTH), probs,
                   (16, _STREAM_DEPTH, 0.3))


def _stream_runs(alg: str, stream, depth: int):
    if alg in ("bidir-bfs", "forward-bfs"):
        return streaming.ALGORITHMS[alg](2 * depth), 4 * depth + 4
    if alg == "union-find":
        return streaming.alg_union_find(), 2
    return streaming.alg_directed_frontier(), stream.nv + 1


def _run_stream(inputs, shape, rng, t, c) -> bool:
    k, depth, prob = shape
    inst = t.call("games.sample_intersect_sc", games.sample_intersect_sc, k, depth, rng,
                  include_prob=prob)
    truth = t.call("games.eval_intersect_sc", games.eval_intersect_sc, inst)
    ok = _game_round_trip(inst, t, c)
    gadget_ok, dist_g, reach_g, dist = _gadgets_and_oracles(inst, truth, t, c)
    ok &= gadget_ok
    connected = int(dist < math.inf)
    orders = [(dist_g, reach_g)]
    orders.append(tuple(t.call("gadgets.reverse_stream", gadgets.reverse_stream, g)
                        for g in (dist_g, reach_g)))
    for d_stream, r_stream in orders:
        for alg in STREAM_ALGS:
            stream = r_stream if alg == "directed-frontier" else d_stream
            expect = connected if alg == "union-find" else truth
            algorithm, budget = _stream_runs(alg, stream, depth)
            rep = t.call(f"streaming.run_streaming.{alg}", streaming.run_streaming,
                         algorithm, stream, budget)
            ok &= rep.answer == expect
            _bump(c, f"streaming.{alg}.passes", rep.passes_used)
            _bump(c, f"streaming.{alg}.edges_observed", rep.passes_used * stream.ne)
            key = f"streaming.{alg}.max_state_bits"
            c[key] = max(c.get(key, 0), rep.max_state_bits)
    return ok


# ------------------------------------------------------ info-calibration

_POOL = 256


def _entropy_bits(probs: np.ndarray) -> float:
    nz = probs[probs > 0]
    return float(-(nz * np.log2(nz)).sum())


def _reference_good_set(p: np.ndarray, q: np.ndarray, eps: float) -> frozenset[int]:
    """Atoms with p(x) * 2^(-(D(p||q)+1)/eps) <= q(x), written from the definition."""
    supp = p > 0
    if (q[supp] == 0).any():
        cutoff = 0.0
    else:
        div = float((p[supp] * np.log2(p[supp] / q[supp])).sum())
        cutoff = 2.0 ** (-(div + 1.0) / eps)
    return frozenset(np.flatnonzero(supp & (p * cutoff <= q)).tolist())


def _tilted(ns: np.ndarray, deficits: np.ndarray) -> list[np.ndarray]:
    """One heavy atom per distribution, sized by bisection to an entropy of
    log2(n) - deficit (the criterion-07 construction, vectorized)."""
    lo = np.zeros(ns.size)
    hi = 1.0 - 1.0 / ns - 1e-12
    target = np.log2(ns) - deficits
    for _ in range(100):
        mid = (lo + hi) / 2
        heavy = 1.0 / ns + mid
        rest = (1.0 - heavy) / (ns - 1)
        h = -heavy * np.log2(heavy) - (ns - 1) * rest * np.log2(rest)
        above = h > target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    out = []
    for n, m in zip(ns.tolist(), lo.tolist()):
        probs = np.full(n, (1.0 - 1.0 / n - m) / (n - 1))
        probs[0] = 1.0 / n + m
        out.append(probs)
    return out


@dataclass(frozen=True)
class _InfoInputs:
    starved: tuple  # (p, q, eps, reference good set)
    triples: list  # (p, q, eps, reference good set)
    mixtures: list  # (x0, x1, y, reference mixture entropy)
    tilted: list  # (d, set, gate, reference mass of the set)
    warmup: int = 0

    def shape(self, i: int):
        return i % _POOL


def _prepare_info(seed: int) -> _InfoInputs:
    dist = info.FiniteDistribution
    rng = derive_rng(seed, 1004)
    # the criterion-08 starved pair, E[steps] about 6.9
    p = np.full(8, 0.1)
    p[0] = 0.3
    q = np.full(8, (1.0 - 0.004) / 7)
    q[0] = 0.004
    starved = (dist(p), dist(q), 0.9, _reference_good_set(p, q, 0.9))

    triples = []
    for n in rng.integers(2, 33, size=_POOL).tolist():
        pp, qq = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        eps = float(rng.uniform(0.1, 0.95))
        triples.append((dist(pp), dist(qq), eps, _reference_good_set(pp, qq, eps)))

    mixtures = []
    for _ in range(_POOL):
        x0, x1 = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        y0 = float(rng.random())
        h = _entropy_bits(y0 * x0 + (1.0 - y0) * x1)
        mixtures.append((dist(x0), dist(x1), dist(np.array([y0, 1.0 - y0])), h))

    ns = rng.integers(8, 65, size=_POOL)
    gates = rng.random(_POOL) * 1e-3
    tilted = []
    for n, gate, probs in zip(ns.tolist(), gates.tolist(),
                              _tilted(ns, gates * rng.random(_POOL))):
        members = rng.choice(n, size=int(rng.integers(max(1, n // 2), n + 1)), replace=False)
        tilted.append((dist(probs), members, gate, float(probs[members].sum())))
    return _InfoInputs(starved, triples, mixtures, tilted)


def _run_info(inputs, j, rng, t, c) -> bool:
    p, q, eps, good = inputs.starved
    out = t.call("info.rejection_sample", info.rejection_sample, p, q, eps, rng)
    _bump(c, "info.rejection_steps", out.steps)
    ok = out.value is None or out.value in good

    pp, qq, e, ref = inputs.triples[j]
    ok &= t.call("info.good_set", info.good_set, pp, qq, e) == ref

    x0, x1, y, h = inputs.mixtures[j]
    rep = t.call("info.mixture_entropy_check", info.mixture_entropy_check, x0, x1, y)
    ok &= bool(rep.holds) and abs(rep.mixture_entropy - h) <= 1e-9

    d, members, gate, mass = inputs.tilted[j]
    rep = t.call("info.check_almost_uniform", info.check_almost_uniform, d, members, gate)
    ok &= (not rep.applicable or bool(rep.holds)) and abs(rep.prob_in_set - mass) <= 1e-12
    return ok


# ------------------------------------------------------------- registry


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gadget-small", 1, _prepare_gadget_small, _run_gadget_small,
                 batch=_SMALL_BATCH, repeat=50),
        Workload("reduce-n4096", 2, _prepare_reduce, _run_reduce, batch=100, repeat=20),
        Workload("stream-k400", 3, _prepare_stream, _run_stream, batch=_STRATA, repeat=2),
        Workload("info-calibration", 4, _prepare_info, _run_info, batch=_POOL, repeat=200),
    )
}
