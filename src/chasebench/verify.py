"""Self-check suites with CSV reporting.

Each suite re-validates one module's documented properties at desk scale
and returns one row per check.  All randomness is derived from the caller's
seed, so reruns are byte-identical; the CLI turns any failed row into a
nonzero exit code.

The public check functions return raw measurements; the suites run them
at desk trial counts and the acceptance tests at their own seeds and bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import gadgets, games, info, oracles, protocols, reduction, streaming
from .util import derive_rng

__all__ = ["CheckResult", "SUITES", "run_suite", "to_csv"]

Value = Union[int, float, str]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    measured: Value
    threshold: str
    passed: bool


def _fmt(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def to_csv(results: Sequence[CheckResult]) -> str:
    lines = ["suite,check,measured,threshold,passed"]
    for r in results:
        lines.append(
            f"{r.suite},{r.check},{_fmt(r.measured)},{r.threshold},"
            + ("true" if r.passed else "false")
        )
    return "\n".join(lines) + "\n"


def tilted(n: int, delta: float) -> info.FiniteDistribution:
    """Distribution on [n] with entropy exactly log2(n) - delta (bisected)."""
    target = math.log2(n) - delta

    def probs_at(s: float) -> np.ndarray:
        p0 = 1.0 / n + s
        probs = np.full(n, (1.0 - p0) / (n - 1))
        probs[0] = p0
        return probs

    lo, hi = 0.0, 1.0 - 1.0 / n - 1e-12
    for _ in range(200):
        mid = (lo + hi) / 2
        # a midpoint that rounds onto an end leaves the bracket as it is or
        # closes it, and then every later step repeats this one
        last = mid in (lo, hi)
        p = probs_at(mid)
        p = p[p > 0]  # info.entropy's expression, without building a distribution
        if -(p * np.log2(p)).sum() > target:
            lo = mid
        else:
            hi = mid
        if last:
            break
    return info.FiniteDistribution(probs_at(lo))


def _random_dist(n: int, rng: np.random.Generator) -> info.FiniteDistribution:
    w = rng.random(n) + 1e-12
    return info.FiniteDistribution(w / w.sum())


# ---------------------------------------------------------------- info suite


def collision_violations(delta: float) -> int:
    """Tilted pairs at n = 4, 16, 64 outside the collision bounds or their gate."""
    bad = 0
    for n in (4, 16, 64):
        rep = info.collision_bounds_check(tilted(n, delta), tilted(n, delta * 0.5), delta)
        bad += not (rep.applicable and rep.collision_holds and rep.distinct_holds)
    return bad


def almost_uniform_violations(rng: np.random.Generator, trials: int) -> tuple[int, int]:
    """(applicable, violations) of the hitting bound on random tilts and sets."""
    applicable = bad = 0
    for _ in range(trials):
        n = int(rng.integers(8, 65))
        gate = float(rng.random() * 1e-3)
        d = tilted(n, gate * rng.random())
        size = int(rng.integers(max(1, n // 2), n + 1))
        rep = info.check_almost_uniform(d, rng.choice(n, size=size, replace=False), gate)
        if rep.applicable:
            applicable += 1
            bad += not rep.holds
    return applicable, bad


def mixture_violations(
    rng: np.random.Generator,
    trials: int,
    component: Callable[[np.random.Generator], info.FiniteDistribution],
) -> int:
    """Random two-`component` mixtures breaking the mixture-entropy bound."""
    bad = 0
    for _ in range(trials):
        x0 = component(rng)
        x1 = component(rng)
        y0 = float(rng.random())
        y = info.FiniteDistribution(np.array([y0, 1.0 - y0]))
        bad += not info.mixture_entropy_check(x0, x1, y).holds
    return bad


def good_set_mass_margin(
    rng: np.random.Generator,
    trials: int,
    draw: Callable[[np.random.Generator], tuple],
) -> float:
    """Smallest good-set p-mass minus (1 - eps) over `trials` drawn (p, q, eps)."""
    margin = math.inf
    for _ in range(trials):
        p, q, eps = draw(rng)
        mass = sum(float(p.probs[i]) for i in info.good_set(p, q, eps))
        margin = min(margin, mass - (1.0 - eps))
    return margin


def starved_pair() -> tuple[info.FiniteDistribution, info.FiniteDistribution, float]:
    """8-atom (p, q, eps) with q starving p's heavy atom: a proper good set."""
    pp = np.full(8, 0.1)
    pp[0] = 0.3
    qq = np.full(8, (1.0 - 0.004) / 7)
    qq[0] = 0.004
    return info.FiniteDistribution(pp), info.FiniteDistribution(qq), 0.9


def rejection_draws(rng: np.random.Generator, draws: int, p, q, eps: float) -> tuple:
    """Per-value counts, bottom outcomes and per-draw steps of the sampler."""
    outs = [info.rejection_sample(p, q, eps, rng) for _ in range(draws)]
    taken = [out.value for out in outs if out.value is not None]
    steps = np.array([out.steps for out in outs], dtype=np.int64)
    return np.bincount(taken, minlength=p.n), draws - len(taken), steps


def c_star_rate(rng: np.random.Generator, n: int, samples: int) -> tuple[float, float]:
    """Share of `samples` uniform functions on [0, n) that are
    c_star_threshold(n)-non-injective, and its cap: 1/(2n^2) plus 3 sigma.

    The functions are the rows of one (samples, n) draw, the same values as
    `samples` calls of games.sample_uniform_function(n, rng).  In a sorted
    row, some value has r preimages iff two entries r-1 apart are equal.
    """
    r = info.c_star_threshold(n)
    f = np.sort(rng.integers(0, n, size=(samples, n)), axis=1)
    rate = np.count_nonzero((f[:, r - 1:] == f[:, :n - r + 1]).any(axis=1)) / samples
    cap = 1.0 / (2 * n * n)
    return rate, cap + 3 * math.sqrt(cap * (1 - cap) / samples)


def _suite_info(seed: int, trials: Optional[int]) -> list[CheckResult]:
    t = 2000 if trials is None else trials
    rows: list[CheckResult] = []

    def add(check: str, measured: Value, threshold: str, passed: bool):
        rows.append(CheckResult("info", check, measured, threshold, passed))

    h16 = info.entropy(info.FiniteDistribution.uniform(16))
    add("entropy-uniform-16", h16, "=4", abs(h16 - 4.0) <= 1e-12)

    rng = derive_rng(seed, 0, 1)
    p = _random_dist(12, rng)
    add("kl-self-zero", info.kl_divergence(p, p), "<=1e-12", info.kl_divergence(p, p) <= 1e-12)

    rng = derive_rng(seed, 0, 2)
    marg = _random_dist(8, rng)
    diag = np.diag(marg.probs)
    mi_gap = abs(info.mutual_information(diag) - info.entropy(marg))
    add("mi-correlated-equals-entropy", mi_gap, "<=1e-9", mi_gap <= 1e-9)

    rng = derive_rng(seed, 0, 3)
    worst = 0.0
    for _ in range(min(t, 500)):
        j = rng.random((8, 8)) + 1e-12
        j /= j.sum()
        hx = info.entropy(info.FiniteDistribution(j.sum(axis=1)))
        hy = info.entropy(info.FiniteDistribution(j.sum(axis=0)))
        hxy = float(-(j * np.log2(j)).sum())
        worst = max(worst, abs(info.mutual_information(j) - (hx + hy - hxy)))
    add("mi-additivity-gap", worst, "<=1e-9", worst <= 1e-9)

    checked, bad = almost_uniform_violations(derive_rng(seed, 0, 4), min(t, 1000))
    add("almost-uniform-violations", bad, "=0", bad == 0 and checked > 0)

    col_bad = collision_violations(48.0 ** -2)
    add("collision-bounds-violations", col_bad, "=0", col_bad == 0)

    mix_bad = mixture_violations(
        derive_rng(seed, 0, 5), min(t, 2000), lambda rng: _random_dist(6, rng)
    )
    add("mixture-entropy-violations", mix_bad, "=0", mix_bad == 0)

    min_margin = good_set_mass_margin(
        derive_rng(seed, 0, 6),
        min(t, 500),
        lambda rng: (_random_dist(10, rng), _random_dist(10, rng), float(rng.uniform(0.2, 0.9))),
    )
    add("good-set-mass-margin", min_margin, ">=0", min_margin >= -1e-12)

    p8, q8, eps8 = starved_pair()
    c8 = 2.0 ** (-(info.kl_divergence(p8, q8) + 1.0) / eps8)
    good8 = info.good_set(p8, q8, eps8)
    draws = 6000
    counts, _, steps = rejection_draws(derive_rng(seed, 0, 7), draws, p8, q8, eps8)
    expected = np.array([p8.probs[i] if i in good8 else 0.0 for i in range(8)])
    expected /= expected.sum()
    accepted = counts.sum()
    tv = 0.5 * float(np.abs(counts / accepted - expected).sum())
    add("sampler-law-tv", tv, "<=0.05", tv <= 0.05)
    mean_steps = float(np.mean(steps))
    sigma = math.sqrt((1 - c8) / c8 ** 2 / draws)
    bound = 1.0 / c8 + 3 * sigma
    add("sampler-mean-steps", mean_steps, f"<={bound:.6g}", mean_steps <= bound)

    rate, cap = c_star_rate(derive_rng(seed, 0, 8), 16, min(t, 2000))
    add("c-star-rate-16", rate, f"<={cap:.6g}", rate <= cap)
    return rows


# ----------------------------------------------------------- protocol suite


def protocol_errors(inst: games.IntersectScInstance) -> tuple[int, int, int, int, int]:
    """Answer mismatches of both protocols, then 0/1 flags: forward rounds,
    forward set bits, reverse rounds, reverse bit bound."""
    n, p = inst.n, inst.p
    truth = games.eval_intersect_sc(inst)
    fwd, ftr = protocols.forward_sc_protocol(inst)
    rev, rtr = protocols.reverse_order_sc_protocol(inst)
    return (
        (fwd != truth) + (rev != truth),
        int(ftr.rounds != p),
        int(protocols.set_message_bits(ftr, n) != 2 * p * n),
        int(rtr.rounds != 1),
        int(rtr.total_bits > 2 * p * (n + 1)),
    )


def _suite_protocols(seed: int, trials: Optional[int]) -> list[CheckResult]:
    t = 1500 if trials is None else trials
    totals = [0] * 5
    rng = derive_rng(seed, 1, 0)
    for _ in range(t):
        n = int(rng.integers(4, 17))
        p = int(rng.integers(1, 4))
        inst = games.sample_intersect_sc(n, p, rng, include_prob=float(rng.uniform(0.1, 0.6)))
        totals = [a + b for a, b in zip(totals, protocol_errors(inst))]
    names = (
        "answer-mismatches",
        "forward-round-count-errors",
        "forward-set-bit-errors",
        "reverse-round-count-errors",
        "reverse-bit-bound-errors",
    )
    return [CheckResult("protocols", name, bad, "=0", bad == 0) for name, bad in zip(names, totals)]


# ---------------------------------------------------------- reduction suite


def completeness_failures(rng: np.random.Generator, trials: int, n: int, p: int, t: int) -> int:
    """Reductions of forced-1 OR instances (r-non-injective ones redrawn,
    feasibility gate off) whose final sets miss each other."""
    r = info.c_star_threshold(n)
    failures = done = 0
    while done < trials:
        inst = games.sample_uniform_or_lpce(n, p, r, t, rng)
        items = list(inst.items)
        j = int(rng.integers(t))
        items[j] = games.force_equal(items[j])
        inst = games.OrLpceInstance(t, tuple(items))
        if reduction._find_non_injective(inst) is not None:
            continue
        reduced = reduction.reduce_or_lpce(inst, rng, check_feasible=False)
        assert not isinstance(reduced, reduction.ShortCircuit)
        failures += games.eval_intersect_sc(reduced) != 1
        done += 1
    return failures


def soundness_sizes(rng: np.random.Generator, trials: int, n: int, p: int, t: int) -> np.ndarray:
    """Final intersection sizes after reducing OR-0 instances; > 0 is false."""
    r = info.c_star_threshold(n)
    sizes = np.zeros(trials, dtype=np.int64)
    done = 0
    while done < trials:
        inst = games.sample_uniform_or_lpce(n, p, r, t, rng)
        if games.eval_or_lpce(inst) != 0:
            continue
        reduced = reduction.reduce_or_lpce(inst, rng)
        assert not isinstance(reduced, reduction.ShortCircuit)
        sizes[done] = len(games.eval_sc(reduced.left) & games.eval_sc(reduced.right))
        done += 1
    return sizes


def _suite_reduction(seed: int, trials: Optional[int]) -> list[CheckResult]:
    rows: list[CheckResult] = []

    comp_trials = 300 if trials is None else trials
    failures = completeness_failures(derive_rng(seed, 2, 0), comp_trials, 64, 2, 2)
    rows.append(CheckResult("reduction", "completeness-failures", failures, "=0", failures == 0))

    n, p, tt = 256, 1, 5
    r = info.c_star_threshold(n)
    snd_trials = 500 if trials is None else trials
    bound = tt ** (2 * p) * r ** (p - 1) / n
    sizes = soundness_sizes(derive_rng(seed, 2, 1), snd_trials, n, p, tt)
    rate = int((sizes > 0).sum()) / snd_trials
    sigma = math.sqrt(bound * (1 - bound) / snd_trials)
    cap = bound + 3 * sigma
    rows.append(
        CheckResult("reduction", "soundness-false-rate", rate, f"<={cap:.6g}", rate <= cap)
    )

    rng = derive_rng(seed, 2, 2)
    rt_bad = 0
    for _ in range(200):
        item = games.sample_uniform_lpce(8, 2, 3, rng)
        fam = reduction.sample_permutation_family(8, 2, 1, rng)
        left, right = reduction.scramble(item, 0, fam)
        back_item = games.LpceInstance(
            games.PcInstance(8, 2, left), games.PcInstance(8, 2, right), item.r
        )
        back_l, back_r = reduction.scramble(back_item, 0, fam.inverse())
        rt_bad += back_l != item.left.funcs or back_r != item.right.funcs
    rows.append(CheckResult("reduction", "scramble-inverse-errors", rt_bad, "=0", rt_bad == 0))

    width = reduction.choose_params(2 ** 20, 1, 10).t
    rows.append(CheckResult("reduction", "schedule-width-example", width, "=102", width == 102))

    const = games.FunctionTable.constant(16, 0)
    ident = games.FunctionTable.identity(16)
    item = games.LpceInstance(
        games.PcInstance(16, 1, (const,)), games.PcInstance(16, 1, (ident,)), 4
    )
    out = reduction.reduce_or_lpce(
        games.OrLpceInstance(1, (item,)), derive_rng(seed, 2, 3), check_feasible=False
    )
    is_sc = isinstance(out, reduction.ShortCircuit) and out.answer == 1
    rows.append(CheckResult("reduction", "shortcircuit-on-non-injective", int(is_sc), "=1", is_sc))
    return rows


# ------------------------------------------------------------ gadget suite


def vertex_count_errors(*prefix: int) -> list[tuple[int, int, str, int]]:
    """(p, k, gadget, nv) for each wrong vertex count; shape (p, k) is
    sampled at depth p + 1 from derive_rng(*prefix, p, k)."""
    bad = []
    for p in (1, 2, 3):
        for k in (2, 4, 8):
            inst = games.sample_intersect_sc(k, p + 1, derive_rng(*prefix, p, k))
            for name, build, want in (
                ("distance", gadgets.build_distance_gadget, (2 * p + 3) * k),
                ("reach", gadgets.build_reachability_gadget, (2 * p + 3) * k),
                ("matching", gadgets.build_matching_gadget, k * (4 * p + 6) - 2),
            ):
                nv = build(inst).nv
                if nv != want:
                    bad.append((p, k, name, nv))
    return bad


def gadget_mismatches(inst: games.IntersectScInstance) -> tuple[int, float, tuple]:
    """Gadget oracles disagreeing with the set chase (0-3), the distance-gadget
    distance, and the (distance, reach, matching) gadgets."""
    truth = games.eval_intersect_sc(inst)
    dist = gadgets.build_distance_gadget(inst)
    reach = gadgets.build_reachability_gadget(inst)
    match = gadgets.build_matching_gadget(inst)
    d = oracles.oracle_distance(dist)
    mismatches = (
        ((d <= 2 * inst.p) != bool(truth))
        + (oracles.oracle_reachable(reach) != truth)
        + (oracles.oracle_perfect_matching(match) != truth)
    )
    return int(mismatches), d, (dist, reach, match)


def _suite_gadgets(seed: int, trials: Optional[int]) -> list[CheckResult]:
    rows: list[CheckResult] = []

    nv_bad = len(vertex_count_errors(seed, 3, 0))
    rows.append(CheckResult("gadgets", "vertex-count-errors", nv_bad, "=0", nv_bad == 0))

    t = 200 if trials is None else trials
    rng = derive_rng(seed, 3, 1)
    mism = 0
    floor_bad = 0
    bip_bad = 0
    rt_bad = 0
    ne_bad = 0
    for _ in range(t):
        k = int(rng.integers(2, 9))
        depth = int(rng.integers(1, 4))
        inst = games.sample_intersect_sc(k, depth, rng, include_prob=float(rng.uniform(0.1, 0.5)))
        m, d, (dist, reach, match) = gadget_mismatches(inst)
        mism += m
        floor_bad += d < 2 * depth
        try:
            oracles.two_color(match)
        except ValueError:
            bip_bad += 1
        for g in (dist, reach, match):
            rt_bad += gadgets.parse_stream(gadgets.serialize_stream(g)) != g
        ne_bad += dist.ne != sum(tab.total_image_size() for tab in inst.tables())
    rows.append(CheckResult("gadgets", "oracle-mismatches", mism, "=0", mism == 0))
    rows.append(CheckResult("gadgets", "distance-floor-violations", floor_bad, "=0", floor_bad == 0))
    rows.append(CheckResult("gadgets", "non-bipartite-matching-gadgets", bip_bad, "=0", bip_bad == 0))
    rows.append(CheckResult("gadgets", "roundtrip-errors", rt_bad, "=0", rt_bad == 0))
    rows.append(CheckResult("gadgets", "edge-count-errors", ne_bad, "=0", ne_bad == 0))
    return rows


# --------------------------------------------------------- streaming suite


def identity_instance(k: int, depth: int) -> games.IntersectScInstance:
    """Both sides chase the singleton {x} -> {x}; the final sets intersect."""
    side = games.ScInstance(k, depth, (games.SetFunctionTable.identity(k),) * depth)
    return games.IntersectScInstance(side, side)


def identity_gadget_runs(k: int, depth: int, budget: int) -> dict[str, streaming.RunReport]:
    """Reports of three baselines on the identity gadgets, by algorithm name."""
    inst = identity_instance(k, depth)
    dist = gadgets.build_distance_gadget(inst)
    reach = gadgets.build_reachability_gadget(inst)
    return {
        "bidir-bfs": streaming.run_streaming(streaming.alg_bidirectional_bfs(2 * depth), dist, budget),
        "forward-bfs": streaming.run_streaming(streaming.alg_forward_bfs(2 * depth), dist, budget),
        "directed-frontier": streaming.run_streaming(streaming.alg_directed_frontier(), reach, budget),
    }


def union_find_state(draws_per_vertex: int, budget: int, *prefix: int) -> tuple[float, int]:
    """Union-find on random simple graphs, nv in (16, 64, 256): the worst state
    in nv * ceil(log2 nv) bits, and runs with a wrong answer or pass count."""
    worst, bad = 0.0, 0
    for nv in (16, 64, 256):
        pairs = derive_rng(*prefix, nv).integers(0, nv, size=(draws_per_vertex * nv, 2))
        g = gadgets.GraphStream(nv, False, 0, nv - 1, 1, pairs[pairs[:, 0] != pairs[:, 1]])
        rep = streaming.run_streaming(streaming.alg_union_find(), g, budget)
        worst = max(worst, rep.max_state_bits / (nv * max(1, (nv - 1).bit_length())))
        conn = int(oracles.oracle_distance(g) < math.inf)
        bad += rep.answer != conn or rep.passes_used != 1
    return worst, bad


def _suite_streaming(seed: int, trials: Optional[int]) -> list[CheckResult]:
    rows: list[CheckResult] = []
    runs = identity_gadget_runs(4, 2, 10)
    for check, alg, want in (
        ("bidir-bfs-gadget-passes", "bidir-bfs", 2),
        ("forward-bfs-gadget-passes", "forward-bfs", 4),
        ("frontier-chain-passes", "directed-frontier", 2),
    ):
        rep = runs[alg]
        ok = rep.answer == 1 and rep.passes_used == want
        rows.append(CheckResult("streaming", check, rep.passes_used, f"={want}", ok))

    t = 120 if trials is None else trials
    rng = derive_rng(seed, 4, 0)
    mism = 0
    uf_pass_bad = 0
    rev_bad = 0
    for _ in range(t):
        k = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 4))
        inst = games.sample_intersect_sc(k, depth, rng, include_prob=float(rng.uniform(0.1, 0.5)))
        truth = games.eval_intersect_sc(inst)
        d_g = gadgets.build_distance_gadget(inst)
        r_g = gadgets.build_reachability_gadget(inst)
        budget = 4 * depth + 4
        rep = streaming.run_streaming(streaming.alg_forward_bfs(2 * depth), d_g, budget)
        mism += rep.answer != truth
        rep = streaming.run_streaming(streaming.alg_bidirectional_bfs(2 * depth), d_g, budget)
        mism += rep.answer != truth
        rep = streaming.run_streaming(streaming.alg_directed_frontier(), r_g, d_g.nv + 1)
        mism += rep.answer != truth
        rep = streaming.run_streaming(streaming.alg_union_find(), d_g, 2)
        dist = oracles.oracle_distance(d_g)
        mism += rep.answer != int(dist < math.inf)
        uf_pass_bad += rep.passes_used != 1
        rev_bad += oracles.oracle_reachable(gadgets.reverse_stream(r_g)) != oracles.oracle_reachable(r_g)
        rev_bad += oracles.oracle_distance(gadgets.reverse_stream(d_g)) != dist
    rows.append(CheckResult("streaming", "answer-mismatches", mism, "=0", mism == 0))
    rows.append(CheckResult("streaming", "union-find-pass-errors", uf_pass_bad, "=0", uf_pass_bad == 0))
    rows.append(CheckResult("streaming", "reversal-oracle-changes", rev_bad, "=0", rev_bad == 0))

    worst, uf_bad = union_find_state(3, 2, seed, 4, 1)
    ok = worst <= 2.0 and uf_bad == 0
    rows.append(CheckResult("streaming", "union-find-state-ratio", worst, "<=2", ok))
    return rows


SUITES: dict[str, Callable[[int, Optional[int]], list[CheckResult]]] = {
    "info": _suite_info,
    "protocols": _suite_protocols,
    "reduction": _suite_reduction,
    "gadgets": _suite_gadgets,
    "streaming": _suite_streaming,
}


def run_suite(name: str, seed: int, trials: Optional[int] = None) -> list[CheckResult]:
    """Run one named suite, or all of them in SUITES order; `trials` >= 1
    replaces the suites' default trial counts."""
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if name == "all":
        out: list[CheckResult] = []
        for suite in SUITES.values():
            out.extend(suite(seed, trials))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed, trials)
