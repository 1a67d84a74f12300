"""One workload in one fresh process: set up, warm up, run the timed loop.

Run by `run.py`, which reads the `ready` line to time set-up and the last
line, a JSON object, for the result.  Load is a closed loop in one thread:
the next instance starts only after the previous one has finished and been
checked.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--probe] [--spans FILE]

`--probe` stops after the `ready` line (a set-up-time sample).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np
import scipy

import chasebench
from chasebench.util import derive_rng
from tracing import INSTANCE, NullTracer, Tracer, site_stats, write_spans
from workloads import COUNTERS, LAYERS, SITES, STREAM_ALGS, WORKLOADS, is_max_counter

THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_PATH = 2000
TAIL_PCT = 90  # percentile of per-position median latency reported as latency_tail_ms


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAP_VARS},
    }


def _digest(per_instance: list[dict]) -> str:
    text = json.dumps([sorted(c.items()) for c in per_instance])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Prepared inputs of one workload and seed, ready for instances."""

    def __init__(self, name: str, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.inputs = self.spec.prepare(seed)

    def instance(self, i: int, shape, tracer, counts: dict, rng=None) -> bool:
        if rng is None:
            rng = derive_rng(self.seed, self.spec.wid, i)
        tracer.begin_instance(i)
        try:
            return bool(self.spec.run(self.inputs, shape, rng, tracer, counts))
        finally:
            tracer.end_instance()

    def warm_up(self) -> None:
        rng = derive_rng(self.seed, WARMUP_PATH + self.spec.wid)
        self.instance(-1, self.inputs.warmup, NullTracer(), {}, rng)

    def timed(self, seconds: float, traced: bool, max_instances: int | None = None) -> dict:
        """Cycle through the workload's batch of positions until `seconds` pass.

        Every execution of a position gets the same inputs, so the median of
        its latencies is its typical cost, whatever other work on the machine
        slowed single executions.  Metrics come from these per-position
        medians; counters come from each position's first execution, and
        every later execution must reproduce them exactly.
        """
        spec = self.spec
        tracer = Tracer() if traced else NullTracer()
        latencies: list[list[int]] = []  # every latency (ns) of each position
        first: list[dict] = []  # counts of each position's first execution
        totals = dict.fromkeys(COUNTERS, 0)
        executions = failed = 0
        repeat_ok = True
        first_error = None
        gc.collect()
        start = pass_start = perf_counter()
        pass_span = 0  # index of the first span of the current pass
        deadline = start + seconds
        # every position runs at least once, even past the deadline
        while ((executions < spec.batch or perf_counter() < deadline)
               and (max_instances is None or executions < max_instances)):
            pos = executions % spec.batch
            if pos == 0:
                pass_start, pass_span = perf_counter(), len(tracer.spans) if traced else 0
            counts: dict = {}
            t0 = perf_counter_ns()
            try:
                ok = self.instance(pos, self.inputs.shape(pos), tracer, counts)
            except Exception:  # a crash in the program is a failed instance
                ok = False
                first_error = first_error or traceback.format_exc()
            latency = perf_counter_ns() - t0
            executions += 1
            failed += not ok
            if pos == len(latencies):
                latencies.append([latency])
                first.append(counts)
                for key, value in counts.items():
                    totals[key] = max(totals[key], value) if is_max_counter(key) else totals[key] + value
            else:
                latencies[pos].append(latency)
                repeat_ok &= counts == first[pos]
        elapsed = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # exact-count check: rerun the first positions with tracing flipped
        checked = first[: spec.repeat]
        other = NullTracer() if traced else Tracer()
        for pos, counts in enumerate(checked):
            again: dict = {}
            try:
                self.instance(pos, self.inputs.shape(pos), other, again)
            except Exception:  # already counted as a failure in the loop
                again = None
            repeat_ok &= again == counts

        typical_ms = sorted(statistics.median(v) / 1e6 for v in latencies)
        tail = _percentile(typical_ms, TAIL_PCT)
        result = {
            "workload": spec.name,
            "seed": self.seed,
            "trace": int(traced),
            "seconds": seconds,
            "attempted": executions,
            "failed": failed,
            "first_error": first_error,
            "elapsed_s": elapsed,
            "positions": len(latencies),
            "executions_per_position": executions / len(latencies),
            "instances_per_s": len(latencies) / (sum(typical_ms) / 1e3),
            "latency_p50_ms": statistics.median(typical_ms),
            "latency_tail_ms": tail,
            "tail_pct": TAIL_PCT,
            "samples_beyond_tail": sum(x > tail for x in typical_ms),
            # a cache that rewards repeated inputs would open a gap here
            "first_execution_p50_ms": statistics.median(v[0] for v in latencies) / 1e6,
            "peak_rss_mb": peak_rss_mb,
            "counters": totals,
            "repeat_check": {"positions": len(checked), "digest": _digest(first), "ok": repeat_ok},
        }
        if traced:
            # per-layer figures are per pass of the batch, like the counters:
            # they cover the complete passes only, and divide by their number
            passes = executions // spec.batch
            spans, wall = tracer.spans, elapsed
            if passes and executions % spec.batch:
                spans, wall = spans[:pass_span], pass_start - start
            result.update(_trace_summary(spans, wall, totals, max(1, passes)))
            result["spans"] = spans
        return result


def _percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[rank - 1]


def _trace_summary(spans: list[list], wall_s: float, counters: dict, passes: int) -> dict:
    """Per-layer values, per pass of the batch, from the spans of `passes` passes."""
    stats = site_stats(spans)
    sites = {site: stats.get(site, {"calls": 0, "self_s": 0.0, "p50_us": 0.0}) for site in SITES}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for site, s in sites.items():
        layer_self[site.split(".", 1)[0]] += s["self_s"]
    share = {layer: v / wall_s for layer, v in layer_self.items()}
    coverage = sum(layer_self.values()) / wall_s

    values = {}
    for site, s in sites.items():
        values[f"{site}.calls"] = s["calls"] / passes
        values[f"{site}.self_s"] = s["self_s"] / passes
        values[f"{site}.p50_us"] = s["p50_us"]
    values.update((k, v) for k, v in counters.items() if not k.startswith("reduction."))
    for alg in STREAM_ALGS:
        busy = values[f"streaming.run_streaming.{alg}.self_s"]
        values[f"streaming.{alg}.edges_per_s"] = (
            counters[f"streaming.{alg}.edges_observed"] / busy if busy else 0.0
        )
    reduced, zeros = counters["reduction.instances"], counters["reduction.zero_instances"]
    values["reduction.shortcircuit_ratio"] = (
        counters["reduction.shortcircuits"] / reduced if reduced else 0.0
    )
    values["reduction.false_intersection_ratio"] = (
        counters["reduction.false_intersections"] / zeros if zeros else 0.0
    )
    values["reduction.zero_instances"] = zeros
    values.update({f"{layer}.self_share": v for layer, v in share.items()})
    values["trace.coverage"] = coverage
    values["trace.passes"] = passes
    return {
        "layer_self_s": layer_self,
        "layer_share": share,
        "coverage": coverage,
        "benchmark_self_share": stats.get(INSTANCE, {"self_s": 0.0})["self_s"] / wall_s,
        "per_layer": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(chasebench.__file__).resolve().parent.parent != src:
        print(f"chasebench imported from {chasebench.__file__}, not {src}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    runner.warm_up()
    gc.collect()
    print("ready", flush=True)
    if args.probe:
        return 0
    result = runner.timed(args.seconds, bool(args.trace))
    spans = result.pop("spans", None)
    if args.spans and spans is not None:
        write_spans(args.spans, spans)
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
