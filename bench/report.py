"""Spread, tracing overhead, coverage and counter checks across runs.

    python3 bench/report.py [--runs 10] [--seconds S] [--first-seed N]
        [--workloads NAME ...] [--out FILE]

For each workload this runs `run.py --trace 0` once per seed (seeds
first-seed, first-seed+1, ...) and `run.py --trace 1` on the first seed,
one process at a time.  It reports, per end-to-end metric, the median and
the quartile spread (q3 - q1) / median over the untraced runs; the tracing
overhead (the traced run's instances_per_s against the untraced median);
coverage (layer self time over timed wall time) and each layer's share;
and whether the exact counters of the traced and untraced runs agree.
The summary is written as JSON (default `.bench_out/report.json`).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import DEFAULT_SEED, OUT, ROOT, benchmark_spec


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run run.py once; return (its result line, its full result file)."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=300).stdout
    line = json.loads(out.strip().splitlines()[-1])
    detail = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, detail


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def report_workload(workload: str, seeds: list[int], seconds: float, metrics: list[str]) -> dict:
    lines, details = zip(*(bench(workload, s, seconds, 0) for s in seeds))
    traced_line, traced = bench(workload, seeds[0], seconds, 1)
    untraced = details[0]
    untraced_rate = statistics.median(d["instances_per_s"] for d in details)
    return {
        "correct": all(ln["correct"] for ln in lines) and traced_line["correct"],
        "failed_fraction": sum(ln["failed"] for ln in lines) / sum(ln["attempted"] for ln in lines),
        "end_to_end": {name: spread([ln["metrics"][name]["value"] for ln in lines])
                       for name in metrics},
        "tail_pct": untraced["tail_pct"],
        "positions": untraced["positions"],
        "min_executions_per_position": min(d["executions_per_position"] for d in details),
        "min_samples_beyond_tail": min(d["samples_beyond_tail"] for d in details),
        "first_execution_p50_ms": statistics.median(d["first_execution_p50_ms"] for d in details),
        "tracing": {
            "untraced_median_instances_per_s": untraced_rate,
            "traced_instances_per_s": traced["instances_per_s"],
            "overhead": 1.0 - traced["instances_per_s"] / untraced_rate,
            "coverage": traced["coverage"],
            "benchmark_self_share": traced["benchmark_self_share"],
            "layer_share": traced["layer_share"],
        },
        "counters": {
            "traced_equals_untraced": traced["repeat_check"]["digest"]
            == untraced["repeat_check"]["digest"],
            "repeat_within_runs": all(d["repeat_check"]["ok"] for d in (*details, traced)),
            "positions_compared": untraced["repeat_check"]["positions"],
        },
        "environment": untraced["environment"],
    }


def main(argv=None) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--out", default=str(OUT / "report.json"))
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")
    seeds = [args.first_seed + i for i in range(args.runs)]

    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        rep = report_workload(workload, seeds, args.seconds,
                              [m["name"] for m in spec["end_to_end"]])
        summary["workloads"][workload] = rep
        ok &= rep["correct"] and all(rep["counters"][k] for k in
                                     ("traced_equals_untraced", "repeat_within_runs"))
        print(f"{workload}: correct={rep['correct']} counters={rep['counters']}")
        for name, s in rep["end_to_end"].items():
            print(f"  {name:16s} median {s['median']:10.4f}  spread {s['spread']:.3f}")
        t = rep["tracing"]
        print(f"  tracing overhead {t['overhead']:.3f}, "
              f"coverage {t['coverage']:.3f}, "
              "shares " + ", ".join(f"{k} {v:.3f}" for k, v in t["layer_share"].items()))
        sys.stdout.flush()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
