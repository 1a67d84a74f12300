"""chasebench benchmark: run one workload in fresh processes and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it uses the checkout's `src/`.  With
`--trace 0` the last stdout line carries the end-to-end metrics, taken from
an untraced run; with `--trace 1` it carries the per-layer metrics of a
separate traced run.  The full result (environment, sample counts, layer
shares, exact counters) goes to `.bench_out/` at the checkout root, and
traced runs also write their spans there.

Exit status is 0 when a result was printed, whether or not every check
held (see `correct`); it is nonzero, with no result, when the checkout or
the worker is broken.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 20261017
HELD_OUT_SEED = 8675309

# fresh processes timed from spawn to the first timed instance; the
# reported setup_s is the median over these and the measured run's own
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150



def benchmark_spec() -> dict:
    """BENCHMARK.json: the workload names and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # nproc is 2: keep numpy/scipy to one thread so the loop owns one core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, extra: list[str]) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its `ready` line; returns (setup_s, proc)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return setup, proc


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def run(args) -> dict:
    if not (ROOT / "src" / "chasebench" / "__init__.py").is_file():
        raise RuntimeError(f"no chasebench sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans", str(OUT / f"{stem}.spans.csv")] if args.trace else []

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup, proc = spawn(args, ["--probe"])
            finish(proc)
            setups.append(setup)
    setup, proc = spawn(args, extra)
    setups.append(setup)
    result = json.loads(finish(proc).strip().splitlines()[-1])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    try:
        spec = benchmark_spec()
    except (OSError, ValueError) as exc:
        print(f"benchmark failed: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be non-negative and --seconds positive")
    try:
        result = run(args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    values = result["per_layer"] if args.trace else result
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    correct = result["failed"] == 0 and result["repeat_check"]["ok"]
    if not result["repeat_check"]["ok"]:
        print("exact counters differ between traced and untraced runs of the same instances",
              file=sys.stderr)
    if result["first_error"]:
        print(result["first_error"], file=sys.stderr, end="")
    env = result["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} executions of {result['positions']} positions, "
          f"{result['failed']} failed; tail = p{result['tail_pct']} of per-position median "
          f"({result['samples_beyond_tail']} beyond)")
    print(f"env: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, threads {env['thread_caps']}")
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    else:
        print(f"coverage {result['coverage']:.3f}; layer shares "
              + ", ".join(f"{k} {v:.3f}" for k, v in result["layer_share"].items()))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
