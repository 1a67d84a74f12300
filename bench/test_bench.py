"""Self-tests of the benchmark (not part of the repository's test suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import chasebench.oracles  # noqa: E402
import chasebench.protocols  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, self_times_ns  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_its_checks(name):
    result = Runner(name, 5).timed(60, traced=False, max_instances=3)
    assert result["attempted"] == 3
    assert result["failed"] == 0, result["first_error"]
    assert result["repeat_check"]["ok"]


def test_flipped_answer_makes_failed_fraction_nonzero(monkeypatch):
    real = chasebench.oracles.oracle_reachable
    monkeypatch.setattr(chasebench.oracles, "oracle_reachable", lambda g: 1 - real(g))
    result = Runner("gadget-small", 5).timed(60, traced=False, max_instances=10)
    assert result["failed"] == result["attempted"] == 10


def test_flipped_protocol_answer_fails_reduce(monkeypatch):
    real = chasebench.protocols.forward_sc_protocol

    def flipped(inst):
        answer, transcript = real(inst)
        return 1 - answer, transcript

    monkeypatch.setattr(chasebench.protocols, "forward_sc_protocol", flipped)
    result = Runner("reduce-n4096", 5).timed(60, traced=False, max_instances=4)
    assert result["failed"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_across_runs_and_tracing(name):
    count = 1 if name == "stream-k400" else 12
    untraced = Runner(name, 9).timed(60, traced=False, max_instances=count)
    traced = Runner(name, 9).timed(60, traced=True, max_instances=count)
    assert untraced["counters"] == traced["counters"]
    assert untraced["repeat_check"]["digest"] == traced["repeat_check"]["digest"]
    assert any(untraced["counters"].values())


def test_self_time_subtracts_children():
    spans = [["instance", 0, 100, -1, 0], ["a.f", 10, 30, 0, 0], ["a.g", 40, 90, 0, 0]]
    assert self_times_ns(spans) == [30, 20, 50]


def test_tracer_nests_calls_under_the_instance():
    t = Tracer()
    t.begin_instance(7)
    assert t.call("x.y", lambda v: v + 1, 1) == 2
    t.end_instance()
    (inst, call) = t.spans
    assert call[3] == 0 and call[4] == 7 and inst[1] <= call[1] <= call[2] <= inst[2]


def test_benchmark_json_matches_the_code():
    spec = run.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    result = Runner("info-calibration", 5).timed(60, traced=True, max_instances=3)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(result["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} - {"setup_s"} <= set(result)


def test_per_layer_figures_are_per_complete_pass():
    batch = WORKLOADS["info-calibration"].batch
    result = Runner("info-calibration", 5).timed(60, traced=True, max_instances=2 * batch + 7)
    values = result["per_layer"]
    assert values["trace.passes"] == 2
    assert values["info.good_set.calls"] == batch
    assert values["info.rejection_steps"] == result["counters"]["info.rejection_steps"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gadget-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
