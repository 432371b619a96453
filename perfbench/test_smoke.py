"""Smoke test of the benchmark harness at tiny size.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
run.load_package()
import workloads  # noqa: E402

# Every workload, including `parallel`, which BENCHMARK.json does not list.
WORKLOADS = list(workloads.BUILDERS)


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        value = reported["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value) and value >= 0
        assert isinstance(value, float) or abs(value) < 2 ** 53
        assert any(line.startswith("metric ") and line.split()[1] == metric["name"]
                   and line.split()[3] == metric["unit"] for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert any(line.startswith("env: python=") for line in lines)


def traced_pass(workload_name, seed=7):
    from tracing import Tracer

    workload = workloads.build(workload_name, seed, "tiny")
    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    assert run.count_failures(workload.jobs, result.outputs) == 0
    return tracer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_fit_inside_each_job(workload):
    tracer = traced_pass(workload)
    jobs = {s.job: s for s in tracer.spans if s.name == "job"}
    assert jobs
    inner = {job: 0.0 for job in jobs}
    for span in tracer.spans:
        assert span.self_s >= -1e-9
        if span.name != "job":
            inner[span.job] += span.self_s + sum(agg[1] for agg in span.leaves.values())
        else:
            inner[span.job] += sum(agg[1] for agg in span.leaves.values())
    for job, span in jobs.items():
        assert inner[job] <= (span.end - span.start) + 1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_for_a_seed(workload):
    counts = ("expand.words_generated", "algebra.reduce_calls", "permutations.orderings",
              "syntax.parse_calls", "expand.fallbacks", "trace.spans")
    first = traced_pass(workload).layer_metrics()
    second = traced_pass(workload).layer_metrics()
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_self_test_counts_a_corrupted_expected_value():
    workload = workloads.build("fast", 7, "tiny")
    result = run.run_pass(workload)
    assert run.count_failures(workload.jobs, result.outputs) == 0
    assert run.self_test(workload, result.outputs)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
