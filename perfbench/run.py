"""Benchmark of nbracket's public functions on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fast --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
runs a traced pass between two untraced ones and reports the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md for the
workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3  # set-ups before the timed passes, and as many after them

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    return parser.parse_args(argv)


def load_package():
    """Import nbracket from this checkout's src/, never from elsewhere."""
    if not (SRC / "nbracket" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nbracket sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nbracket

    if Path(nbracket.__file__).resolve().parent != SRC / "nbracket":
        raise SystemExit(f"perfbench: imported nbracket from {nbracket.__file__}, not {SRC}")


@dataclass
class Pass:
    outputs: list  # (output, exception) per job
    latencies: list
    wall_s: float
    cpu_s: float


def cpu_now():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(workload, tracer=None):
    """Run every job once, timing each; outputs are checked afterwards."""
    outputs = []
    latencies = []
    cpu0 = cpu_now()
    start = perf_counter()
    for job_id, job in enumerate(workload.jobs):
        span = tracer.job(job_id, job.label) if tracer else None
        t0 = perf_counter()
        try:
            output, error = job.call(), None
        except Exception as exc:  # a failed job is counted, not fatal
            output, error = None, exc
        latencies.append(perf_counter() - t0)
        if span is not None:
            tracer.close(span, error and type(error).__name__)
        outputs.append((output, error))
    return Pass(outputs, latencies, perf_counter() - start, cpu_now() - cpu0)


def count_failures(jobs, outputs):
    """Jobs that raised, exited non-zero or gave a wrong answer."""
    failed = 0
    for job, (output, error) in zip(jobs, outputs):
        if error is not None:
            failed += 1
            continue
        try:
            ok = job.check(output, job.expected)
        except Exception:  # unparsable output is a wrong answer
            ok = False
        failed += not ok
    return failed


def self_test(workload, outputs):
    """A corrupted expected value must be counted as a failure."""
    from workloads import corrupt

    job = workload.jobs[0]
    return count_failures([replace(job, expected=corrupt(job.expected))], outputs[:1]) == 1


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, kids


def commit_hash():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "nbracket").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_environment(args):
    nproc = len(os.sched_getaffinity(0))
    print(f"env: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print(f"env: python={platform.python_version()} nproc={nproc} cpu={cpu_model()!r} "
          f"pool_start_method={multiprocessing.get_start_method()}")
    print(f"env: commit={commit_hash()} src_sha256={source_digest()}")
    print(f"env: the pool is measured at {nproc} CPUs; scaling beyond {nproc} workers "
          f"cannot be measured on this host")


def print_metric(name, value, unit, note=""):
    print(f"metric {name:<28} {value:>16.6g} {unit:<8} {note}".rstrip())


def import_s():
    """Seconds a fresh interpreter takes to import this harness and nbracket."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "from time import perf_counter; t0 = perf_counter(); "
            "import run; run.load_package(); import workloads; "
            "print(perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def setup(args, reps):
    """Build inputs and expected answers and warm up, ``reps`` times.

    Each time also counts the imports, measured in a fresh interpreter
    because this one has them cached.
    """
    import workloads

    times = []
    for _ in range(reps):
        imported = import_s()
        t0 = perf_counter()
        workload = workloads.build(args.workload, args.seed, args.size)
        workload.run_warm_up()
        times.append(imported + perf_counter() - t0)
    return workload, times


def end_to_end(args, workload, setup_times):
    passes = max(1, int(args.seconds // workload.nominal_pass_s))
    runs = []
    failed = 0
    self_test_ok = True
    for index in range(passes):
        run = run_pass(workload)
        failed += count_failures(workload.jobs, run.outputs)
        if index == 0:
            self_test_ok = self_test(workload, run.outputs)
        run.outputs = None
        runs.append(run)
    # Set-ups on both sides of the timed passes, so that their median sees
    # the machine at the speed the passes saw.
    setup_times = setup_times + setup(args, SETUP_REPS)[1]
    attempted = passes * len(workload.jobs)
    latencies = [t for run in runs for t in run.latencies]
    wall = statistics.median(run.wall_s for run in runs)
    words = sum(job.words for job in workload.jobs)
    tail_s, tail_pct = tail(latencies)
    own_rss, child_rss = peak_rss_mb()
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "words_per_s": words / wall,
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "cpu_s": statistics.median(run.cpu_s for run in runs),
        "peak_rss_mb": max(own_rss, child_rss),
    }
    n = len(latencies)
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups with imports "
                   f"({', '.join(f'{t:.4f}' for t in setup_times)} s)",
        "wall_s": f"median of {passes} passes of {len(workload.jobs)} jobs",
        "words_per_s": f"{words} literal words per pass",
        "job_p50_ms": f"{n} samples",
        "job_tail_ms": f"p{tail_pct:.2f} of {n} samples",
        "cpu_s": "median per pass, parent plus children",
        "peak_rss_mb": f"parent {own_rss:.1f} MiB, largest child {child_rss:.1f} MiB",
    }
    for name, unit in END_TO_END.items():
        print_metric(name, values[name], unit, notes[name])
    print_metric("failed_ratio", failed / attempted, "ratio",
                 f"{failed} failed of {attempted} attempted; self-test "
                 f"{'caught' if self_test_ok else 'MISSED'} a corrupted expected value")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return self_test_ok, attempted, failed, metrics


def traced(args, workload):
    """One traced pass between two untraced ones; their mean is the baseline
    of the tracing overhead, so a drift in machine speed cancels to first
    order."""
    from tracing import Tracer

    before = run_pass(workload)
    self_test_ok = self_test(workload, before.outputs)
    tracer = Tracer()
    tracer.install()
    try:
        run = run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(workload)
    failed = sum(count_failures(workload.jobs, p.outputs) for p in (before, run, after))
    attempted = 3 * len(workload.jobs)
    untraced_s = (before.wall_s + after.wall_s) / 2
    values = tracer.layer_metrics()
    values["trace.slowdown"] = run.wall_s / untraced_s
    # RUSAGE_CHILDREN can carry a peak from before exec, so it only counts
    # when this pass ran a pool.
    values["expand.worker_peak_rss_mb"] = peak_rss_mb()[1] if values["expand.pool_wall_s"] else 0.0
    print(f"trace: expand.words_literal exactly {tracer.words_literal}")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"trace: wall_s untraced {before.wall_s:.4f} s and {after.wall_s:.4f} s, "
          f"traced {run.wall_s:.4f} s; overhead {run.wall_s - untraced_s:.4f} s; "
          "pool workers run untraced, so parallel reports parent spans plus RUSAGE_CHILDREN")
    for name, unit in PER_LAYER.items():
        print_metric(name, values[name], unit)
    print_metric("failed_ratio", failed / attempted, "ratio",
                 f"{failed} failed of {attempted} attempted")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return self_test_ok, attempted, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import workloads

    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.BUILDERS)}")
    workload, setup_times = setup(args, 1 if args.trace else SETUP_REPS)
    print_environment(args)
    if args.trace:
        outcome = traced(args, workload)
    else:
        outcome = end_to_end(args, workload, setup_times)
    self_test_ok, attempted, failed, metrics = outcome
    result = {"correct": failed == 0 and self_test_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
