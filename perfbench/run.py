"""Benchmark of the fuzzfolio toolkit, end to end and per module.

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60 --trace 1

Run from the repository root with plain ``python3`` (not ``-O``: the
program's in-loop invariant checks are part of what is measured).  One
process runs one workload on one thread.  It imports the program from
``src/``, builds the inputs from ``--seed`` (timed as ``setup_s``, with
further set-ups in child processes), then calls the program repeatedly
for ``--seconds`` seconds and checks every output.  ``wall_s`` is the
fastest invocation of the run; the median is printed beside it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced invocations and reports the per-layer metrics of the
traced ones (see tracing.py) plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload, each in its own process.
"""

import os

# one BLAS thread (no more than nproc); must be set before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# BENCHMARK.json gates paper_sweep and frontier; ica_long and certify run
# on request (their timings drift too far between runs on a shared host)
WORKLOADS = ("paper_sweep", "ica_long", "frontier", "certify")
SETUP_REPEATS = 5
MIN_INVOCATIONS = 3
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("quality_ratio", "ratio"),
)

# the ROADMAP's baseline per call: (label, traced metric, per-call divisor, scale, baseline)
BASELINE = (
    ("reformulate", "model.reformulate.s", "model.reformulate.calls", 1, "36 us"),
    ("solve_exact", "oracle.solve_exact.s", "oracle.solve_exact.calls", 1, "17 us"),
    ("one ica.run", "ica.run.s", "ica.run.calls", 1, "60 ms"),
    ("certificate per 1e4 samples", "model.necessity_certificate.s",
     "model.necessity_certificate.samples", 10_000, "288 ms"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("error: run without -O; the program's invariant checks are part of the work", file=sys.stderr)
        return 2
    if not (SRC / "fuzzfolio" / "__init__.py").is_file():
        print(f"error: no program under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + [setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    return run_one(workload, setups, args)


def setup(name: str, seed: int):
    """Import the program, generate the inputs and round-trip the instances."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import fuzzfolio

    if Path(fuzzfolio.__file__).resolve().parent != SRC / "fuzzfolio":
        raise SystemExit(f"error: imported fuzzfolio from {fuzzfolio.__file__}, not from {SRC}")
    import workloads

    workdir = WORK / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


def setup_in_child(name: str, seed: int) -> float:
    """Set-up time of a fresh process, import included."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_one(workload, setups: list[float], args) -> int:
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    attempted = failed = 0
    qualities, gaps = [], []
    start = time.perf_counter()
    i = 0
    while True:
        traced_now = tracer is not None and i % 2 == 1
        if traced_now:
            tracer.begin()
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcome = workload.invoke()
        finally:
            wall = time.perf_counter() - t0
            if traced_now:
                tracer.uninstall()
        if traced_now:
            traced.append(wall)
            layers.append(tracer.summary(wall))
            if len(traced) == 1:
                tracer.write_spans(WORK / f"spans-{workload.name}-{args.seed}.jsonl")
        else:
            plain.append(wall)
        check = workload.verify(outcome)
        attempted += check.attempted
        failed += check.failed
        qualities.append(check.quality)
        if check.gap is not None:
            gaps.append(check.gap)
        for problem in check.problems:
            print(f"FAIL {workload.name} invocation {i}: {problem}", file=sys.stderr)
        i += 1
        # stop before an invocation that would overrun the measuring window
        elapsed = time.perf_counter() - start
        enough = len(traced) >= 1 if tracer else len(plain) >= MIN_INVOCATIONS
        if enough and elapsed * (i + 1) / i > args.seconds:
            break

    print("env " + json.dumps(environment()))
    print(f"workload {workload.name} seed {args.seed}: {i} invocations, "
          f"{attempted} operations checked, {failed} failed")
    print(f"  failed_frac    {failed / attempted:.6g}")
    if gaps:
        print(f"  ica_gap_mean   {statistics.median(gaps):.6g}")
    if tracer is None:
        # the fastest invocation, as timeit reports: on a shared host the
        # slower ones carry other tenants' load, which drifts over minutes
        wall_s = min(plain)
        print(f"  wall_median_s  {statistics.median(plain):.6g} s")
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "ops_per_s": workload.ops / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "quality_ratio": statistics.median(qualities),
        }
        units = dict(END_TO_END)
        print(f"  ({len(setups)} set-ups, {len(plain)} invocations of {workload.ops} {workload.unit}; "
              f"wall range {min(plain):.4f}..{max(plain):.4f} s)")
        for name, value in metrics.items():
            print(f"  {name:<14} {value:.6g} {units[name]}")
        result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        metrics = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        print(f"  ({len(traced)} traced and {len(plain)} plain invocations; medians per traced invocation)")
        for name in tracing.metric_names():
            print(f"  {name:<46} {metrics[name]:.6g} {tracing.unit(name)}")
        print_baseline({workload.name: metrics})
        result = {name: {"value": metrics[name], "unit": tracing.unit(name)} for name in tracing.metric_names()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def print_baseline(per_workload: dict[str, dict]) -> None:
    """Traced per-call times beside the ROADMAP's baseline table."""
    print("  per call, traced        baseline   measured   (workload)")
    for label, seconds, divisor, scale, baseline in BASELINE:
        for name, metrics in per_workload.items():
            if metrics.get(divisor):
                per_call = metrics[seconds] / metrics[divisor] * scale
                print(f"  {label:<28} {baseline:>7} {_pretty(per_call):>10}   ({name})")


def _pretty(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3g} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds * 1e6:.3g} us"


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "optimize": sys.flags.optimize,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's .git, if it has one (read directly, no git binary)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        packed = (git / "packed-refs").read_text().splitlines()
        return next((line.split()[0] for line in packed if line.endswith(" " + ref)), None)
    except OSError:
        return None


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    if args.trace:
        print_baseline({name: {k: v["value"] for k, v in r["metrics"].items()} for name, r in results.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
