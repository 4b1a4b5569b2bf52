"""Benchmark of dqi-bench: one workload, one process, one thread.

    python3 perfbench/run.py --workload exact-n14 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory.  With ``--trace 0`` the run times whole rounds of operations and
prints the end-to-end metrics; with ``--trace 1`` it wraps the program's
functions and prints the per-layer metrics instead.  Every operation's
output is checked after the timed region against computations made apart
from the program.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from layers import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5  # fresh processes whose set-up time gives setup_s


def load_program():
    """Import ``dqi_bench`` from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dqi_bench as dq
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dqi_bench from {src}: {exc}")
    if src not in Path(dq.__file__).resolve().parents:
        sys.exit(f"perfbench: dqi_bench was imported from {dq.__file__}, not from {src}")
    return dq


def setup_seconds(workload, seed) -> float:
    """Median time for a fresh process to import the program and build the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
        )
        try:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            child.stdout.close()
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        if line.strip() != b"ready" or child.returncode != 0:
            sys.exit(f"perfbench: set-up child failed with code {child.returncode}")
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    dq = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = workloads.setup(dq, wl, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"circuit-{os.getpid()}.txt"
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    first: dict[int, object] = {}  # instance index -> captured output of its first op
    problems: list[str] = []

    def record(i, out):
        summary = wl.capture(out)
        if i not in first:
            first[i] = summary
        elif summary != first[i]:
            problems.append(f"instance {i}: output differs from its first operation")

    try:
        record(0, wl.op(dq, inputs[0], scratch))  # warm-up, untimed
    except Exception:
        traceback.print_exc()  # the timed ops count the failure

    tracer = Tracer(dq) if args.trace else None
    durations = []
    failed = rounds = 0

    def timed_op(i):
        nonlocal failed
        start = time.perf_counter()
        try:
            with tracer.op() if tracer else contextlib.nullcontext():
                out = wl.op(dq, inputs[i], scratch)
        except Exception:
            failed += 1
            traceback.print_exc()
            return
        finally:
            durations.append(time.perf_counter() - start)
        record(i, out)

    if tracer:
        tracer.install()
    try:
        # whole rounds over the pool, as many as bring the timed total closest to --seconds
        while rounds == 0 or sum(durations) * (1 + 0.5 / rounds) < args.seconds:
            rounds += 1
            for i in range(len(inputs)):
                timed_op(i)
    finally:
        if tracer:
            tracer.uninstall()
    attempted = len(durations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, summary in first.items():
        problems += [f"instance {i}: {p}" for p in wl.check(dq, summary, inputs[i])]
    if wl.run_check is not None:
        problems += wl.run_check(dq, args.seed)
    scratch.unlink(missing_ok=True)
    for p in problems:
        print(f"check failed: {p}")

    op_s_p50 = statistics.median(durations)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{failed} failed, op median {op_s_p50:.4f} s, "
          f"min {min(durations):.4f} s, max {max(durations):.4f} s")
    if tracer:
        metrics, missing = layer_metrics(tracer.ops, set(wl.expected), tracer.unwrapped)
        for name, labels in missing.items():
            print(f"missing: {name} ({', '.join(labels)} absent or never called)")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s_p50": {"value": op_s_p50, "unit": "s"},
            "ops_per_s": {"value": len(durations) / sum(durations), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
