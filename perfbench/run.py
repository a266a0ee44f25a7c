"""Benchmark entry point.

    python3 perfbench/run.py --workload pretrain|classify|genome-data \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Exit code 0 on success, 1 if a correctness check failed,
2 if the program cannot be imported.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread per process (see README.md).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def measure(workload, seconds: float, min_rounds: int, first_round: int = 0):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        a, f = workload.round(first_round + rounds)
        attempted += a
        failed += f
        rounds += 1
    return attempted, failed, rounds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(workload, seconds: float):
    setup = [workload.setup_once() for _ in range(workload.setups)]
    attempted, failed, rounds = measure(workload, seconds, workload.min_rounds)
    metrics, note = workload.end_to_end()
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    print(f"{workload.name}: {rounds} rounds; {note}; setup median of {len(setup)}")
    return attempted, failed, metrics


def traced(workload, seconds: float, seed: int):
    """Half the time untraced, half traced; per-layer metrics of the traced half."""
    from tracing import Tracer

    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        workload.setup_once()
    finally:
        tracer.uninstall()
    workload.tracer = None
    attempted, failed, plain_rounds = measure(workload, seconds / 2, 1)
    plain_rate = workload.rate()
    workload.reset()
    workload.tracer = tracer
    tracer.phase = "run"
    tracer.install()
    try:
        a, f, rounds = measure(workload, seconds / 2, 1, first_round=plain_rounds)
    finally:
        tracer.uninstall()
    overhead = (plain_rate / workload.rate() - 1.0) * 100.0
    path = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.jsonl.gz")
    tracer.write(path)
    print(f"{workload.name}: traced {rounds} rounds after {plain_rounds} untraced; "
          f"{len(tracer.spans)} spans in {os.path.relpath(path, ROOT)}; "
          "times are CPU wall-clock (perf_counter), no hardware counters; "
          "per-layer values are per set-up plus per round")
    return attempted + a, failed + f, tracer.per_layer(rounds, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "dnamlm")):
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import dnamlm  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            attempted, failed, metrics = traced(workload, args.seconds, args.seed)
        else:
            attempted, failed, metrics = untraced(workload, args.seconds)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
