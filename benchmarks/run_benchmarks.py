#!/usr/bin/env python
"""Run the benchmark suite and archive the pytest-benchmark statistics.

The default invocation runs the throughput benchmarks (per-window loop,
batched scoring plane, the sharded multi-stream fleet and the columnar
file-to-scores ingest plane) and writes their pytest-benchmark statistics
to ``BENCH_throughput.json`` at the repository root, so successive PRs
leave a machine-readable performance trajectory behind::

    python benchmarks/run_benchmarks.py                 # throughput only
    python benchmarks/run_benchmarks.py --all           # every benchmark
    python benchmarks/run_benchmarks.py -o custom.json  # different output

Any extra arguments after ``--`` are forwarded to pytest verbatim.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

THROUGHPUT_BENCHMARKS = [
    "benchmarks/test_bench_throughput.py",
    "benchmarks/test_bench_throughput_batched.py",
    "benchmarks/test_bench_fleet.py",
    "benchmarks/test_bench_ingest.py",
    "benchmarks/test_bench_streaming.py",
    "benchmarks/test_bench_knn.py",
    "benchmarks/test_bench_fault_tolerance.py",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_throughput.json",
        help="pytest-benchmark JSON output path (default: %(default)s)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="run the whole benchmarks/ directory instead of the throughput pair",
    )
    parser.add_argument(
        "--fleet-workers",
        default=None,
        metavar="N,N,...",
        help="comma-separated worker counts for the fleet worker sweep "
        "(sets REPRO_BENCH_FLEET_WORKERS; default: the bench's 1,2,4)",
    )
    parser.add_argument(
        "--knn-backend",
        default=None,
        metavar="NAME,NAME,...",
        help="comma-separated indexed k-NN backends to time in the knn sweep "
        "(sets REPRO_BENCH_KNN_BACKENDS; default: the bench's balltree)",
    )
    args, passthrough = parser.parse_known_args(argv)
    if passthrough and passthrough[0] == "--":
        passthrough = passthrough[1:]

    targets = ["benchmarks"] if args.all else list(THROUGHPUT_BENCHMARKS)
    command = [
        sys.executable,
        "-m",
        "pytest",
        *targets,
        "-q",
        f"--benchmark-json={args.output}",
        *passthrough,
    ]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    if args.fleet_workers is not None:
        env["REPRO_BENCH_FLEET_WORKERS"] = args.fleet_workers
    if args.knn_backend is not None:
        env["REPRO_BENCH_KNN_BACKENDS"] = args.knn_backend
    print("+", " ".join(command))
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


if __name__ == "__main__":
    raise SystemExit(main())
