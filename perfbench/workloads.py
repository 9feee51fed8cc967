"""Workload definitions and the seeded, cached input generator.

Every input is built from the benchmark seed by the simulated endurance
run (``EnduranceRun`` under ``EnduranceConfig.scaled_paper_setup``), so the
same seed always gives the same trace files, ground truth, model and
expected decisions.  Generation happens in a separate process, before and
outside every timed region, and is cached per (kind, seed, parameters,
program source) under ``.perfbench_cache/`` in the checkout.

Expected decisions come from a different path than the one measured: the
paper run's oracle is the per-window object path (``run_on_events`` with
``batch_size=1`` on the simulated events, no file decode), and the fleet's
oracle is the serial fleet.  A measured run must match them bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"

# The paper's parameters (Section III), scaled in duration only.
WINDOW_US = 40_000
REFERENCE_S = 300.0
K_NEIGHBOURS = 20
ALPHA = 1.2
PAPER_DURATION_S = 900.0
# The CLI's default micro-batch for monitor and fleet.
BATCH_SIZE = 64

# fleet-mixed: two shards on the paper's schedule, two under a storm.
FLEET_DURATION_S = 600.0
FLEET_WORKERS = 2
FLEET_SHARDS = (
    ("quiet-0", "quiet"),
    ("quiet-1", "quiet"),
    ("stormy-0", "stormy"),
    ("stormy-1", "stormy"),
)
STORM = {"period_s": 60.0, "duration_s": 20.0, "load_factor": 4.0}

# follow-live: an open-loop writer appends whole windows at this pace.  The
# one-shot JSONL path (run_on_file) decides ~2700-3000 windows/s on a
# 2-CPU host, so the offered load is under half its capacity.
FOLLOW_WINDOWS_PER_S = 1250.0
# Windows appended after the measured ones.  A duration window is complete
# only when a later event (or the end of the stream) arrives, and the end
# of a tailed file is only known after the idle timeout, so the last batch
# waits for that timeout.  Two batches of tail keep it out of the samples.
FOLLOW_TAIL_WINDOWS = 2 * BATCH_SIZE
# The live stream's p99 is taken in this many equal slices and the median
# reported: each slice still has ~45 samples beyond its p99, and a single
# stall of the shared host moves one slice instead of the run's figure.
FOLLOW_LATENCY_SEGMENTS = 5
FOLLOW_POLL_S = 0.01
FOLLOW_IDLE_TIMEOUT_S = 0.5

GENERATE_TIMEOUT_S = 170.0

# Fidelity bands the paper run must meet at alpha = 1.2 (ROADMAP).
MIN_PRECISION = 0.6
MIN_RECALL = 0.6
MIN_REDUCTION = 5.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which inputs it reads and why it exists."""

    name: str
    inputs: str  # "paper" or "fleet"
    trace_file: str
    why: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fleet-mixed",
            "fleet",
            "quiet-0.bin",
            # The only workload through analysis.fleet / analysis.parallel,
            # and the binary-decode workload (the parent decodes every
            # shard); stormy shards record ~2.5x more bytes and set the
            # fleet time.  Its traced serial arm splits binary decode,
            # detector, LOF and recorder time in one process.
            "four 600 s binary shards, two quiet and two stormy, on 2 worker "
            "processes: the only workload through the fleet and parallel layers",
        ),
        Workload(
            "follow-live",
            "paper",
            "paper.jsonl",
            # The only workload through trace.streaming; throughput is pinned
            # by the writer's schedule, so only latency and memory can move.
            # It is also the JSON-decode workload (set-up and live pass), so
            # a binary-decode gain bypasses it.  It decides the whole paper
            # run, so the paper-fidelity bands are checked here.
            "the paper run's JSONL appended by a separate open-loop writer "
            "and tailed live: the only workload through the streaming layer",
        ),
    )
}


def paper_config(seed: int):
    """The scaled paper run for ``seed`` (media seed = benchmark seed)."""
    from repro import EnduranceConfig

    return EnduranceConfig.scaled_paper_setup(
        duration_s=PAPER_DURATION_S, reference_s=REFERENCE_S, seed=seed
    )


def fleet_config(seed: int, position: int):
    """Shard ``position`` of the fleet for ``seed`` (distinct media seeds)."""
    from repro import EnduranceConfig

    config = EnduranceConfig.scaled_paper_setup(
        duration_s=FLEET_DURATION_S,
        reference_s=REFERENCE_S,
        seed=100_003 + seed * 101 + position,
    )
    if FLEET_SHARDS[position][1] == "stormy":
        config = dataclasses.replace(
            config,
            perturbation=dataclasses.replace(config.perturbation, **STORM),
        )
    return config


def detector_config():
    from repro import DetectorConfig

    return DetectorConfig(k_neighbours=K_NEIGHBOURS, lof_threshold=ALPHA)


def monitor_config(fleet_workers: int = 1, batch_size: int = BATCH_SIZE):
    from repro import MonitorConfig

    return MonitorConfig(
        window_duration_us=WINDOW_US,
        reference_duration_us=int(REFERENCE_S * 1e6),
        batch_size=batch_size,
        recording_format="binary",
        fleet_workers=fleet_workers,
    )


def parameters(kind: str) -> dict:
    """Every generation parameter of ``kind``, for the cache key."""
    common = {
        "window_us": WINDOW_US,
        "reference_s": REFERENCE_S,
        "k": K_NEIGHBOURS,
        "alpha": ALPHA,
        "batch_size": BATCH_SIZE,
    }
    if kind == "paper":
        return {**common, "duration_s": PAPER_DURATION_S}
    return {
        **common,
        "duration_s": FLEET_DURATION_S,
        "shards": FLEET_SHARDS,
        "storm": STORM,
    }


def source_digest() -> str:
    """Digest of the program's source, so a changed program regenerates."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_inputs(kind: str, seed: int) -> Path:
    """Directory holding ``kind``'s inputs for ``seed``, generating if absent."""
    key = json.dumps(
        {"kind": kind, "seed": seed, "params": parameters(kind), "src": source_digest()},
        sort_keys=True,
    )
    name = f"{kind}-seed{seed}-{hashlib.sha256(key.encode()).hexdigest()[:16]}"
    final = CACHE / "inputs" / name
    if (final / "done.json").exists():
        return final
    staging = CACHE / "inputs" / f".{name}.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "generate.py"), kind, str(seed), str(staging)],
            check=True,
            timeout=GENERATE_TIMEOUT_S,
            stdout=sys.stderr,
        )
        (staging / "done.json").write_text(key)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(staging, final)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final


# ---------------------------------------------------------------------- #
# Decisions as arrays (what the checks compare and the cache stores)
# ---------------------------------------------------------------------- #
def decision_arrays(decisions) -> dict[str, np.ndarray]:
    """Per-window decision fields as arrays; LOF ``None`` becomes NaN."""
    from repro.analysis.detector import DetectionOutcome

    codes = {outcome: code for code, outcome in enumerate(DetectionOutcome)}
    return {
        "index": np.array([d.window_index for d in decisions], dtype=np.int64),
        "start_us": np.array([d.start_us for d in decisions], dtype=np.int64),
        "end_us": np.array([d.end_us for d in decisions], dtype=np.int64),
        "n_events": np.array([d.n_events for d in decisions], dtype=np.int64),
        "kl": np.array([d.kl_to_past for d in decisions], dtype=np.float64),
        "lof": np.array(
            [np.nan if d.lof_score is None else d.lof_score for d in decisions],
            dtype=np.float64,
        ),
        "outcome": np.array([codes[d.outcome] for d in decisions], dtype=np.int8),
        "window_bytes": np.array([d.window_bytes for d in decisions], dtype=np.int64),
    }


def mismatched_windows(actual: dict, expected: dict, n: int | None = None) -> int:
    """Windows whose decision differs from ``expected`` (first ``n`` only).

    Floats are compared bit for bit: the program's contract is bit-identical
    decisions on every path.
    """
    n = len(expected["index"]) if n is None else n
    if len(actual["index"]) != n:
        return max(n, len(actual["index"]))
    bad = np.zeros(n, dtype=bool)
    for key, values in actual.items():
        reference = expected[key][:n]
        if values.dtype.kind == "f":
            same = (values.view(np.int64) == reference.view(np.int64)) | (
                np.isnan(values) & np.isnan(reference)
            )
        else:
            same = values == reference
        bad |= ~same
    return int(bad.sum())


def load_decisions(path: Path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ground_truth_record(trace) -> dict:
    """The simulator's QoS ground truth of one run, as plain JSON."""
    return {
        "perturbations": [[i.start_s, i.end_s] for i in trace.perturbation_intervals],
        "qos_timestamps_us": trace.qos_timestamps_us(),
    }


def ground_truth(record: dict):
    from repro.analysis.labeling import GroundTruth
    from repro.media.perturbation import PerturbationInterval

    return GroundTruth.from_run(
        [PerturbationInterval(start, end) for start, end in record["perturbations"]],
        record["qos_timestamps_us"],
    )
