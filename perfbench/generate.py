"""Build one seed's benchmark inputs into a directory (run as a script).

    python3 perfbench/generate.py {paper|fleet} SEED OUT_DIR

paper: ``paper.jsonl``, the JSONL byte offset where each window ends (for
the follow-live writer), the QoS ground truth, the model learned from the
300 s reference prefix, and the oracle's decisions and recording
(per-window object path, ``batch_size=1``).

fleet: one binary trace and ground truth per shard, the model learned from
the first shard's reference prefix, and the serial fleet's decisions and
recordings as the oracle for the 2-worker fleet.

Independent jobs run in two spawned processes; nothing here is timed.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import workloads as wl

sys.path.insert(0, str(wl.SRC))


def _simulate(config):
    from repro import EnduranceRun

    return EnduranceRun(config).run()


def _write_ground_truth(trace, path: Path) -> None:
    path.write_text(json.dumps(wl.ground_truth_record(trace)))


def paper_files_job(seed: int, out: str) -> int:
    """Simulate the paper run; write its JSONL trace and window offsets."""
    from repro.trace.writer import write_trace

    out_dir = Path(out)
    trace = _simulate(wl.paper_config(seed))
    write_trace(trace.events, out_dir / "paper.jsonl")
    _write_ground_truth(trace, out_dir / "paper.truth.json")
    # Byte offset where each window's lines end: line i ends at newline i.
    raw = np.fromfile(out_dir / "paper.jsonl", dtype=np.uint8)
    line_ends = np.flatnonzero(raw == ord("\n")) + 1
    timestamps = np.array([event.timestamp_us for event in trace.events], dtype=np.int64)
    if len(line_ends) != len(timestamps):
        raise RuntimeError("JSONL line count does not match the event count")
    n_windows = int(timestamps[-1] // wl.WINDOW_US) + 1
    last_event = np.searchsorted(
        timestamps, (np.arange(n_windows) + 1) * wl.WINDOW_US, side="left"
    )
    window_ends = np.where(last_event > 0, line_ends[np.maximum(last_event - 1, 0)], 0)
    np.save(out_dir / "paper.jsonl.window_ends.npy", window_ends.astype(np.int64))
    return trace.n_events


def paper_oracle_job(seed: int, out: str) -> int:
    """Simulate the paper run; learn the model; decide it on the object path."""
    from repro import EventTypeRegistry, TraceMonitor

    out_dir = Path(out)
    trace = _simulate(wl.paper_config(seed))
    model = _learn(trace, out_dir / "model.npz")
    oracle = TraceMonitor(
        wl.detector_config(),
        wl.monitor_config(batch_size=1),
        EventTypeRegistry.with_default_types(),
    ).run_on_events(trace.events, model=model, output_path=out_dir / "oracle.rec")
    np.savez(out_dir / "oracle.npz", **wl.decision_arrays(oracle.decisions))
    (out_dir / "oracle.json").write_text(
        json.dumps(
            {
                "report": oracle.report.to_dict(),
                "recording_sha256": wl.file_sha256(out_dir / "oracle.rec"),
            }
        )
    )
    return trace.n_events


def fleet_shard_job(seed: int, position: int, out: str) -> int:
    """Simulate one fleet shard; the first shard also learns the model."""
    from repro.trace.writer import write_trace

    out_dir = Path(out)
    label = wl.FLEET_SHARDS[position][0]
    trace = _simulate(wl.fleet_config(seed, position))
    write_trace(trace.events, out_dir / f"{label}.bin")
    _write_ground_truth(trace, out_dir / f"{label}.truth.json")
    if position == 0:
        _learn(trace, out_dir / "model.npz")
    return trace.n_events


def _learn(trace, path: Path):
    """Learn on the reference prefix through the object path and save."""
    from repro import EventTypeRegistry, ReferenceModel, TraceMonitor

    reference, _ = trace.stream().split_reference(
        int(wl.REFERENCE_S * 1e6), window_duration_us=wl.WINDOW_US
    )
    TraceMonitor(
        wl.detector_config(), wl.monitor_config(), EventTypeRegistry.with_default_types()
    ).learn_reference(reference).save(path)
    return ReferenceModel.load(path)


def fleet_oracle_job(labels: list[str], out: str) -> dict:
    """Decide ``labels`` with the serial fleet; store decisions, return digests.

    Shards are independent, so two serial fleets over halves of the shards
    give the same per-shard results as one over all of them.
    """
    from repro import EventTypeRegistry, ReferenceModel, ShardedTraceMonitor
    from repro.trace.reader import read_trace_columns

    out_dir = Path(out)
    model = ReferenceModel.load(out_dir / "model.npz")
    columns = {label: read_trace_columns(out_dir / f"{label}.bin") for label in labels}
    result = ShardedTraceMonitor(
        wl.detector_config(), wl.monitor_config(), EventTypeRegistry.with_default_types()
    ).run_on_columns(columns, model, output_dir=out_dir / "oracle")
    summary = {}
    for label, shard in result.shard_results.items():
        np.savez(out_dir / f"oracle.{label}.npz", **wl.decision_arrays(shard.decisions))
        summary[label] = {
            "report": shard.report.to_dict(),
            "recording_sha256": wl.file_sha256(out_dir / "oracle" / f"{label}.bin"),
        }
    return summary


def main(kind: str, seed: int, out_dir: Path) -> None:
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        if kind == "paper":
            futures = [
                pool.submit(paper_files_job, seed, str(out_dir)),
                pool.submit(paper_oracle_job, seed, str(out_dir)),
            ]
        elif kind == "fleet":
            futures = [
                pool.submit(fleet_shard_job, seed, position, str(out_dir))
                for position in range(len(wl.FLEET_SHARDS))
            ]
        else:
            raise SystemExit(f"unknown input kind: {kind!r}")
        counts = [future.result() for future in futures]
        if kind == "fleet":
            labels = [label for label, _ in wl.FLEET_SHARDS]
            halves = [
                pool.submit(fleet_oracle_job, labels[part::2], str(out_dir)) for part in (0, 1)
            ]
            shards = {}
            for half in halves:
                shards.update(half.result())
            (out_dir / "oracle.json").write_text(json.dumps({"shards": shards}))
    if kind == "paper" and counts[0] != counts[1]:
        raise RuntimeError(f"the two simulations of seed {seed} differ: {counts}")
    print(f"generated {kind} inputs for seed {seed}: {counts} events", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
