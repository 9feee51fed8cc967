"""The repository benchmark: one command, two workloads, a traced breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from ``--seed``
(see ``workloads.py``) and cached outside every timed region.  A run:

1. sets up a scoring-ready model from the workload's trace file three times
   (decode the reference prefix, window it, ``learn``, save, load) and
   checks it equals the model the generator learned;
2. with ``--trace 0``, makes one untimed warm-up pass (fleet-mixed),
   then repeats the measured pass while the next one should end within
   ``--seconds`` (follow-live streams for ``--seconds``, at most the whole
   run) and reports the end-to-end metrics: medians over passes, latency
   p50 over windows, p99 as the median of per-segment p99s, and the peak
   resident memory of the first monitoring call;
3. with ``--trace 1``, makes a warm-up, one untraced and one traced pass,
   prints the per-layer table and reports the per-layer metrics;
4. checks every pass against the generator's oracle and prints one metric
   per line, then the result as the last line: a JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

Host context (nproc, load average before and after, Python and NumPy
versions) is printed as a JSON line before the result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import Tracer

SETUP_REPEATS = 3
LIBC = ctypes.CDLL("libc.so.6")
BENCHMARK_FILE = wl.ROOT / "BENCHMARK.json"
WRITER_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------- #
# Process measurements
# ---------------------------------------------------------------------- #
def settle() -> None:
    """Free garbage and hand freed heap back to the OS.

    Done once, after set-up and before the passes.  Between passes only
    garbage is collected: handing the heap back makes every pass fault its
    pages in again, and on a virtual machine that cost swings with the host
    (a pass's spread about doubles), while a long-running monitor works on a
    warm heap.
    """
    gc.collect()
    LIBC.malloc_trim(0)


def reset_peak_rss() -> None:
    """Reset this process's resident-memory high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def host_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------- #
# Results of one pass
# ---------------------------------------------------------------------- #
@dataclass
class Pass:
    """One measured pass: its time, its windows and what its checks found."""

    seconds: float
    windows: int
    attempted: int
    failed: int
    latencies_s: np.ndarray
    latency_segments: int = 1
    peak_rss_mb: float = 0.0
    quality: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def detection_quality(decision_groups, truths, report) -> dict:
    """Reduction factor, and precision / recall of the live windows.

    Windows of the reference prefix are left out of the labels, as in the
    paper's protocol; the reduction factor covers the whole trace.
    """
    from repro.analysis.labeling import label_windows
    from repro.analysis.metrics import ConfusionCounts

    reference_us = int(wl.REFERENCE_S * 1e6)
    counts = ConfusionCounts()
    for decisions, truth in zip(decision_groups, truths):
        live = [d for d in decisions if d.end_us > reference_us]
        counts = counts + ConfusionCounts.from_labels(label_windows(live, truth))
    return {
        "reduction_factor": report.reduction_factor,
        "precision": counts.precision,
        "recall": counts.recall,
    }


# ---------------------------------------------------------------------- #
# Workload runners
# ---------------------------------------------------------------------- #
class Runner:
    """Set-up and passes of one workload over one seed's inputs."""

    def __init__(self, workload: wl.Workload, inputs: Path, work: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.oracle = json.loads((inputs / "oracle.json").read_text())

    def setup(self) -> tuple[float, object]:
        """Trace file -> scoring-ready model; returns (seconds, model)."""
        from repro import EventTypeRegistry, ReferenceModel, TraceMonitor
        from repro.trace.streaming import StreamingWindowSource

        model_path = self.work / "model.npz"
        gc.collect()
        started = time.perf_counter()
        with open(self.inputs / self.workload.trace_file, "rb") as handle:
            chunks = iter(lambda: handle.read(1 << 20), b"")
            reference = StreamingWindowSource(byte_chunks=chunks).reference_windows(
                int(wl.REFERENCE_S * 1e6), default_window_duration_us=wl.WINDOW_US
            )
        TraceMonitor(
            wl.detector_config(), wl.monitor_config(), EventTypeRegistry.with_default_types()
        ).learn_reference(reference).save(model_path)
        model = ReferenceModel.load(model_path)
        return time.perf_counter() - started, model

    def model_matches(self, model) -> bool:
        """The set-up model equals the one the generator learned."""
        from repro import ReferenceModel

        expected = ReferenceModel.load(self.inputs / "model.npz")
        return (
            model.type_names == expected.type_names
            and model.points.shape == expected.points.shape
            and bool(np.array_equal(model.points, expected.points))
        )

    def operations(self, seconds: float) -> int:
        """Operations one pass attempts: windows, or shards for the fleet."""
        return len(self.expected["index"])

    def run_pass(self, model, seconds: float, tracer: Tracer | None = None) -> Pass:
        raise NotImplementedError


class FleetRunner(Runner):
    """fleet-mixed: parent decodes every shard, then a 2-worker fleet."""

    def __init__(self, workload, inputs, work) -> None:
        super().__init__(workload, inputs, work)
        self.labels = [label for label, _ in wl.FLEET_SHARDS]
        self.expected = {
            label: wl.load_decisions(inputs / f"oracle.{label}.npz") for label in self.labels
        }
        self.truths = {
            label: wl.ground_truth(json.loads((inputs / f"{label}.truth.json").read_text()))
            for label in self.labels
        }

    def operations(self, seconds: float) -> int:
        return len(self.labels)

    def run_pass(self, model, seconds, tracer=None, workers: int = wl.FLEET_WORKERS) -> Pass:
        from repro import EventTypeRegistry, ShardedTraceMonitor
        from repro.trace.reader import read_trace_columns

        output_dir = self.work / "fleet"
        shutil.rmtree(output_dir, ignore_errors=True)
        fleet = ShardedTraceMonitor(
            wl.detector_config(),
            wl.monitor_config(fleet_workers=workers),
            EventTypeRegistry.with_default_types(),
        )
        parent_decode = (
            tracer.span("analysis.fleet.parent_decode") if tracer else contextlib.nullcontext()
        )
        gc.collect()
        started = time.perf_counter()
        with parent_decode:
            columns = {
                label: read_trace_columns(self.inputs / f"{label}.bin") for label in self.labels
            }
        result = fleet.run_on_columns(columns, model, output_dir=output_dir)
        elapsed = time.perf_counter() - started
        rss = peak_rss_mb()
        del columns
        failed = 0
        for label in self.labels:
            expected = self.oracle["shards"][label]
            if label not in result.shard_results:
                failed += 1
                continue
            shard = result.shard_results[label]
            if (
                wl.mismatched_windows(wl.decision_arrays(shard.decisions), self.expected[label])
                or shard.report.to_dict() != expected["report"]
                or wl.file_sha256(output_dir / f"{label}.bin") != expected["recording_sha256"]
            ):
                failed += 1
        ok = [label for label in self.labels if label in result.shard_results]
        # The fleet returns every shard's decisions together, at the end.
        return Pass(
            seconds=elapsed,
            windows=result.n_windows,
            attempted=len(self.labels),
            failed=failed,
            latencies_s=np.full(result.n_windows, elapsed),
            peak_rss_mb=rss,
            quality=detection_quality(
                [result.shard_results[label].decisions for label in ok],
                [self.truths[label] for label in ok],
                result.report,
            ),
        )


class FollowRunner(Runner):
    """follow-live: a separate writer appends the JSONL on a fixed schedule;
    ``StreamingWindowSource.follow`` + ``run_streaming`` decide it live."""

    def __init__(self, workload, inputs, work) -> None:
        super().__init__(workload, inputs, work)
        self.expected = wl.load_decisions(inputs / "oracle.npz")
        self.truth = wl.ground_truth(json.loads((inputs / "paper.truth.json").read_text()))

    def window_counts(self, seconds: float) -> tuple[int, int]:
        """(windows measured, windows appended) for a ``seconds``-long stream."""
        total = len(self.expected["index"])
        pace = wl.FOLLOW_WINDOWS_PER_S
        measured = max(1, min(total - wl.FOLLOW_TAIL_WINDOWS, int(pace * seconds)))
        return measured, measured + wl.FOLLOW_TAIL_WINDOWS

    def operations(self, seconds: float) -> int:
        return self.window_counts(seconds)[1]

    def run_pass(self, model, seconds, tracer=None) -> Pass:
        from repro import EventTypeRegistry, TraceMonitor
        from repro.trace.streaming import StreamingWindowSource

        pace = wl.FOLLOW_WINDOWS_PER_S
        measured, n_windows = self.window_counts(seconds)
        live_file = self.work / "live.jsonl"
        recording = self.work / "recording.bin"
        live_file.unlink(missing_ok=True)
        gc.collect()
        writer = subprocess.Popen(
            [
                sys.executable,
                str(wl.HERE / "follow_writer.py"),
                str(self.inputs / "paper.jsonl"),
                str(self.inputs / "paper.jsonl.window_ends.npy"),
                str(n_windows),
                repr(pace),
                str(live_file),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            t0 = json.loads(writer.stdout.readline())["t0"]
            decided = np.full(n_windows, np.nan)
            source = StreamingWindowSource.follow(
                live_file,
                poll_interval_s=wl.FOLLOW_POLL_S,
                idle_timeout_s=wl.FOLLOW_IDLE_TIMEOUT_S,
            )
            produce = source.batches

            def timed_batches(*args, **kwargs):
                # The monitor asks for the next batch only after it has
                # scored and recorded this one: its decisions exist now.
                for batch in produce(*args, **kwargs):
                    yield batch
                    decided[batch.indices[batch.indices < n_windows]] = time.monotonic()

            source.batches = timed_batches
            monitor = TraceMonitor(
                wl.detector_config(), wl.monitor_config(), EventTypeRegistry.with_default_types()
            )
            started = time.perf_counter()
            result = monitor.run_streaming(source, model=model, output_path=recording)
            elapsed = time.perf_counter() - started
            rss = peak_rss_mb()
            report_line, _ = writer.communicate(timeout=WRITER_TIMEOUT_S)
        finally:
            if writer.poll() is None:
                writer.kill()
            writer.wait()
        writer_stats = json.loads(report_line.strip().splitlines()[-1])
        arrays = wl.decision_arrays(result.decisions)
        failed = wl.mismatched_windows(arrays, self.expected, n=n_windows)
        oracle_recording = (self.inputs / "oracle.rec").read_bytes()
        recorded = recording.read_bytes()
        if oracle_recording[: len(recorded)] != recorded:
            failed = max(failed, result.report.recorded_windows, 1)
        stats = result.stream_stats
        if stats is not None and stats.corrupt_records:
            failed += stats.corrupt_records
        due = t0 + (np.arange(measured) + 1) / pace
        latencies = decided[:measured] - due
        if np.isnan(latencies).any():
            failed = max(failed, int(np.isnan(latencies).sum()))
            latencies = np.nan_to_num(latencies, nan=elapsed)
        span = float(np.nanmax(decided[:measured]) - t0)
        return Pass(
            seconds=span,
            windows=measured,
            attempted=n_windows,
            failed=failed,
            latencies_s=latencies,
            latency_segments=wl.FOLLOW_LATENCY_SEGMENTS,
            peak_rss_mb=rss,
            quality=detection_quality([result.decisions], [self.truth], result.report),
            extra={
                "writer": writer_stats,
                "stream_stats": stats,
                "pass_seconds": elapsed,
            },
        )


RUNNERS = {
    "fleet-mixed": FleetRunner,
    "follow-live": FollowRunner,
}


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #
def install_spans(tracer: Tracer) -> None:
    """Wrap the public calls of each layer the per-layer metrics name."""
    from repro.analysis import monitor as monitor_module
    from repro.analysis.detector import DetectionOutcome, OnlineAnomalyDetector
    from repro.analysis.fleet import ShardedTraceMonitor
    from repro.analysis.model import ReferenceModel
    from repro.analysis.recorder import SelectiveTraceRecorder
    from repro.trace import reader
    from repro.trace.columns import BinaryColumnsDecoder, JsonColumnsDecoder
    from repro.trace.stream import ColumnarWindowSource
    from repro.trace.streaming import FileTail, StreamingWindowSource

    def decoded(args, kwargs, result):
        data = args[0]
        return {"bytes": len(data), "events": len(result)}

    def fed(args, kwargs, result):
        return {"bytes": len(args[1]) if len(args) > 1 else 0, "events": len(result)}

    for function in ("decode_binary_columns", "decode_json_columns"):
        tracer.wrap(reader, function, "trace.columns.decode", decoded)
    for decoder in (BinaryColumnsDecoder, JsonColumnsDecoder):
        tracer.wrap(decoder, "feed", "trace.columns.decode", fed)
        tracer.wrap(decoder, "finish", "trace.columns.decode", fed)

    one_batch = lambda batch: {"batches": 1}  # noqa: E731
    tracer.wrap(monitor_module, "column_windows_by_duration", "trace.stream.window")
    tracer.wrap_iterator(monitor_module, "batches_from_layout", "trace.stream.window", one_batch)
    tracer.wrap_iterator(ColumnarWindowSource, "batches", "trace.stream.window", one_batch)
    tracer.wrap_iterator(StreamingWindowSource, "batches", "trace.stream.window", one_batch)
    tracer.wrap(StreamingWindowSource, "reference_windows", "trace.stream.materialize")
    tracer.wrap_iterator(FileTail, "__iter__", "trace.streaming.wait")

    tracer.wrap(ReferenceModel, "learn", "analysis.model.learn")
    tracer.wrap(ReferenceModel, "save", "analysis.model.save")
    tracer.wrap(ReferenceModel, "load", "analysis.model.load")

    def decisions(args, kwargs, result):
        return {
            "windows": len(result),
            "merged": sum(d.outcome is DetectionOutcome.MERGED for d in result),
            "lof_checked": sum(d.lof_score is not None for d in result),
        }

    tracer.wrap(OnlineAnomalyDetector, "process_batch", "analysis.detector", decisions)
    tracer.wrap(
        ReferenceModel, "score_vectors", "analysis.lof",
        lambda args, kwargs, result: {"vectors": len(result)},
    )

    closed: set[int] = set()

    def recorder_closed(args, kwargs, result):
        recorder = args[0]
        if id(recorder) in closed:
            return {}
        closed.add(id(recorder))
        path = recorder.output_path
        return {
            "recorded_windows": len(recorder.recorded_indices),
            "io_writes": recorder.io_write_count,
            "bytes_written": path.stat().st_size if path is not None and path.exists() else 0,
        }

    tracer.wrap(SelectiveTraceRecorder, "observe_batch", "analysis.recorder")
    tracer.wrap(SelectiveTraceRecorder, "flush", "analysis.recorder")
    tracer.wrap(SelectiveTraceRecorder, "close", "analysis.recorder", recorder_closed)
    tracer.wrap(ShardedTraceMonitor, "monitor_shards", "analysis.fleet")


def traced(tracer: Tracer, call):
    install_spans(tracer)
    try:
        return call()
    finally:
        tracer.restore()


def layer_metrics(
    setup: Tracer, shard_layers: Tracer, ingest: Tracer, traced_pass: Pass, overhead_pct: float,
    efficiency: float,
) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from the traced runs.

    ``ingest`` is the traced pass (decode and fleet spans); ``shard_layers``
    is where windowing, detector, LOF and recorder ran in this process
    (the traced pass, or the serial fleet arm for fleet-mixed).
    """
    own = ingest.self_times()
    ingest_counts = ingest.counts()
    shard_own = shard_layers.self_times()
    shard_busy = shard_layers.busy_times()
    counts = shard_layers.counts()
    setup_own = setup.self_times()
    decode_s = own.get("trace.columns.decode", 0.0)
    decoded_bytes = ingest_counts.get("trace.columns.decode.bytes", 0.0)
    vectors = counts.get("analysis.lof.vectors", 0.0)
    stream_stats = traced_pass.extra.get("stream_stats")
    writer = traced_pass.extra.get("writer", {})
    return {
        "trace.columns.decode_s": decode_s,
        "trace.columns.events": ingest_counts.get("trace.columns.decode.events", 0.0),
        "trace.columns.mb_per_s": decoded_bytes / 1e6 / decode_s if decode_s else 0.0,
        "trace.stream.window_s": shard_own.get("trace.stream.window", 0.0),
        "trace.stream.batches": counts.get("trace.stream.window.batches", 0.0),
        "trace.stream.materialize_s": setup_own.get("trace.stream.materialize", 0.0),
        "analysis.model.learn_s": setup_own.get("analysis.model.learn", 0.0),
        "analysis.model.load_s": setup_own.get("analysis.model.load", 0.0),
        "analysis.detector.self_s": shard_own.get("analysis.detector", 0.0),
        "analysis.detector.windows": counts.get("analysis.detector.windows", 0.0),
        "analysis.detector.merged": counts.get("analysis.detector.merged", 0.0),
        "analysis.detector.lof_checked": counts.get("analysis.detector.lof_checked", 0.0),
        "analysis.lof.busy_s": shard_busy.get("analysis.lof", 0.0),
        "analysis.lof.vectors_scored": vectors,
        "analysis.lof.useful_ratio": (
            counts.get("analysis.detector.lof_checked", 0.0) / vectors if vectors else 0.0
        ),
        "analysis.recorder.busy_s": shard_busy.get("analysis.recorder", 0.0),
        "analysis.recorder.recorded_windows": counts.get(
            "analysis.recorder.recorded_windows", 0.0
        ),
        "analysis.recorder.bytes_written": counts.get("analysis.recorder.bytes_written", 0.0),
        "analysis.recorder.io_writes": counts.get("analysis.recorder.io_writes", 0.0),
        "analysis.fleet.busy_s": ingest.busy_times().get("analysis.fleet", 0.0),
        "analysis.fleet.parent_decode_s": ingest.busy_times().get(
            "analysis.fleet.parent_decode", 0.0
        ),
        "analysis.parallel.efficiency": efficiency,
        "trace.streaming.wait_s": own.get("trace.streaming.wait", 0.0),
        "trace.streaming.chunks": float(stream_stats.chunks) if stream_stats else 0.0,
        "trace.streaming.peak_buffered_events": (
            float(stream_stats.peak_buffered_events) if stream_stats else 0.0
        ),
        "bench.generator_late_ms": float(writer.get("late_p99_ms", 0.0)),
        "bench.tracing_overhead_pct": overhead_pct,
    }


def print_layer_table(title: str, tracer: Tracer, wall_s: float) -> None:
    """Self time per span name, as a share of the pass's wall time."""
    own = tracer.self_times()
    print(f"-- per-layer self time: {title} (wall {wall_s:.3f} s)")
    for name, seconds in sorted(own.items(), key=lambda item: -item[1]):
        print(f"   {name:<34} {seconds:9.3f} s  {100 * seconds / wall_s:6.1f} %")
    rest = wall_s - sum(own.values())
    print(f"   {'(outside traced calls)':<34} {rest:9.3f} s  {100 * rest / wall_s:6.1f} %")


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
def attempt(runner: Runner, model, seconds: float, **kwargs) -> Pass:
    """One pass; an exception fails every operation the pass attempted."""
    try:
        return runner.run_pass(model, seconds, **kwargs)
    except Exception:
        traceback.print_exc()
        n = runner.operations(seconds)
        return Pass(seconds=math.nan, windows=0, attempted=n, failed=n, latencies_s=np.empty(0))


def warm_up(runner: Runner, model, seconds: float) -> list[Pass]:
    """One untimed file pass, so timed passes start on a warm heap; its
    outputs are checked like the others.  A follow pass has no warm-up: its
    pace is set by the writer.

    The heap is handed back and the resident-memory high-water mark reset
    first, so the first pass's ``peak_rss_mb`` is the monitoring call's peak
    from a trimmed heap; later passes read it on a heap the earlier passes
    and their checks left behind.
    """
    settle()
    reset_peak_rss()
    if isinstance(runner, FollowRunner):
        return []
    return [attempt(runner, model, seconds)]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    problems: list[str] = []
    setup_times = []
    model = None
    for _ in range(SETUP_REPEATS):
        elapsed, model = runner.setup()
        setup_times.append(elapsed)
    if not runner.model_matches(model):
        problems.append("set-up model differs from the generator's model")
    warm = warm_up(runner, model, seconds)
    passes: list[Pass] = []
    measuring_started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        passes.append(attempt(runner, model, seconds))
        now = time.perf_counter()
        # A follow pass streams for the whole budget; otherwise start another
        # pass only if it should end within the budget.
        if isinstance(runner, FollowRunner) or now + (now - pass_started) > (
            measuring_started + seconds
        ):
            break
    timed = [p for p in passes if not math.isnan(p.seconds)]
    if not timed:
        return {}, warm + passes, problems
    latencies = np.concatenate([p.latencies_s for p in timed]) * 1e3
    # p99 is taken per segment (a file pass, or a slice of the live stream)
    # and the median over segments reported, so one host stall moves one
    # segment's tail and not the run's figure.
    segment_p99 = [
        float(np.percentile(segment, 99)) * 1e3
        for p in timed
        for segment in np.array_split(p.latencies_s, p.latency_segments)
    ]
    quality = timed[0].quality
    if any(p.quality != quality for p in timed):
        problems.append("detection quality differs between passes")
    metrics = {
        "windows_per_s": statistics.median(p.windows / p.seconds for p in timed),
        "setup_s": statistics.median(setup_times),
        "decision_latency_p50_ms": float(np.percentile(latencies, 50)),
        "decision_latency_p99_ms": statistics.median(segment_p99),
        "peak_rss_mb": (warm + timed)[0].peak_rss_mb,
        **quality,
    }
    info = {
        "passes": len(passes),
        "warm_up_seconds": [p.seconds for p in warm],
        "pass_seconds": [p.seconds for p in passes],
        "setup_seconds": setup_times,
        "latency_samples": int(latencies.size),
        "p99_ms_per_segment": segment_p99,
        "p99_ms_over_all_samples": float(np.percentile(latencies, 99)),
    }
    if isinstance(runner, FollowRunner):
        info["writer"] = timed[0].extra["writer"]
    print(json.dumps({"run": info}))
    return metrics, warm + passes, problems


def per_layer(runner: Runner, seconds: float, spans_dir: Path) -> tuple[dict, list[Pass], list[str]]:
    """One traced set-up, a warm-up, one untraced and one traced pass (and,
    for the fleet, a traced serial arm: the workers' layers are not traced)."""
    problems: list[str] = []
    setup_tracer, pass_tracer = Tracer(), Tracer()
    _, model = traced(setup_tracer, runner.setup)
    if not runner.model_matches(model):
        problems.append("set-up model differs from the generator's model")
    warm = warm_up(runner, model, seconds)
    plain = attempt(runner, model, seconds)
    traced_pass = traced(
        pass_tracer, lambda: attempt(runner, model, seconds, tracer=pass_tracer)
    )
    passes = warm + [plain, traced_pass]
    shard_tracer, efficiency = pass_tracer, 0.0
    if isinstance(runner, FleetRunner):
        shard_tracer = Tracer()
        serial = traced(
            shard_tracer,
            lambda: attempt(runner, model, seconds, tracer=shard_tracer, workers=1),
        )
        passes.append(serial)
        efficiency = serial.seconds / (traced_pass.seconds * wl.FLEET_WORKERS)
    if any(math.isnan(p.seconds) for p in passes):
        return {}, passes, problems
    # Wall time of the pass; a follow pass's span is pinned by the writer.
    wall = traced_pass.extra.get("pass_seconds", traced_pass.seconds)
    overhead = 100.0 * (wall / plain.extra.get("pass_seconds", plain.seconds) - 1.0)
    setup_wall = sum(span.end - span.start for span in setup_tracer.spans if span.parent < 0)
    tables = [("set-up", setup_tracer, setup_wall), ("pass", pass_tracer, wall)]
    if shard_tracer is not pass_tracer:
        tables.append(("serial arm", shard_tracer, passes[-1].seconds))
    for title, tracer, seconds_spent in tables:
        print_layer_table(f"{runner.workload.name} {title}", tracer, seconds_spent)
        tracer.write(spans_dir / f"{runner.workload.name}.{title.replace(' ', '-')}.spans.jsonl")
    metrics = layer_metrics(setup_tracer, shard_tracer, pass_tracer, traced_pass, overhead, efficiency)
    return metrics, passes, problems


def fidelity_problems(runner: Runner, seconds: float, metrics: dict) -> list[str]:
    """The ROADMAP's paper-fidelity bands, when the run decided the whole
    paper run (follow-live streams all of it from ~18 s on)."""
    if not isinstance(runner, FollowRunner) or runner.window_counts(seconds)[1] != len(
        runner.expected["index"]
    ):
        return []
    problems = []
    if not metrics["precision"] > wl.MIN_PRECISION:
        problems.append(f"precision {metrics['precision']:.3f} <= {wl.MIN_PRECISION}")
    if not metrics["recall"] > wl.MIN_RECALL:
        problems.append(f"recall {metrics['recall']:.3f} <= {wl.MIN_RECALL}")
    if not metrics["reduction_factor"] > wl.MIN_REDUCTION:
        problems.append(f"reduction {metrics['reduction_factor']:.2f} <= {wl.MIN_REDUCTION}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({wl.SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    spec = json.loads(BENCHMARK_FILE.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    context = {"before": host_context()}
    workload = wl.WORKLOADS[args.workload]
    inputs = wl.ensure_inputs(workload.inputs, args.seed)
    work = wl.CACHE / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = RUNNERS[workload.name](workload, inputs, work)
    try:
        if args.trace:
            metrics, passes, problems = per_layer(
                runner, args.seconds, wl.CACHE / "traces" / f"seed{args.seed}"
            )
            names = [m["name"] for m in spec["per_layer"]]
        else:
            metrics, passes, problems = end_to_end(runner, args.seconds)
            if metrics:
                problems += fidelity_problems(runner, args.seconds, metrics)
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["after"] = host_context()
    print(json.dumps({"context": context}))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if failed:
        print(f"check failed: {failed} of {attempted} operations", file=sys.stderr)
    metrics = {name: metrics.get(name, 0.0) for name in names}
    for name in names:
        print(f"{name:<40} {metrics[name]:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": units[name]} for name in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
