"""Sharded fleet throughput — windows/s versus one-by-one stream monitoring.

Three claims are measured on the same synthetic streams:

* the sharded fleet (batch plane + batched recorder IO) processes at least
  1.5x more windows per second than monitoring the streams sequentially
  with the historical per-window path, while producing bit-identical
  per-stream results (asserted before timing — a fast fleet that changes
  decisions is worthless);
* the process-parallel backend (``MonitorConfig.fleet_workers > 1``)
  reproduces the single-thread fleet bit-identically for every worker
  count in the sweep, and on a multi-core machine the best worker count is
  at least 1.5x faster in windows/s than the single-thread fleet (the
  speedup assertion is skipped on single-core machines, where process
  parallelism cannot beat one thread by construction — the sweep is still
  run and printed so the trajectory is recorded);
* on an anomaly-heavy stream the batched recorder (``observe_batch`` +
  write buffering) records the same file with far fewer write calls, and at
  least as fast as, the per-window write-through recorder.

``REPRO_BENCH_FLEET_WORKERS`` (comma-separated counts, default ``1,2,4``)
overrides the sweep; ``benchmarks/run_benchmarks.py --fleet-workers`` sets
it from the command line.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.fleet import ShardedTraceMonitor
from repro.analysis.model import ReferenceModel
from repro.analysis.parallel import fork_transport_available
from repro.analysis.monitor import TraceMonitor
from repro.analysis.recorder import SelectiveTraceRecorder
from repro.config import DetectorConfig, MonitorConfig
from repro.trace.codec import encoded_window_sizes
from repro.trace.event import EventTypeRegistry
from repro.trace.generator import SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration

MIX = {
    "mb_row_decode": 10.0,
    "frame_decode_start": 1.0,
    "frame_decode_end": 1.0,
    "frame_display": 1.0,
    "vsync": 1.0,
    "audio_decode": 2.0,
    "buffer_push": 1.0,
    "buffer_pop": 1.0,
    "demux_packet": 1.0,
    "syscall_enter": 1.0,
    "syscall_exit": 1.0,
}

WINDOW_DURATION_US = 40_000
EVENT_RATE_PER_S = 10_000
N_STREAMS = 4
STREAM_DURATION_S = 6.0
BATCH_SIZE = 64
MIN_FLEET_SPEEDUP = 1.5
MIN_PARALLEL_SPEEDUP = 1.5


def _worker_sweep() -> tuple[int, ...]:
    """Worker counts for the parallel sweep (env-overridable)."""
    raw = os.environ.get("REPRO_BENCH_FLEET_WORKERS", "1,2,4")
    counts = tuple(
        int(item) for item in raw.split(",") if item.strip() and int(item) >= 1
    )
    return counts or (1, 2, 4)


@pytest.fixture(scope="module")
def fleet_setup():
    registry = EventTypeRegistry.with_default_types()
    reference_generator = SyntheticTraceGenerator(MIX, rate_per_s=EVENT_RATE_PER_S, seed=1)
    reference = list(
        windows_by_duration(reference_generator.events(40.0), WINDOW_DURATION_US)
    )
    model = ReferenceModel(k_neighbours=20).learn(reference, registry)
    streams = {}
    for position in range(N_STREAMS):
        generator = SyntheticTraceGenerator(
            MIX, rate_per_s=EVENT_RATE_PER_S, seed=10 + position
        )
        streams[f"stream-{position:02d}"] = list(
            windows_by_duration(generator.events(STREAM_DURATION_S), WINDOW_DURATION_US)
        )
    return model, registry, streams


DETECTOR_CONFIG = DetectorConfig(k_neighbours=20, lof_threshold=1.2)


def run_sequential(model, registry, streams):
    """The historical path: one per-window monitor per stream, one by one."""
    results = {}
    for label, windows in streams.items():
        monitor = TraceMonitor(
            DETECTOR_CONFIG,
            MonitorConfig(batch_size=1),
            EventTypeRegistry(registry.names),
        )
        results[label] = monitor.monitor_windows(iter(windows), model)
    return results


def run_fleet(model, registry, streams, workers=1):
    fleet = ShardedTraceMonitor(
        DETECTOR_CONFIG,
        MonitorConfig(batch_size=BATCH_SIZE, fleet_workers=workers),
        EventTypeRegistry(registry.names),
    )
    return fleet.monitor_shards(
        {label: iter(windows) for label, windows in streams.items()}, model
    )


def best_of(fn, repetitions=5):
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fleet_throughput_speedup(fleet_setup, benchmark):
    model, registry, streams = fleet_setup

    # Equivalence first: every shard must match its independent run.
    sequential = run_sequential(model, registry, streams)
    fleet_result = run_fleet(model, registry, streams)
    for label, solo in sequential.items():
        shard = fleet_result.shard(label)
        assert shard.decisions == solo.decisions
        assert shard.recorded_indices == solo.recorded_indices
        assert shard.report == solo.report

    n_windows = benchmark(lambda: run_fleet(model, registry, streams).n_windows)

    sequential_s = best_of(lambda: run_sequential(model, registry, streams))
    fleet_s = best_of(lambda: run_fleet(model, registry, streams))
    sequential_rate = n_windows / sequential_s
    fleet_rate = n_windows / fleet_s
    speedup = fleet_rate / sequential_rate
    print()
    print(
        f"sequential: {sequential_rate:,.0f} windows/s | "
        f"fleet({N_STREAMS} shards, batch {BATCH_SIZE}): {fleet_rate:,.0f} windows/s | "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_FLEET_SPEEDUP, (
        f"fleet only {speedup:.2f}x faster; expected >= {MIN_FLEET_SPEEDUP}x"
    )


#: Shards in the worker-sweep fleet: the four generated streams replicated
#: (new labels, same window lists) so per-run compute dominates the pool's
#: fixed start-up and result-marshalling overhead.
SWEEP_N_SHARDS = 16

#: Timing waves of the worker sweep.  Each wave runs every arm (the serial
#: baseline included) once, so a burst of load from other processes on the
#: host slows all arms of that wave alike; each arm keeps its best wave.
SWEEP_WAVES = 7


def interleaved_best_of(arms, waves):
    """Best wall time per arm, running every arm once per wave.

    The arm order alternates between waves, so no arm always runs first
    (cold caches) or last (after the others warmed the pool's machinery).
    """
    best = {name: float("inf") for name in arms}
    order = list(arms)
    for _ in range(waves):
        for name in order:
            start = time.perf_counter()
            arms[name]()
            best[name] = min(best[name], time.perf_counter() - start)
        order.reverse()
    return best


def test_fleet_worker_sweep(fleet_setup, benchmark):
    """Worker-count sweep: bit-identical results, multi-core speedup.

    Equivalence against the single-thread fleet is asserted for every worker
    count unconditionally; the >= 1.5x windows/s speedup of the best
    multi-worker configuration is asserted only when the machine actually
    has more than one core to scale onto.
    """
    model, registry, base_streams = fleet_setup
    window_lists = list(base_streams.values())
    streams = {
        f"sweep-{position:02d}": window_lists[position % len(window_lists)]
        for position in range(SWEEP_N_SHARDS)
    }
    sweep = _worker_sweep()
    serial_reference = run_fleet(model, registry, streams).to_dict()
    n_windows = serial_reference["fleet"]["n_windows"]

    for workers in sweep:
        result = run_fleet(model, registry, streams, workers=workers)
        assert result.to_dict() == serial_reference, (
            f"fleet with {workers} workers diverged from the serial fleet"
        )

    # The serial baseline is timed in the same waves as the parallel arms.
    load_before = os.getloadavg()
    best = interleaved_best_of(
        {
            workers: lambda workers=workers: run_fleet(
                model, registry, streams, workers=workers
            )
            for workers in sorted(set(sweep) | {1})
        },
        SWEEP_WAVES,
    )
    load_after = os.getloadavg()
    rates = {workers: n_windows / elapsed for workers, elapsed in best.items()}
    serial_rate = rates[1]
    benchmark.extra_info.update(
        loadavg_before=list(load_before),
        loadavg_after=list(load_after),
        windows_per_s={str(workers): rate for workers, rate in rates.items()},
    )

    bench_workers = max(
        (count for count in sweep if count > 1), default=max(sweep)
    )
    benchmark(
        lambda: run_fleet(model, registry, streams, workers=bench_workers).n_windows
    )

    print()
    print(
        "fleet worker sweep: "
        + " | ".join(
            f"{workers}w {rate:,.0f} windows/s ({rate / serial_rate:.2f}x)"
            for workers, rate in sorted(rates.items())
        )
        + f" | loadavg {load_before[0]:.2f} -> {load_after[0]:.2f}"
    )
    parallel_rates = {w: r for w, r in rates.items() if w > 1}
    if not parallel_rates:
        pytest.skip("sweep contained no multi-worker configuration")
    best_workers, best_rate = max(parallel_rates.items(), key=lambda item: item[1])
    cpu_count = os.cpu_count() or 1
    if cpu_count < 2 or not fork_transport_available():
        # One core cannot beat one thread by construction, and without the
        # zero-copy fork transport the windows travel through the pickle
        # queue, which costs more than scoring them on this workload.
        # Equivalence was still asserted above; only the timing claim is
        # waived.
        reason = (
            f"single-core machine ({cpu_count} cpu)"
            if cpu_count < 2
            else "no fork window transport (spawn/forkserver platform)"
        )
        print(
            f"{reason}: skipping the >= {MIN_PARALLEL_SPEEDUP}x speedup "
            f"assertion (best: {best_workers} workers at "
            f"{best_rate / serial_rate:.2f}x)"
        )
        return
    assert best_rate >= MIN_PARALLEL_SPEEDUP * serial_rate, (
        f"parallel fleet only {best_rate / serial_rate:.2f}x the single-thread "
        f"fleet with {best_workers} workers on {cpu_count} cpus; "
        f"expected >= {MIN_PARALLEL_SPEEDUP}x (1-min loadavg "
        f"{load_before[0]:.2f} before, {load_after[0]:.2f} after timing)"
    )


def test_batched_recorder_io_reduces_recording_overhead(fleet_setup, tmp_path):
    """Anomaly-heavy recording: batched IO must write the identical file
    with far fewer write calls, at least as fast as write-through."""
    _, _, streams = fleet_setup
    windows = next(iter(streams.values()))
    sizes = encoded_window_sizes(windows)
    flags = [True] * len(windows)  # worst case: everything is recorded

    def record_write_through():
        recorder = SelectiveTraceRecorder(
            output_path=tmp_path / "write_through.jsonl", io_buffer_bytes=0
        )
        for window, size in zip(windows, sizes):
            recorder.observe(window, record=True, window_bytes=size)
        recorder.close()
        return recorder

    def record_buffered():
        recorder = SelectiveTraceRecorder(
            output_path=tmp_path / "buffered.jsonl", io_buffer_bytes=256 * 1024
        )
        recorder.observe_batch(windows, flags, window_bytes=sizes)
        recorder.close()
        return recorder

    write_through = record_write_through()
    buffered = record_buffered()
    assert (tmp_path / "buffered.jsonl").read_text() == (
        tmp_path / "write_through.jsonl"
    ).read_text()
    assert buffered.report() == write_through.report()
    # One write per recorded window versus one write per 256 KiB.
    assert buffered.io_write_count * 4 <= write_through.io_write_count

    write_through_s = best_of(record_write_through, repetitions=7)
    buffered_s = best_of(record_buffered, repetitions=7)
    speedup = write_through_s / buffered_s
    print()
    print(
        f"write-through: {write_through_s * 1e3:.1f} ms "
        f"({write_through.io_write_count} writes) | "
        f"buffered: {buffered_s * 1e3:.1f} ms ({buffered.io_write_count} writes) | "
        f"recording speedup {speedup:.2f}x"
    )
    # JSON encoding dominates both paths equally, so wall-clock parity is
    # expected; the write-call reduction above is the hard claim and the
    # timing line is informational (a strict bound flakes on noisy
    # single-core CI machines).
