"""Fault-tolerance bookkeeping must be free when nothing faults.

``MonitorConfig.shard_failure_policy="isolate"`` wraps every shard in
outcome tracking, per-attempt fault hooks and (in the parallel backend) a
wave loop that can resubmit failed shards.  All of that is bookkeeping
around the scoring plane — on a fault-free fleet it must cost nothing
measurable:

* a 16-shard fault-free fleet under ``isolate`` (with a retry budget
  armed) runs within 5% of the same fleet under the default ``abort``
  policy, and produces a bit-identical result;
* the dormant fault-injection hooks (:func:`repro.testing.faults.fault_point`
  with no plan armed) are a single environment lookup — sub-microsecond —
  so sprinkling them through per-batch code paths is safe.
"""

from __future__ import annotations

import os
import time

from repro.analysis.fleet import ShardedTraceMonitor
from repro.analysis.model import ReferenceModel
from repro.config import DetectorConfig, MonitorConfig
from repro.testing import fault_point
from repro.trace.event import EventTypeRegistry
from repro.trace.generator import SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration

from test_bench_fleet import (
    EVENT_RATE_PER_S,
    MIX,
    WINDOW_DURATION_US,
    interleaved_best_of,
)

N_SHARDS = 16
STREAM_DURATION_S = 4.0
BATCH_SIZE = 64
MAX_ISOLATE_OVERHEAD = 0.05

#: Timing waves; each runs both policies once, so host load hits both alike.
TIMING_WAVES = 7

DETECTOR_CONFIG = DetectorConfig(k_neighbours=20, lof_threshold=1.2)


def _setup():
    registry = EventTypeRegistry.with_default_types()
    reference_generator = SyntheticTraceGenerator(
        MIX, rate_per_s=EVENT_RATE_PER_S, seed=1
    )
    reference = list(
        windows_by_duration(reference_generator.events(40.0), WINDOW_DURATION_US)
    )
    model = ReferenceModel(k_neighbours=20).learn(reference, registry)
    streams = {}
    for position in range(N_SHARDS):
        generator = SyntheticTraceGenerator(
            MIX, rate_per_s=EVENT_RATE_PER_S, seed=50 + position
        )
        streams[f"shard-{position:02d}"] = list(
            windows_by_duration(
                generator.events(STREAM_DURATION_S), WINDOW_DURATION_US
            )
        )
    return model, registry, streams


def _run(model, registry, streams, **config_kwargs):
    fleet = ShardedTraceMonitor(
        DETECTOR_CONFIG,
        MonitorConfig(batch_size=BATCH_SIZE, **config_kwargs),
        EventTypeRegistry(registry.names),
    )
    return fleet.monitor_shards(dict(streams), model)


def test_isolate_policy_overhead_on_fault_free_fleet(benchmark):
    model, registry, streams = _setup()

    abort_result = _run(model, registry, streams)
    isolate_result = _run(
        model,
        registry,
        streams,
        shard_failure_policy="isolate",
        shard_retries=2,
    )
    assert not isolate_result.degraded
    assert isolate_result.to_dict()["fleet"] == abort_result.to_dict()["fleet"]
    assert isolate_result.to_dict()["shards"] == abort_result.to_dict()["shards"]

    n_windows = benchmark(
        lambda: _run(
            model,
            registry,
            streams,
            shard_failure_policy="isolate",
            shard_retries=2,
        ).n_windows
    )

    load_before = os.getloadavg()
    best = interleaved_best_of(
        {
            "abort": lambda: _run(model, registry, streams),
            "isolate": lambda: _run(
                model,
                registry,
                streams,
                shard_failure_policy="isolate",
                shard_retries=2,
            ),
        },
        TIMING_WAVES,
    )
    load_after = os.getloadavg()
    benchmark.extra_info.update(
        loadavg_before=list(load_before), loadavg_after=list(load_after)
    )
    abort_s, isolate_s = best["abort"], best["isolate"]
    overhead = isolate_s / abort_s - 1.0
    print()
    print(
        f"fault-free {N_SHARDS}-shard fleet ({n_windows} windows): "
        f"abort {n_windows / abort_s:,.0f} windows/s | "
        f"isolate+retries {n_windows / isolate_s:,.0f} windows/s | "
        f"overhead {overhead * 100:+.1f}%"
    )
    assert overhead <= MAX_ISOLATE_OVERHEAD, (
        f"isolate bookkeeping costs {overhead * 100:.1f}% on a fault-free "
        f"fleet; expected <= {MAX_ISOLATE_OVERHEAD * 100:.0f}% (1-min loadavg "
        f"{load_before[0]:.2f} before, {load_after[0]:.2f} after timing)"
    )


def test_dormant_fault_hooks_are_nearly_free(monkeypatch):
    from repro.testing import faults

    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        fault_point("shard.batch")
    per_call_ns = (time.perf_counter() - start) / calls * 1e9
    print(f"\ndormant fault_point: {per_call_ns:.0f} ns/call")
    # A dormant hook is one os.environ lookup; anything beyond 5 us/call
    # would mean the harness accidentally grew work on the hot path.
    assert per_call_ns < 5_000
