"""Bounded producer/consumer hand-off between ingest and scoring.

The columnar ingest plane removed per-event Python from the windowing hot
path, but a file-fed monitor still alternates between two phases: building
the next :class:`~repro.trace.batch.WindowBatch` (decode, mapping, byte
accounting — Python and small-array work) and scoring it (NumPy kernels).
:func:`prefetch_batches` overlaps the two with one background thread and a
bounded queue: the producer stays at most ``depth`` batches ahead, so memory
is capped at ``depth`` batches regardless of file size.

The queue itself is :class:`BoundedHandoff`, which mirrors the accounting
policy of :class:`repro.media.bufferqueue.FrameBuffer` on the media side:
an explicit bounded depth, counted stalls on both ends (a producer stall is
the threaded analogue of a frame-buffer overrun, a consumer stall of an
underrun), a peak-occupancy watermark, and periodic level samples.  The
same hand-off backs the streaming sources in
:mod:`repro.trace.streaming` and the chunked per-shard channels of the
parallel fleet backend, so every inter-stage queue in the ingest plane
reports the same statistics.

Ordering is preserved, exceptions raised by the producer surface in the
consumer at the point of the failed batch, and abandoning the iterator
(``close()`` / garbage collection of the generator) stops the producer
thread promptly.  A producer thread that dies *without* posting its
completion sentinel (e.g. killed by the interpreter shutting down, or a
bug that escapes its exception handler) surfaces as a
:class:`~repro.errors.TraceStreamError` instead of blocking the consumer
forever.  Registry growth performed by the producer is safe to observe
from the consumer: a batch is only handed over *after* its types are
registered, and the queue crossing orders those writes before the
consumer's reads.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, TypeVar

from ..errors import ConfigurationError, TraceStreamError

__all__ = ["BoundedHandoff", "HandoffStats", "prefetch_batches"]

T = TypeVar("T")

#: How long the producer waits on a full queue before re-checking whether
#: the consumer is gone.  Purely a shutdown-latency knob.
_PUT_POLL_S = 0.05

#: How long the consumer waits on an empty queue before re-checking whether
#: the producer is still alive.  Purely a failure-detection-latency knob.
_GET_POLL_S = 0.05

#: Sample the queue occupancy once every this many completed operations.
_LEVEL_SAMPLE_EVERY = 32

#: Bound on retained occupancy samples (old samples are discarded first).
_MAX_LEVEL_SAMPLES = 256


@dataclass
class HandoffStats:
    """Occupancy and contention counters for one :class:`BoundedHandoff`.

    Mirrors the :class:`~repro.media.bufferqueue.FrameBuffer` policy:
    ``put_stalls`` counts the times a producer found the queue full
    (overrun pressure — the stage upstream outruns the stage downstream)
    and ``get_stalls`` the times a consumer found it empty (underrun
    pressure), alongside a peak-occupancy watermark and periodic level
    samples.
    """

    depth: int = 0
    puts: int = 0
    gets: int = 0
    put_stalls: int = 0
    get_stalls: int = 0
    peak_level: int = 0
    level_samples: List[int] = field(default_factory=list)

    def fill_fraction(self) -> float:
        """Peak occupancy as a fraction of capacity."""
        return self.peak_level / self.depth if self.depth else 0.0


class BoundedHandoff:
    """Bounded FIFO between pipeline stages with frame-buffer accounting.

    A thin wrapper over :class:`queue.Queue` whose blocking operations
    poll so that the waiting side can notice shutdown (producer: the
    consumer abandoned the iterator; consumer: the producer thread died)
    instead of blocking forever, and which counts stalls / samples
    occupancy as it goes.
    """

    def __init__(self, depth: int, stats: HandoffStats | None = None) -> None:
        if depth <= 0:
            raise TraceStreamError(
                f"hand-off queue depth must be >= 1 (got {depth})"
            )
        self._queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self._lock = threading.Lock()
        self._ops = 0
        self.stats = stats if stats is not None else HandoffStats()
        self.stats.depth = int(depth)

    @property
    def depth(self) -> int:
        return self.stats.depth

    @property
    def level(self) -> int:
        """Approximate current occupancy."""
        return self._queue.qsize()

    def _record(self, *, put: bool) -> None:
        level = self._queue.qsize()
        with self._lock:
            if put:
                self.stats.puts += 1
                if level > self.stats.peak_level:
                    self.stats.peak_level = level
            else:
                self.stats.gets += 1
            self._ops += 1
            if self._ops % _LEVEL_SAMPLE_EVERY == 0:
                samples = self.stats.level_samples
                samples.append(level)
                if len(samples) > _MAX_LEVEL_SAMPLES:
                    del samples[: len(samples) - _MAX_LEVEL_SAMPLES]

    def put(
        self,
        item: T,
        stop: threading.Event | None = None,
        poll_s: float = _PUT_POLL_S,
    ) -> bool:
        """Block until ``item`` is queued; return ``False`` if ``stop`` fired.

        The first full-queue wait of each call is counted as one producer
        stall, however long it lasts.
        """
        stalled = False
        while stop is None or not stop.is_set():
            try:
                self._queue.put(item, timeout=poll_s)
            except queue.Full:
                if not stalled:
                    stalled = True
                    with self._lock:
                        self.stats.put_stalls += 1
                continue
            self._record(put=True)
            return True
        return False

    def get(
        self,
        keep_waiting: Callable[[], bool] | None = None,
        poll_s: float = _GET_POLL_S,
    ) -> T:
        """Block until an item arrives; raise :class:`queue.Empty` on abort.

        ``keep_waiting`` is consulted after each empty poll — when it
        returns ``False`` (e.g. the producer thread is no longer alive),
        one final non-blocking drain is attempted before giving up, so an
        item posted between the poll and the liveness check is not lost.
        The first empty-queue wait of each call counts as one consumer
        stall.
        """
        stalled = False
        while True:
            try:
                item = self._queue.get(timeout=poll_s)
            except queue.Empty:
                if not stalled:
                    stalled = True
                    with self._lock:
                        self.stats.get_stalls += 1
                if keep_waiting is not None and not keep_waiting():
                    item = self._queue.get_nowait()  # may re-raise Empty
                else:
                    continue
            self._record(put=False)
            return item

    def get_nowait(self) -> T:
        item = self._queue.get_nowait()
        self._record(put=False)
        return item

    def drain(self) -> int:
        """Discard queued items (so a blocked producer can observe a stop)."""
        discarded = 0
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                return discarded
            discarded += 1


def _check_prefetch(prefetch_batches: int) -> None:
    """Reject negative prefetch depths instead of silently disabling."""
    if prefetch_batches < 0:
        raise ConfigurationError(
            f"prefetch_batches must be >= 0 (got {prefetch_batches}); "
            "use 0 to disable prefetching"
        )


def prefetch_batches(
    iterable: Iterable[T],
    depth: int,
    stats: HandoffStats | None = None,
) -> Iterator[T]:
    """Iterate ``iterable`` through a ``depth``-bounded background producer.

    ``depth <= 0`` disables the thread entirely (plain iteration), so call
    sites can expose a single knob.  ``stats``, when given, is populated
    with the hand-off queue's occupancy/stall counters.

    Raises :class:`~repro.errors.TraceStreamError` if the producer thread
    dies without delivering either a completion sentinel or an error —
    previously this condition blocked the consumer in ``handoff.get()``
    forever.
    """
    if depth <= 0:
        yield from iterable
        return

    handoff: BoundedHandoff = BoundedHandoff(depth, stats=stats)
    stop = threading.Event()

    def _produce() -> None:
        try:
            for item in iterable:
                if not handoff.put(("item", item), stop=stop):
                    return
            handoff.put(("done", None), stop=stop)
        except BaseException as exc:  # noqa: BLE001 - re-raised consumer-side
            handoff.put(("error", exc), stop=stop)

    producer = threading.Thread(
        target=_produce, name="repro-ingest-prefetch", daemon=True
    )
    producer.start()
    try:
        while True:
            try:
                kind, value = handoff.get(keep_waiting=producer.is_alive)
            except queue.Empty:
                raise TraceStreamError(
                    "ingest prefetch producer thread died without delivering "
                    "a batch or a completion sentinel"
                ) from None
            if kind == "item":
                yield value
            elif kind == "error":
                raise value
            else:
                return
    finally:
        stop.set()
        # Drain so a producer blocked on a full queue can observe the stop.
        handoff.drain()
        producer.join(timeout=5.0)
