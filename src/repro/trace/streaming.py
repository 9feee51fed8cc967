"""Streaming columnar ingest: live trace sources as window-batch streams.

The columnar plane (:mod:`repro.trace.columns`, :mod:`repro.trace.stream`)
decodes *complete* files; production monitoring means unbounded sources — a
trace file still being appended by the tracing hardware, or a pipe/socket
delivering buffer flushes.  This module closes that gap:

* :class:`FileTail` — follow a (possibly still-growing, possibly not yet
  created) file, yielding byte chunks as they are appended, with a poll
  interval, an optional idle timeout and a stop event;
* :class:`PushFeed` — a thread-safe byte feed for pipes/sockets: a producer
  thread ``write()``\\ s chunks and the ingest side iterates them through a
  bounded :class:`~repro.trace.pipeline.BoundedHandoff`, so a slow consumer
  exerts backpressure on the producer instead of buffering without bound;
* :class:`StreamingWindowSource` — the heart of the module: consumes byte
  chunks through the resumable decoders
  (:class:`~repro.trace.columns.BinaryColumnsDecoder` /
  :class:`~repro.trace.columns.JsonColumnsDecoder`), cuts windows
  incrementally as events arrive, and emits
  :class:`~repro.trace.batch.WindowBatch` micro-batches that are **bit
  identical** to a one-shot read of the final file — same window extents,
  same registry growth, same byte accounting, same lazily materialised
  events.  It is a thin driver over the columnar windowing kernels of
  :mod:`repro.trace.stream` (cut, code mapping, batch assembly), the same
  ones the one-shot :class:`~repro.trace.stream.ColumnarWindowSource`
  drives.  Memory stays bounded: events whose batch has been handed over
  are dropped when the next chunk is buffered.

Every inter-stage queue follows the overrun/underrun policy of
:class:`repro.media.bufferqueue.FrameBuffer`: explicit bounded depth,
counted stalls on both ends, and occupancy sampling (see
:class:`~repro.trace.pipeline.HandoffStats`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import chain as _chain
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from ..errors import TraceFormatError, TraceStreamError
from ..testing.faults import corrupt_chunk
from .batch import WindowBatch
from .codec import _MAGIC
from .columns import BinaryColumnsDecoder, JsonColumnsDecoder, TraceColumns
from .event import EventTypeRegistry, TraceEvent
from .pipeline import BoundedHandoff, HandoffStats
from .stream import (
    ColumnWindowLayout,
    WindowPolicy,
    _build_layout_batch,
    _check_sorted_columns,
    _ColumnCodeMapper,
    _empty_layout,
    column_windows_by_count,
    column_windows_by_duration,
    materialize_layout_windows,
)
from .window import TraceWindow

__all__ = [
    "FileTail",
    "PushFeed",
    "StreamRecipe",
    "StreamStats",
    "StreamingWindowSource",
]


# ---------------------------------------------------------------------- #
# Byte-chunk sources
# ---------------------------------------------------------------------- #
class FileTail:
    """Iterate the bytes of a possibly still-growing trace file.

    Yields chunks of at most ``chunk_bytes`` as the file grows.  The
    iteration ends when ``stop`` is set or when the file has not grown for
    ``idle_timeout_s`` seconds (``None`` follows forever, like
    ``tail -f``).  A file that does not exist yet is waited for under the
    same idle/stop rules, so a monitor can be pointed at a trace path
    before the tracer creates it.
    """

    def __init__(
        self,
        path: "Path | str",
        poll_interval_s: float = 0.05,
        idle_timeout_s: float | None = None,
        stop: threading.Event | None = None,
        chunk_bytes: int = 1 << 20,
    ) -> None:
        if poll_interval_s <= 0:
            raise TraceStreamError(
                f"poll_interval_s must be positive (got {poll_interval_s})"
            )
        if idle_timeout_s is not None and idle_timeout_s < 0:
            raise TraceStreamError(
                f"idle_timeout_s must be >= 0 or None (got {idle_timeout_s})"
            )
        if chunk_bytes <= 0:
            raise TraceStreamError(
                f"chunk_bytes must be positive (got {chunk_bytes})"
            )
        self.path = Path(path)
        self.poll_interval_s = float(poll_interval_s)
        self.idle_timeout_s = (
            None if idle_timeout_s is None else float(idle_timeout_s)
        )
        self.chunk_bytes = int(chunk_bytes)
        self._stop = stop if stop is not None else threading.Event()
        self.bytes_read = 0

    def stop(self) -> None:
        """Ask the iteration to end at the next poll."""
        self._stop.set()

    def __iter__(self) -> Iterator[bytes]:
        handle = None
        deadline: float | None = None
        try:
            while not self._stop.is_set():
                if handle is None and self.path.exists():
                    handle = self.path.open("rb")
                if handle is not None:
                    data = handle.read(self.chunk_bytes)
                    if data:
                        deadline = None
                        self.bytes_read += len(data)
                        yield data
                        continue
                if self.idle_timeout_s is not None:
                    now = time.monotonic()
                    if deadline is None:
                        deadline = now + self.idle_timeout_s
                    if now >= deadline:
                        return
                time.sleep(self.poll_interval_s)
        finally:
            if handle is not None:
                handle.close()


class PushFeed:
    """Thread-safe byte feed with backpressure, for pipes and sockets.

    A producer thread (reading a socket, a subprocess pipe, …) calls
    :meth:`write` with byte chunks and :meth:`close` at end-of-stream; the
    ingest side iterates the feed.  The hand-off queue is bounded, so a
    producer that outruns the monitor blocks in :meth:`write` (one counted
    stall per wait) instead of buffering without bound.  Abandoning the
    consuming iterator unblocks any stuck writer with a
    :class:`~repro.errors.TraceStreamError`.
    """

    _DONE = ("done", None)

    def __init__(self, depth: int = 8, stats: HandoffStats | None = None) -> None:
        self._handoff: BoundedHandoff = BoundedHandoff(depth, stats=stats)
        self._closed = False
        self._abandoned = threading.Event()

    @property
    def stats(self) -> HandoffStats:
        """Occupancy/stall counters of the feed's hand-off queue."""
        return self._handoff.stats

    def write(self, data: bytes) -> None:
        """Queue ``data``, blocking while the monitor is ``depth`` behind."""
        if self._closed:
            raise TraceStreamError("cannot write to a closed feed")
        if not data:
            return
        if not self._handoff.put(("item", bytes(data)), stop=self._abandoned):
            raise TraceStreamError("feed consumer is gone (iterator abandoned)")

    def close(self) -> None:
        """Mark end-of-stream (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._handoff.put(self._DONE, stop=self._abandoned)

    def __iter__(self) -> Iterator[bytes]:
        try:
            while True:
                kind, value = self._handoff.get()
                if kind == "done":
                    return
                yield value
        finally:
            self._abandoned.set()
            self._handoff.drain()


# ---------------------------------------------------------------------- #
# Streaming windowing
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamRecipe:
    """Windowing parameters of a streaming source (picklable).

    ``format`` applies to byte feeds only: ``"auto"`` sniffs the first
    four bytes for the binary magic, exactly like the file reader.
    ``window_duration_us`` left at ``None`` defers to the monitor
    configuration at activation, mirroring
    :class:`~repro.trace.stream.ColumnarWindowSource`.

    ``on_corrupt`` selects how the chunk decoders treat mangled records:
    ``"raise"`` (default) fails the stream on the first corrupt byte,
    ``"skip"`` quarantines the damaged region, resynchronises, and counts
    the loss in :class:`StreamStats` (``corrupt_records`` /
    ``corrupt_offsets``).
    """

    format: str = "auto"
    policy: WindowPolicy = WindowPolicy.BY_DURATION
    window_duration_us: int | None = None
    events_per_window: int = 256
    start_us: int = 0
    emit_empty: bool = True
    on_corrupt: str = "raise"

    def __post_init__(self) -> None:
        if self.format not in {"auto", "binary", "jsonl"}:
            raise TraceStreamError(f"unknown stream format: {self.format!r}")
        if self.window_duration_us is not None and self.window_duration_us <= 0:
            raise TraceStreamError("window_duration_us must be positive")
        if self.events_per_window <= 0:
            raise TraceStreamError("events_per_window must be positive")
        if self.on_corrupt not in {"raise", "skip"}:
            raise TraceStreamError(
                f"on_corrupt must be 'raise' or 'skip', got {self.on_corrupt!r}"
            )


@dataclass
class StreamStats:
    """Progress and memory-bound accounting of one streaming source."""

    chunks: int = 0
    events: int = 0
    windows: int = 0
    batches: int = 0
    #: High-water mark of decoded events buffered at once — the quantity
    #: the bounded-memory guarantee is about: it tracks batch size and
    #: window extent, not source size.
    peak_buffered_events: int = 0
    feed: HandoffStats | None = None
    #: Corrupt regions skipped by the decoder (``on_corrupt="skip"`` only):
    #: count, plus where each began — absolute byte offsets for binary
    #: streams, 1-based line numbers for JSON-lines streams.
    corrupt_records: int = 0
    corrupt_offsets: "tuple[int, ...]" = ()


class _ChunkChain:
    """Decoded chunks backing a span of the stream buffer.

    Each entry pairs a chunk with the buffer index of its first event;
    :meth:`events` duck-types :meth:`TraceColumns.events
    <repro.trace.columns.TraceColumns.events>` across chunk boundaries, so
    the shared batch builder and :func:`~repro.trace.stream.materialize_layout_windows`
    read a stream exactly as they read a one-shot trace.
    """

    __slots__ = ("_chunks",)

    def __init__(self, chunks: Iterable[Tuple[int, TraceColumns]]) -> None:
        self._chunks = tuple(chunks)

    def events(self, start: int, stop: int) -> tuple[TraceEvent, ...]:
        parts = [
            chunk.events(max(start, first) - first, min(stop, first + len(chunk)) - first)
            for first, chunk in self._chunks
            if first < stop and first + len(chunk) > start
        ]
        if len(parts) == 1:
            return parts[0]
        return tuple(_chain.from_iterable(parts))


def _rebase(layout: ColumnWindowLayout, first: int, shift: int) -> ColumnWindowLayout:
    """Windows ``first..`` of ``layout``, their event offsets moved by ``-shift``."""
    return ColumnWindowLayout(
        event_offsets=layout.event_offsets[first:] - shift,
        indices=layout.indices[first:],
        start_us=layout.start_us[first:],
        end_us=layout.end_us[first:],
    )


def _append(
    layout: ColumnWindowLayout, tail: ColumnWindowLayout, shift: int
) -> ColumnWindowLayout:
    """``layout`` followed by ``tail``, whose offsets start ``shift`` events in."""
    return ColumnWindowLayout(
        event_offsets=np.concatenate((layout.event_offsets, tail.event_offsets[1:] + shift)),
        indices=np.concatenate((layout.indices, tail.indices)),
        start_us=np.concatenate((layout.start_us, tail.start_us)),
        end_us=np.concatenate((layout.end_us, tail.end_us)),
    )


def _join(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    return np.concatenate((head, tail)) if len(head) else tail


class StreamingWindowSource:
    """A live trace stream as monitor-ready window batches, bounded memory.

    Construct from ``byte_chunks`` (any iterable of byte chunks — a
    :class:`FileTail`, a :class:`PushFeed`, a socket reader) or from
    ``columns_chunks`` (already-decoded :class:`TraceColumns` chunks, as
    shipped over the parallel fleet's per-shard channels).  The source is
    single-pass and duck-types
    :meth:`~repro.trace.stream.ColumnarWindowSource.batches`, so it is
    accepted anywhere a fleet shard is.

    The emitted batches are bit-identical to a one-shot columnar read of
    the final stream contents: same window layout, same registry growth
    order, same ``dims``/byte-size accounting, same lazily materialised
    events.  Each pump buffers one chunk; once the buffered span completes
    enough windows to fill a batch, all of them are cut in one array call.
    Events whose batch has been yielded are dropped when the next chunk is
    buffered, so the buffered high-water mark
    (``stats.peak_buffered_events``) scales with the chunk size plus
    ``batch_size`` times the window event count — never with the stream
    length.
    """

    def __init__(
        self,
        byte_chunks: Iterable[bytes] | None = None,
        *,
        columns_chunks: Iterable[TraceColumns] | None = None,
        recipe: StreamRecipe | None = None,
        stats: StreamStats | None = None,
    ) -> None:
        if (byte_chunks is None) == (columns_chunks is None):
            raise TraceStreamError(
                "exactly one of byte_chunks / columns_chunks must be given"
            )
        self.recipe = recipe if recipe is not None else StreamRecipe()
        self.stats = stats if stats is not None else StreamStats()
        self._byte_chunks = byte_chunks
        self._columns_chunks = columns_chunks
        self._columns_iter: Iterator[TraceColumns] | None = None
        self._exhausted = False
        self._batches_started = False
        self._duration: int | None = None
        # Stream-global type table (first-appearance order across chunks).
        self._global_names: list[str] = []
        self._global_codes: dict[str, int] = {}
        self._last_ts: int | None = None
        # Buffered events in global type codes.  Its arrays back the batch
        # builder; events materialise from the chunks in ``_chunks``, each
        # paired with the buffer index of its first event.
        self._buffer = TraceColumns(
            timestamps_us=np.empty(0, dtype=np.int64),
            type_codes=np.empty(0, dtype=np.int32),
            cores=np.empty(0, dtype=np.int64),
            type_names=(),
            static_sizes=np.empty(0, dtype=np.int64),
            source_kind="events",
        )
        self._chunks: List[Tuple[int, TraceColumns]] = []
        # Windows cut so far but not yet handed over (offsets index the
        # buffer); ``_cursor`` is the first one not yet in a batch.
        self._pending = _empty_layout()
        self._cursor = 0
        self._windows_cut = 0
        # Where the next cut resumes: the buffer's first unassigned event,
        # the first uncut slot (BY_DURATION) and the last timestamp of the
        # previous window (BY_COUNT).
        self._cut = 0
        self._next_start_us = self.recipe.start_us
        self._previous_last_us: int | None = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def follow(
        cls,
        path: "Path | str",
        *,
        recipe: StreamRecipe | None = None,
        poll_interval_s: float = 0.05,
        idle_timeout_s: float | None = None,
        stop: threading.Event | None = None,
        chunk_bytes: int = 1 << 20,
        stats: StreamStats | None = None,
    ) -> "StreamingWindowSource":
        """Follow ``path`` as it grows (see :class:`FileTail`)."""
        tail = FileTail(
            path,
            poll_interval_s=poll_interval_s,
            idle_timeout_s=idle_timeout_s,
            stop=stop,
            chunk_bytes=chunk_bytes,
        )
        source = cls(byte_chunks=tail, recipe=recipe, stats=stats)
        source.tail = tail
        return source

    # ------------------------------------------------------------------ #
    # Chunk intake
    # ------------------------------------------------------------------ #
    def _ensure_started(self, default_window_duration_us: int) -> None:
        if self._columns_iter is not None:
            return
        duration = (
            self.recipe.window_duration_us
            if self.recipe.window_duration_us is not None
            else default_window_duration_us
        )
        if duration <= 0:
            raise TraceStreamError("window_duration_us must be positive")
        self._duration = int(duration)
        if self._columns_chunks is not None:
            self._columns_iter = iter(self._columns_chunks)
        else:
            self._columns_iter = self._decode_chunks(self._byte_chunks)

    def _decode_chunks(self, byte_chunks: Iterable[bytes]) -> Iterator[TraceColumns]:
        fmt = self.recipe.format
        head = b""
        decoder = None
        for raw in byte_chunks:
            if not raw:
                continue
            data = corrupt_chunk("stream.chunk", bytes(raw))
            if decoder is None:
                head += data
                if fmt == "auto" and len(head) < 4:
                    continue
                decoder = self._make_decoder(head, fmt)
                data, head = head, b""
            columns = decoder.feed(data)
            self._note_corruption(decoder)
            if len(columns):
                yield columns
        if decoder is None:
            if not head:
                # Streaming analogue of the reader's empty-file error: the
                # stream *ended* (stop / idle timeout) without any bytes.
                raise TraceFormatError("empty trace stream")
            decoder = self._make_decoder(head, fmt)
            columns = decoder.feed(head)
            self._note_corruption(decoder)
            if len(columns):
                yield columns
        tail = decoder.finish()
        self._note_corruption(decoder)
        if len(tail):
            yield tail

    def _make_decoder(
        self, head: bytes, fmt: str
    ) -> "BinaryColumnsDecoder | JsonColumnsDecoder":
        if fmt == "auto":
            fmt = "binary" if _MAGIC.startswith(head[:4]) else "jsonl"
        on_corrupt = self.recipe.on_corrupt
        if fmt == "binary":
            return BinaryColumnsDecoder(on_corrupt=on_corrupt)
        return JsonColumnsDecoder(on_corrupt=on_corrupt)

    def _note_corruption(
        self, decoder: "BinaryColumnsDecoder | JsonColumnsDecoder"
    ) -> None:
        """Mirror the decoder's corruption tally into the stream stats."""
        if decoder.corrupt_records != self.stats.corrupt_records:
            self.stats.corrupt_records = decoder.corrupt_records
            self.stats.corrupt_offsets = decoder.corrupt_offsets

    def columns_chunks(self) -> Iterator[TraceColumns]:
        """The decoded chunk stream itself (single-pass; for shard feeders).

        Consuming this bypasses the windowing machinery — used by the
        parallel fleet, whose parent process pumps decoded chunks over a
        bounded channel while the worker rebuilds an identical source from
        them (:meth:`with_columns_chunks`).
        """
        if self._batches_started or self._columns_iter is not None:
            raise TraceStreamError("stream already consumed")
        self._batches_started = True
        if self._columns_chunks is not None:
            return iter(self._columns_chunks)
        return self._decode_chunks(self._byte_chunks)

    def with_columns_chunks(
        self, columns_chunks: Iterable[TraceColumns]
    ) -> "StreamingWindowSource":
        """A fresh source with the same recipe over pre-decoded chunks."""
        return StreamingWindowSource(
            columns_chunks=columns_chunks, recipe=self.recipe
        )

    def _pump(self) -> bool:
        """Advance by one chunk; ``False`` once exhausted (and finalised)."""
        if self._exhausted:
            return False
        assert self._columns_iter is not None
        try:
            chunk = next(self._columns_iter)
        except StopIteration:
            self._exhausted = True
            self._cut_windows(final=True)
            return False
        self._extend(chunk)
        return True

    def _extend(self, chunk: TraceColumns) -> None:
        self.stats.chunks += 1
        n = len(chunk)
        if n:
            remap = np.empty(len(chunk.type_names), dtype=np.int32)
            for local, name in enumerate(chunk.type_names):
                code = self._global_codes.get(name)
                if code is None:
                    code = len(self._global_names)
                    self._global_codes[name] = code
                    self._global_names.append(name)
                remap[local] = code
            timestamps = chunk.timestamps_us
            first_ts = int(timestamps[0])
            if self._last_ts is not None and first_ts < self._last_ts:
                raise TraceStreamError(
                    "event stream is not sorted by timestamp "
                    f"({first_ts} after {self._last_ts})"
                )
            _check_sorted_columns(timestamps)
            if (
                self.recipe.policy is WindowPolicy.BY_DURATION
                and self._last_ts is None
                and first_ts < self.recipe.start_us
            ):
                raise TraceStreamError(
                    f"event at t={first_ts} precedes stream start "
                    f"{self.recipe.start_us}"
                )
            self._buffer_chunk(chunk, remap[chunk.type_codes])
            self.stats.events += n
            self._last_ts = int(timestamps[-1])
        if len(self._buffer) > self.stats.peak_buffered_events:
            self.stats.peak_buffered_events = len(self._buffer)

    def _buffer_chunk(self, chunk: TraceColumns, codes: np.ndarray) -> None:
        """Append ``chunk`` to the buffer, dropping events already batched."""
        drop = 0
        if self._cursor:
            drop = int(self._pending.event_offsets[self._cursor])
            self._chunks = [
                (first - drop, kept)
                for first, kept in self._chunks
                if first + len(kept) > drop
            ]
            self._pending = _rebase(self._pending, self._cursor, drop)
            self._cursor = 0
            self._cut -= drop
        old = self._buffer
        self._buffer = TraceColumns(
            timestamps_us=_join(old.timestamps_us[drop:], chunk.timestamps_us),
            type_codes=_join(old.type_codes[drop:], codes),
            cores=_join(old.cores[drop:], chunk.cores),
            type_names=tuple(self._global_names),
            static_sizes=_join(old.static_sizes[drop:], chunk.static_sizes),
            source_kind="events",
        )
        self._chunks.append((len(old) - drop, chunk))

    # ------------------------------------------------------------------ #
    # Incremental windowing
    # ------------------------------------------------------------------ #
    def _cut_windows(self, final: bool) -> None:
        """Cut every window the buffered events complete, in one array call.

        A duration slot is complete once an event at or past its end has
        arrived; a count window once it holds ``events_per_window`` events.
        At end-of-stream every remaining event is cut.
        """
        timestamps = self._buffer.timestamps_us
        cut = self._cut
        policy = self.recipe.policy
        if policy is WindowPolicy.BY_DURATION:
            duration = self._duration
            assert duration is not None
            stop = len(timestamps)
            if not final and stop > cut:
                # Keep the newest event's slot open: later events may join it.
                newest = int(timestamps[-1])
                open_start = newest - (newest - self._next_start_us) % duration
                stop = int(np.searchsorted(timestamps, open_start, side="left"))
            # An empty stream still ends with the one-shot layout of an
            # empty trace (one empty window when ``emit_empty``).
            if stop == cut and (not final or self._last_ts is not None):
                return
            layout = column_windows_by_duration(
                timestamps[cut:stop],
                duration,
                start_us=self._next_start_us,
                emit_empty=self.recipe.emit_empty,
                first_index=self._windows_cut,
            )
            if layout.n_windows:
                self._next_start_us = int(layout.end_us[-1])
        elif policy is WindowPolicy.BY_COUNT:
            per_window = self.recipe.events_per_window
            stop = len(timestamps)
            if not final:
                stop = cut + (stop - cut) // per_window * per_window
            if stop == cut:
                return
            layout = column_windows_by_count(
                timestamps[cut:stop],
                per_window,
                start_us=self.recipe.start_us,
                first_index=self._windows_cut,
                previous_last_us=self._previous_last_us,
            )
            self._previous_last_us = int(timestamps[stop - 1])
        else:
            raise TraceStreamError(f"unknown window policy: {policy!r}")
        self._pending = _append(self._pending, layout, cut)
        self._cut = stop
        self._windows_cut += layout.n_windows
        self.stats.windows += layout.n_windows

    def _available(self) -> int:
        return self._pending.n_windows - self._cursor

    def _fill(self, n_windows: int) -> bool:
        """Whether ``n_windows`` are ready, cutting only when that can help.

        Cutting on every pump would spend a kernel call per chunk; in
        follow mode chunks are often smaller than one window.
        """
        available = self._available()
        if available < n_windows and available + self._completable() >= n_windows:
            self._cut_windows(final=False)
        return self._available() >= n_windows

    def _completable(self) -> int:
        """Upper bound on the windows a cut of the buffered span would add."""
        if self.recipe.policy is WindowPolicy.BY_COUNT:
            return (len(self._buffer) - self._cut) // self.recipe.events_per_window
        if self._last_ts is None or self._duration is None:
            return 0
        return (self._last_ts - self._next_start_us) // self._duration

    # ------------------------------------------------------------------ #
    # Consumption
    # ------------------------------------------------------------------ #
    def reference_windows(
        self,
        reference_duration_us: int,
        default_window_duration_us: int = 40_000,
    ) -> list[TraceWindow]:
        """Consume the stream's reference prefix as materialised windows.

        Returns every window whose extent ends at or before
        ``start_us + reference_duration_us`` — exactly the prefix
        :meth:`TraceMonitor.run_on_columns` splits off for reference
        learning.  Must be called before :meth:`batches`.
        """
        if reference_duration_us <= 0:
            raise TraceStreamError("reference_duration_us must be positive")
        if self._batches_started:
            raise TraceStreamError("stream already consumed")
        self._ensure_started(default_window_duration_us)
        boundary = self.recipe.start_us + reference_duration_us
        while True:
            self._cut_windows(final=False)
            if self._available() and self._pending.end_us[-1] > boundary:
                break
            if not self._pump():
                break
        first_live = int(np.searchsorted(self._pending.end_us, boundary, side="right"))
        windows = materialize_layout_windows(
            _ChunkChain(self._chunks), self._pending, self._cursor, first_live
        )
        self._cursor = first_live
        return windows

    def batches(
        self,
        registry: EventTypeRegistry,
        batch_size: int,
        default_window_duration_us: int = 40_000,
    ) -> Iterator[WindowBatch]:
        """Yield the stream's window batches against ``registry``.

        Single-pass: pulls chunks from the source on demand, yields a
        batch as soon as ``batch_size`` windows have completed (only the
        final batch may be shorter), and drops batched events when it
        buffers the next chunk.  Signature-compatible with
        :meth:`~repro.trace.stream.ColumnarWindowSource.batches`, so the
        fleet treats both source kinds uniformly.
        """
        if batch_size <= 0:
            raise TraceStreamError("batch_size must be positive")
        if self._batches_started:
            raise TraceStreamError("stream already consumed")
        self._batches_started = True
        self._ensure_started(default_window_duration_us)

        def _generate() -> Iterator[WindowBatch]:
            mapper = _ColumnCodeMapper(registry)
            while True:
                while self._fill(batch_size):
                    yield self._take_batch(registry, mapper, batch_size)
                if not self._pump():
                    break
            while self._available():
                yield self._take_batch(
                    registry, mapper, min(batch_size, self._available())
                )

        return _generate()

    def _take_batch(
        self,
        registry: EventTypeRegistry,
        mapper: _ColumnCodeMapper,
        n_windows: int,
    ) -> WindowBatch:
        w0 = self._cursor
        w1 = w0 + n_windows
        lo = int(self._pending.event_offsets[w0])
        hi = int(self._pending.event_offsets[w1])
        span = _ChunkChain(
            (first, chunk)
            for first, chunk in self._chunks
            if first < hi and first + len(chunk) > lo
        )
        batch = _build_layout_batch(
            self._buffer, self._pending, registry, mapper, w0, w1, span
        )
        self._cursor = w1
        self.stats.batches += 1
        return batch
