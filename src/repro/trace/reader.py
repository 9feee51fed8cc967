"""Reading traces back from disk — object form and columnar form."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from ..errors import TraceFormatError
from .batch import WindowBatch
from .codec import BinaryTraceCodec, JsonTraceCodec, _MAGIC
from .columns import TraceColumns, decode_binary_columns, decode_json_columns
from .event import EventTypeRegistry, TraceEvent
from .pipeline import _check_prefetch, prefetch_batches
from .stream import ColumnarWindowSource, WindowPolicy

__all__ = [
    "read_trace",
    "iter_trace_file",
    "read_trace_columns",
    "iter_window_batches",
]


def _detect_format(path: Path) -> str:
    """Sniff whether ``path`` holds a binary or JSON-lines trace.

    Empty and truncated-header files raise a clear
    :class:`~repro.errors.TraceFormatError` naming the path — previously an
    empty file was silently misdetected as an empty JSON-lines trace and a
    short binary prefix fell through to the JSON parser.

    Note the deliberate consequence: a recording that captured zero windows
    is a zero-byte file, and reading it back raises this error rather than
    returning an empty event list.  Check
    :attr:`~repro.analysis.recorder.RecorderReport.recorded_bytes` (or the
    file size) before reading a recording that may legitimately be empty.

    Streaming ingest is the one exception to the empty-file error: a
    :class:`~repro.trace.streaming.FileTail` pointed at a zero-byte (or not
    yet created) path simply waits for bytes under its idle/stop rules
    instead of raising — while the file is still being written, "empty" is
    a transient state, not a format error.  Only a stream that *ends*
    without ever producing a byte reports the streaming analogue
    (``"empty trace stream"``).
    """
    with path.open("rb") as handle:
        head = handle.read(4)
    if not head:
        raise TraceFormatError(f"empty trace file: {path}")
    if head == _MAGIC:
        return "binary"
    if _MAGIC.startswith(head):
        raise TraceFormatError(
            f"truncated trace file {path}: {len(head)}-byte prefix of a "
            "binary trace header"
        )
    return "jsonl"


def _require_exists(path: Path) -> None:
    if not path.exists():
        raise TraceFormatError(f"trace file does not exist: {path}")


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Read a whole trace file (binary or JSON lines) into memory."""
    path = Path(path)
    _require_exists(path)
    fmt = _detect_format(path)
    if fmt == "binary":
        try:
            return BinaryTraceCodec().decode(path.read_bytes())
        except TraceFormatError as exc:
            raise TraceFormatError(f"cannot decode binary trace {path}: {exc}") from exc
    return list(iter_trace_file(path))


def iter_trace_file(path: str | Path) -> Iterator[TraceEvent]:
    """Iterate lazily over a JSON-lines trace file.

    Binary traces are self-describing blobs and must be read with
    :func:`read_trace`; attempting to stream one raises
    :class:`~repro.errors.TraceFormatError`.
    """
    path = Path(path)
    _require_exists(path)
    if _detect_format(path) == "binary":
        raise TraceFormatError(
            "binary traces cannot be streamed line by line; use read_trace()"
        )
    codec = JsonTraceCodec()
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield codec.decode_event(line)


def read_trace_columns(path: str | Path) -> TraceColumns:
    """Read a whole trace file into columnar form.

    The columnar mirror of :func:`read_trace`: flat NumPy arrays instead of
    event objects (see :class:`~repro.trace.columns.TraceColumns`), with the
    raw buffer retained for lazy per-window materialisation.
    """
    path = Path(path)
    _require_exists(path)
    fmt = _detect_format(path)
    try:
        if fmt == "binary":
            return decode_binary_columns(path.read_bytes())
        return decode_json_columns(path.read_text(encoding="utf-8"))
    except TraceFormatError as exc:
        raise TraceFormatError(f"cannot decode trace {path}: {exc}") from exc


def iter_window_batches(
    path: str | Path,
    registry: EventTypeRegistry | None = None,
    *,
    batch_size: int = 64,
    policy: WindowPolicy = WindowPolicy.BY_DURATION,
    window_duration_us: int = 40_000,
    events_per_window: int = 256,
    start_us: int = 0,
    emit_empty: bool = True,
    prefetch: int = 0,
) -> Iterator[WindowBatch]:
    """Stream a trace file as columnar window batches.

    File bytes go straight to :class:`~repro.trace.batch.WindowBatch`
    micro-batches: vectorized decode, array-native windowing, lazy window
    materialisation.  With ``prefetch > 0`` the decode and batch
    construction run in a background producer thread at most ``prefetch``
    batches ahead of the consumer
    (:func:`~repro.trace.pipeline.prefetch_batches`), overlapping ingest
    with scoring.  A negative ``prefetch`` raises
    :class:`~repro.errors.ConfigurationError`, like the monitor's
    ``prefetch_batches``.
    """
    _check_prefetch(prefetch)
    registry = registry if registry is not None else EventTypeRegistry()

    def _generate() -> Iterator[WindowBatch]:
        source = ColumnarWindowSource(
            read_trace_columns(path),
            policy=policy,
            window_duration_us=window_duration_us,
            events_per_window=events_per_window,
            start_us=start_us,
            emit_empty=emit_empty,
        )
        yield from source.batches(registry, batch_size)

    return prefetch_batches(_generate(), prefetch)
