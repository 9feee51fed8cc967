"""In-memory spans around the public calls of each layer, and their self times.

The traced run wraps methods and functions of the ``repro`` package from
here, outside the program: every call becomes a span (name, start, end,
parent).  A layer's self time is the time its spans cover minus the time
covered by their child spans, so a nested ``score_vectors`` is charged to
the LOF layer and not to the detector that called it.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Collects spans; installs and removes the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------ #
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened from the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrapping ------------------------------------------------------- #
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        count: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` by a spanned call until :meth:`restore`.

        ``count`` receives ``(args, kwargs, result)`` and returns counters
        stored on the span, so ratios are measured where the work happens.
        """
        original = owner.__dict__[attribute]
        function = original.__func__ if isinstance(original, classmethod) else original

        @functools.wraps(function)
        def spanned(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index].counts.update(count(args, kwargs, result))
            return result

        replacement = classmethod(spanned) if isinstance(original, classmethod) else spanned
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def wrap_iterator(
        self,
        owner: Any,
        attribute: str,
        name: str,
        count: Callable[[Any], dict[str, float]] | None = None,
    ) -> None:
        """Like :meth:`wrap` for a call returning an iterator: each ``next``
        on the returned iterator is a span, because that is when the work
        of a generator runs."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            return tracer._iterate(name, original(*args, **kwargs), count)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, spanned)

    def _iterate(
        self,
        name: str,
        iterable: Any,
        count: Callable[[Any], dict[str, float]] | None,
    ) -> Iterator[Any]:
        iterator = iter(iterable)
        while True:
            index = self._open(name)
            try:
                item = next(iterator)
            except StopIteration:
                self._close(index)
                return
            except BaseException:
                self._close(index)
                raise
            self._close(index)
            if count is not None:
                self.spans[index].counts.update(count(item))
            yield item

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------- #
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of each span's children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = (span.end - span.start) - child_time[index]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def busy_times(self) -> dict[str, float]:
        """Seconds per span name, counting only the outermost span of a name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if not self._inside_same_name(span):
                totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        return totals

    def _inside_same_name(self, span: Span) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def counts(self) -> dict[str, float]:
        """Counters summed over all spans, keyed ``<span name>.<counter>``."""
        totals: dict[str, float] = {}
        for span in self.spans:
            for key, value in span.counts.items():
                name = f"{span.name}.{key}"
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start_s": span.start - origin,
                    "end_s": span.end - origin,
                    "parent": span.parent,
                }
                if span.counts:
                    record["counts"] = span.counts
                handle.write(json.dumps(record) + "\n")

