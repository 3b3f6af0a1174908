"""Span recording: nested monotonic-duration spans over a ring buffer.

A :class:`SpanRecord` is a flat, picklable dataclass — name, integer span
id, optional parent id, start/end timestamps from the
:mod:`repro.utils.clock` seam, and a plain attribute dict.  Records are
what ride across process boundaries (worker shards return their span
buffers inside the shard runtime's ``_ShardResult`` payloads, see
:mod:`repro.execution.shards`) and what the JSONL trace file stores, so
they carry no object references.

A :class:`Tracer` owns the live state: a bounded ring buffer of finished
records, the stack of currently-open spans (nesting = parent links), and
any number of *capture sinks* — lists that receive every record finished
while the capture is open (how worker processes collect their spans to
ship home).  Span ids come from a plain counter, not entropy: traces of
the same run are comparable, and the ``det-global-rng`` lint stays clean.

Determinism contract: everything here is observation-only.  A disabled
tracer's :meth:`Tracer.span` returns a shared no-op context manager and
touches nothing, so the traced and untraced executions run the same code
path with the same numbers — asserted bitwise by ``tests/telemetry``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional

from ..utils import clock

__all__ = ["SpanRecord", "Tracer", "DEFAULT_BUFFER_SPANS"]

#: ring-buffer capacity: old records fall off rather than growing unbounded
DEFAULT_BUFFER_SPANS = 65536


@dataclass
class SpanRecord:
    """One finished span: flat, picklable, JSON-serializable."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SpanRecord":
        return cls(
            name=payload["name"],
            span_id=payload["span_id"],
            parent_id=payload["parent_id"],
            start=payload["start"],
            end=payload["end"],
            attributes=dict(payload.get("attributes") or {}),
        )


class _NoopSpan:
    """Shared do-nothing context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attributes) -> "_NoopSpan":
        return self

    record = None


_NOOP = _NoopSpan()


class _ActiveSpan:
    """A live span: records its window on the tracer's stack."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set(self, **attributes) -> "_ActiveSpan":
        """Attach attributes while the span is open."""
        self.record.attributes.update(attributes)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self.record.start = clock.monotonic()
        self._tracer._stack.append(self.record)
        return self

    def __exit__(self, *exc) -> bool:
        self.record.end = clock.monotonic()
        self._tracer._stack.pop()
        self._tracer._finish(self.record)
        return False


class Tracer:
    """Span recorder: ring buffer, nesting stack, capture sinks, writer."""

    def __init__(self, max_spans: int = DEFAULT_BUFFER_SPANS) -> None:
        self._ids = itertools.count(1)
        self._stack: List[SpanRecord] = []
        self._buffer: Deque[SpanRecord] = deque(maxlen=max_spans)
        self._captures: List[List[SpanRecord]] = []
        self.enabled = False
        #: optional sink with a ``write(record)`` method (a TraceWriter)
        self.writer = None

    # -- state ---------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when spans are being recorded (enabled or captured)."""
        return self.enabled or bool(self._captures)

    @property
    def records(self) -> List[SpanRecord]:
        """A snapshot of the finished-span ring buffer (oldest first)."""
        return list(self._buffer)

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span, or None outside any span."""
        return self._stack[-1].span_id if self._stack else None

    def reset(self) -> None:
        """Drop all recorded and open spans (captures stay registered)."""
        self._ids = itertools.count(1)
        self._stack.clear()
        self._buffer.clear()

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attributes):
        """Open a nested span; no-op (and allocation-free) when inactive."""
        if not self.active:
            return _NOOP
        record = SpanRecord(
            name=name,
            span_id=next(self._ids),
            parent_id=self.current_span_id(),
            start=0.0,
            end=0.0,
            attributes=dict(attributes),
        )
        return _ActiveSpan(self, record)

    def event(self, name: str, **attributes) -> None:
        """Record a zero-duration span (a point event: retry, respawn...)."""
        if not self.active:
            return
        now = clock.monotonic()
        self._finish(
            SpanRecord(
                name=name,
                span_id=next(self._ids),
                parent_id=self.current_span_id(),
                start=now,
                end=now,
                attributes=dict(attributes),
            )
        )

    def _finish(self, record: SpanRecord) -> None:
        self._buffer.append(record)
        for sink in self._captures:
            sink.append(record)
        if self.writer is not None:
            self.writer.write(record)

    # -- capture + adoption (the worker -> parent span channel) ---------------

    def capture(self) -> "_Capture":
        """Context manager collecting every span finished while open.

        Workers always run their shard under a capture, whether or not
        tracing was requested — same code path either way, so the
        on/off determinism matrix holds by construction.
        """
        return _Capture(self)

    def adopt(
        self,
        records: Iterable[SpanRecord],
        parent_id: Optional[int] = None,
    ) -> List[SpanRecord]:
        """Re-id foreign records into this tracer, re-parenting roots.

        Worker-side span buffers arrive with the *worker's* id sequence;
        adoption assigns fresh ids from this tracer's counter (keeping
        intra-buffer parent links via an old->new map) and hangs records
        whose parent is outside the buffer under ``parent_id`` (default:
        the currently open span — the dispatching generation).  When the
        tracer is inactive the buffer is dropped: adoption returns [].
        """
        if not self.active:
            return []
        if parent_id is None:
            parent_id = self.current_span_id()
        records = list(records)
        mapping: Dict[int, int] = {}
        for record in records:
            mapping[record.span_id] = next(self._ids)
        adopted: List[SpanRecord] = []
        for record in records:
            new = SpanRecord(
                name=record.name,
                span_id=mapping[record.span_id],
                parent_id=mapping.get(record.parent_id, parent_id),
                start=record.start,
                end=record.end,
                attributes=dict(record.attributes),
            )
            adopted.append(new)
            self._finish(new)
        return adopted


class _Capture:
    __slots__ = ("_tracer", "records")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self.records: List[SpanRecord] = []

    def __enter__(self) -> List[SpanRecord]:
        self._tracer._captures.append(self.records)
        return self.records

    def __exit__(self, *exc) -> bool:
        self._tracer._captures.remove(self.records)
        return False
