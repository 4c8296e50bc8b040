"""Span-based tracing for the query lifecycle.

A :class:`Tracer` hands out nested *spans* — named intervals with
wall-clock duration and arbitrary attributes — and keeps the finished
:class:`SpanRecord` list for inspection or NDJSON export.  The engine
opens one span per lifecycle stage (``query`` → ``parse`` /
``canonicalize`` / ``plan_cache.lookup`` / ``dispatch.price`` /
``index.resolve`` / ``execute`` / ``deliver``) so a trace shows exactly
where a query's time went and which stages a warm cache skipped.

Tracing is **off by default**: sessions built without a tracer get the
shared :data:`NULL_TRACER`, whose ``span()`` hands back one shared no-op
span.  Every instrumentation site is therefore written once — ``with
tracer.span(name) as span: ...`` — whether tracing is on or off: the null
span is a shared no-op; only attribute construction is guarded (``if
tracer.enabled:`` around a ``span.set(...)`` whose values cost more than
a name lookup).  The overhead gate lives in
``benchmarks/bench_trace_overhead.py``.

Spans nest lexically via a stack: a span opened while another is active
records that span as its parent, which is the right model for the
engine's strictly call-structured lifecycle.  Work that happens *after*
the enclosing call returned (a lazy stream being drained) is recorded
with :meth:`Tracer.record`, passing explicit timestamps.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, TextIO


@dataclass
class SpanRecord:
    """One finished span: a named interval with attributes.

    ``start`` is seconds since the tracer was created (monotonic), so
    records from one trace are directly comparable; ``duration_ms`` is
    wall-clock.  ``parent_id`` is ``None`` for root spans.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    duration_ms: float
    attributes: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": round(self.start, 6),
            "duration_ms": round(self.duration_ms, 4),
            "attributes": self.attributes,
        }


class _Span:
    """A live span: a context manager that records itself when closed."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "_start",
                 "attributes")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, attributes: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self._start = 0.0

    def set(self, **attributes: Any) -> "_Span":
        """Attach attributes to the span (chainable)."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        self._tracer._stack.append(self.span_id)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter()
        stack = self._tracer._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self._tracer._finish(self, self._start, end)


class _NullSpan:
    """The do-nothing span: ``set`` and the context protocol are no-ops."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one session; export with :meth:`export_ndjson`.

    Attributes
    ----------
    enabled:
        Always True on a real tracer.  Instrumentation sites check this
        flag *before* building costly span attributes, so under a
        :class:`NullTracer` (enabled=False) a site costs a no-op
        context-manager entry and nothing else.
    spans:
        Finished :class:`SpanRecord` objects, in completion order
        (children complete before parents).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _Span:
        """Open a span; use as ``with tracer.span("parse") as sp: ...``.

        The span's parent is whatever span is currently open (lexical
        nesting); attributes can be passed here or added later with
        ``sp.set(...)``.
        """
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        return _Span(self, name, span_id, parent, dict(attributes))

    def record(self, name: str, start: float, end: float,
               parent_id: int | None = None, **attributes: Any) -> SpanRecord:
        """Record a span from explicit ``perf_counter`` timestamps.

        For intervals that outlive their lexical scope — e.g. a lazy
        result stream drained after ``stream()`` returned.
        """
        record = SpanRecord(
            name=name,
            span_id=self._next_id,
            parent_id=parent_id,
            start=start - self._epoch,
            duration_ms=(end - start) * 1000.0,
            attributes=dict(attributes),
        )
        self._next_id += 1
        self.spans.append(record)
        return record

    def _finish(self, span: _Span, start: float, end: float) -> None:
        self.spans.append(SpanRecord(
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            start=start - self._epoch,
            duration_ms=(end - start) * 1000.0,
            attributes=span.attributes,
        ))

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop collected spans (the id counter keeps counting up)."""
        self.spans.clear()
        self._stack.clear()

    def find(self, name: str) -> list[SpanRecord]:
        """All finished spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def children(self, span: SpanRecord) -> list[SpanRecord]:
        """Finished spans whose parent is ``span``."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def export_ndjson(self, destination: str | TextIO) -> int:
        """Write one JSON object per span; returns the number written.

        ``destination`` is a path or an open text file.  Span order is
        completion order; consumers reconstruct the tree from
        ``span_id``/``parent_id``.
        """
        if isinstance(destination, (str, bytes)):
            with open(destination, "w", encoding="utf-8") as handle:
                return self.export_ndjson(handle)
        for span in self.spans:
            destination.write(json.dumps(span.as_dict(), sort_keys=True))
            destination.write("\n")
        return len(self.spans)

    def to_ndjson(self) -> str:
        """The NDJSON export as a string."""
        buffer = io.StringIO()
        self.export_ndjson(buffer)
        return buffer.getvalue()

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.spans)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is False, so guarded sites skip attribute construction
    entirely; unguarded ``span()`` calls still work and return the
    shared no-op span.
    """

    enabled = False
    spans: tuple = ()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, start: float, end: float,
               parent_id: int | None = None, **attributes: Any) -> None:
        return None

    def reset(self) -> None:
        return None

    def export_ndjson(self, destination: str | TextIO) -> int:
        return 0

    def to_ndjson(self) -> str:
        return ""

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(())


#: The shared disabled tracer every untraced session uses.
NULL_TRACER = NullTracer()
