"""Lightweight span tracing with context propagation.

A :class:`Span` is one timed operation (a collection, an ingest
stage, a broker drain).  Spans nest: entering a span inside another
records the parent, giving per-request trees without any framework.
Context propagation uses :mod:`contextvars`, so spans nest correctly
across generators and (if it ever comes to that) asyncio tasks.

Two time axes per span:

* ``started``/``ended`` — the tracer's ``timer`` (default
  ``time.perf_counter``): real self-cost of the reproduction's own
  Python, feeding the obs-overhead CI gate.
* ``attrs`` — anything the caller stamps, notably ``sim_time`` and
  ``core_seconds`` on collector spans, which is what
  :func:`repro.core.overhead.measured_fleet_overhead` consumes to
  recompute the paper's 0.02 % claim from telemetry instead of
  constants.

Completed spans land in a bounded ring buffer; the drop count is
itself a metric (``repro_obs_spans_dropped_total``).

Traces also cross process boundaries (in the simulation: broker
messages).  :func:`inject_context` stamps the current span's ids into
a message-header mapping at publish time and :func:`extract_context`
recovers them at delivery; passing the result as ``remote_parent=`` to
:meth:`Tracer.span` makes the consumer-side span a child of the
publisher-side span, so one trace follows a sample from node
collection through broker delivery to TSDB write and alert
evaluation.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs import handles
from repro.obs.registry import CounterHandle, HistogramHandle, MetricRegistry

__all__ = [
    "Span",
    "Tracer",
    "TRACE_ID_HEADER",
    "SPAN_ID_HEADER",
    "inject_context",
    "extract_context",
]

#: header keys used to carry trace context inside broker message
#: headers.  The ``x_``-prefix keeps them clearly separate from the
#: payload headers (``host``, ``timestamp``) and from the broker's own
#: ``_``-prefixed internal bookkeeping headers.
TRACE_ID_HEADER = "x_trace_id"
SPAN_ID_HEADER = "x_span_id"


def inject_context(headers: Dict[str, object], span: "Span") -> Dict[str, object]:
    """Stamp a span's trace context into a message-header dict.

    No-op for the disabled-tracer sentinel span (id 0), so turning obs
    off also stops header stamping.  Returns ``headers`` for chaining.
    """
    if span.span_id:
        headers[TRACE_ID_HEADER] = span.trace_id
        headers[SPAN_ID_HEADER] = span.span_id
    return headers


def extract_context(
    headers: Mapping[str, object],
) -> Optional[Tuple[int, int]]:
    """Recover ``(trace_id, span_id)`` stamped by :func:`inject_context`.

    Returns ``None`` when the message carries no (or malformed) trace
    context — the consumer span then simply starts a fresh trace.
    """
    trace_id = headers.get(TRACE_ID_HEADER)
    span_id = headers.get(SPAN_ID_HEADER)
    try:
        if trace_id is None or span_id is None:
            return None
        return int(trace_id), int(span_id)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


class Span:
    """One timed, attributed operation."""

    __slots__ = (
        "name", "span_id", "trace_id", "parent_id", "remote_parent",
        "started", "ended", "attrs", "status",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        trace_id: int,
        parent_id: Optional[int],
        started: float,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        #: True when ``parent_id`` names a span in *another* process
        #: (joined via extract_context / RPC ctx).  Span ids are only
        #: unique per process, so the obs harvest needs this flag to
        #: tell a remote parent from a same-process one.
        self.remote_parent = False
        self.started = started
        self.ended: Optional[float] = None
        self.attrs = attrs
        self.status = "ok"

    @property
    def duration(self) -> float:
        """Seconds between start and end (0 while still open)."""
        if self.ended is None:
            return 0.0
        return self.ended - self.started

    def set(self, **attrs: object) -> "Span":
        """Attach attributes mid-span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"dur={self.duration:.6f}s, status={self.status})"
        )


#: sentinel reused when the tracer is disabled — attrs still writable
#: so instrumented code needs no enabled-check, but nothing is kept
class _NullSpan(Span):
    def __init__(self) -> None:
        super().__init__("", 0, 0, None, 0.0, {})

    def set(self, **attrs: object) -> "Span":
        return self


class _SpanContext:
    """What :meth:`Tracer.span` returns: opens the span on entry, closes
    and records it on exit.  A slotted class, not a generator, so a
    span costs a handful of calls."""

    __slots__ = ("tracer", "name", "remote_parent", "attrs", "span", "token")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        remote_parent: Optional[Tuple[int, int]],
        attrs: Dict[str, object],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.remote_parent = remote_parent
        self.attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        tracer = self.tracer
        if not tracer.enabled:
            return tracer._null
        parent = tracer._current.get()
        span_id = next(tracer._ids)
        is_remote = False
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif self.remote_parent is not None:
            trace_id, parent_id = self.remote_parent
            is_remote = True
        else:
            trace_id, parent_id = span_id, None
        s = self.span = Span(
            self.name, span_id, trace_id, parent_id, tracer.timer(),
            self.attrs,
        )
        s.remote_parent = is_remote
        self.token = tracer._current.set(s)
        return s

    def __exit__(self, exc_type, exc, tb) -> None:
        s = self.span
        if s is None:
            return
        if exc_type is not None:
            s.status = "error"
        tracer = self.tracer
        s.ended = tracer.timer()
        tracer._current.reset(self.token)
        tracer._retain(s)
        if tracer._span_seconds is not None:
            timing = tracer._timings.get(s.name)
            if timing is None:
                timing = tracer._timings[s.name] = (
                    tracer._span_seconds.labels(span=s.name)
                )
            timing.observe(s.ended - s.started)


class Tracer:
    """Creates, nests and retains spans.

    Parameters
    ----------
    registry:
        When given, every completed span also observes the
        ``repro_obs_span_seconds{span=<name>}`` histogram there, and
        ring-buffer drops increment ``repro_obs_spans_dropped_total``.
    timer:
        Monotonic second source; swap for a sim-clock lambda in tests
        that want deterministic durations.
    max_spans:
        Ring-buffer capacity for completed spans.
    """

    def __init__(
        self,
        registry: Optional[MetricRegistry] = None,
        timer: Callable[[], float] = time.perf_counter,
        max_spans: int = 200_000,
    ) -> None:
        self.registry = registry
        self.timer = timer
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("repro_obs_current_span", default=None)
        )
        self.dropped = 0
        self.enabled = True
        self._null = _NullSpan()
        self._span_seconds: Optional[HistogramHandle] = None
        self._dropped: Optional[CounterHandle] = None
        if registry is not None:
            self._span_seconds = handles.histogram(
                "repro_obs_span_seconds",
                "wall-clock duration of traced operations",
                registry=registry,
            )
            self._dropped = handles.counter(
                "repro_obs_spans_dropped_total",
                "completed spans evicted from the tracer ring buffer",
                registry=registry,
            )
        #: span name → its ``repro_obs_span_seconds`` sample
        self._timings: Dict[str, HistogramHandle] = {}

    # -- span lifecycle ----------------------------------------------------
    def span(
        self,
        name: str,
        remote_parent: Optional[Tuple[int, int]] = None,
        **attrs: object,
    ) -> "_SpanContext":
        """Context manager: open a child of the current span.

        ``remote_parent`` is a ``(trace_id, span_id)`` pair recovered
        by :func:`extract_context` from message headers; it is used
        when no local parent is open, joining this span to the
        publisher's trace across the broker hop.
        """
        return _SpanContext(self, name, remote_parent, attrs)

    def _retain(self, s: Span) -> None:
        if self._spans.maxlen is not None and len(self._spans) == self._spans.maxlen:
            self.dropped += 1
            if self._dropped is not None:
                self._dropped.inc()
        self._spans.append(s)

    def adopt(self, span: Span) -> None:
        """Retain a span completed in *another* process (obs harvest).

        The span's ids must already be remapped into this tracer's id
        space; its metrics are **not** re-observed here — the worker's
        own ``repro_obs_span_seconds`` samples travel in the harvested
        metric snapshot, so observing again would double-count.
        """
        self._retain(span)

    def next_id(self) -> int:
        """Allocate a span id (harvest remaps foreign ids through this)."""
        return next(self._ids)

    # -- reads -------------------------------------------------------------
    def current(self) -> Optional[Span]:
        """The innermost open span of this context, if any."""
        return self._current.get()

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Completed spans, oldest first, optionally filtered by name."""
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def count(self, name: Optional[str] = None) -> int:
        return len(self.spans(name))

    def total_seconds(self, name: Optional[str] = None) -> float:
        return sum(s.duration for s in self.spans(name))

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0
