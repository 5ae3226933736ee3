"""repro.stream — real-time telemetry over daemon-mode traffic.

The paper's §VI future work names two observability gaps: feeding an
OpenTSDB-style store *in real time* and *automated real-time
analysis*.  This package closes both for the reproduction: a
:class:`~repro.stream.pipeline.StreamPipeline` taps the same broker
exchange the archiving consumer drains, incrementally writes every
counter into a tag-indexed :class:`~repro.tsdb.store.TimeSeriesDB`
(with bounded-memory retention tiers), evaluates the §V-A flag
predicates over in-flight jobs with no full-job replay, and routes
fired flags through :class:`~repro.stream.alerts.AlertRouter` — while
trace context stamped at daemon publish follows every sample end to
end.

The streaming flags are not approximations: at job completion the
analyzer's evaluation is bit-identical to the batch pipeline's
(`tests/test_stream/test_soak.py` drives a multi-day fleet through
both paths and asserts the flag sets agree).

Typical wiring, next to an existing monitoring session::

    from repro import monitoring_session
    from repro.stream import StreamPipeline

    sess = monitoring_session(nodes=8, seed=7)
    stream = StreamPipeline(sess.broker, jobs=sess.cluster.jobs)
    stream.start()            # before the fleet runs
    sess.cluster.run_for(86400)
    completed = stream.finalize()
    stream.alerts.recent()    # what fired, newest first

``stream.alerts.add_sink(suspend_sink(sess.cluster))`` before the run
is the §VI-B guardian (a metadata storm's job is suspended);
``LiveStatus(stream)`` at any point of it is the §I online status board.
"""

from __future__ import annotations

from repro.stream.alerts import (
    Alert,
    AlertRouter,
    SEVERITY_BY_RULE,
    log_sink,
    suspend_sink,
)
from repro.stream.analytics import ContinuousScorer, FleetAnalytics, JobScore
from repro.stream.analyzer import (
    STREAM_METRICS,
    STREAM_QUANTITIES,
    StreamEvent,
    StreamJobResult,
    StreamingFlagAnalyzer,
)
from repro.stream.pipeline import STREAM_QUEUE, StreamPipeline
from repro.stream.retention import (
    RetainingWriter,
    RetentionPolicy,
    RetentionTier,
)
from repro.stream.status import HostStatus, LiveStatus

__all__ = [
    "Alert",
    "AlertRouter",
    "ContinuousScorer",
    "FleetAnalytics",
    "JobScore",
    "SEVERITY_BY_RULE",
    "log_sink",
    "suspend_sink",
    "HostStatus",
    "LiveStatus",
    "STREAM_METRICS",
    "STREAM_QUANTITIES",
    "STREAM_QUEUE",
    "StreamEvent",
    "StreamJobResult",
    "StreamingFlagAnalyzer",
    "StreamPipeline",
    "RetainingWriter",
    "RetentionPolicy",
    "RetentionTier",
]
