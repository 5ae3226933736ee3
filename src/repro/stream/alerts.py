"""Alert routing for streaming flags.

A flag raised by the batch pipeline is a database column; a flag
raised while the job is still running is an *event* somebody may page
on.  This module is the event half: every newly-fired flag becomes an
:class:`Alert` with a severity, a sim-clock timestamp and the trace id
of the delivery that triggered it, then flows through per-(rule, job)
dedup with a cooldown window and out to pluggable sinks.

Built-in destinations:

* the **ledger** — every routed alert, in firing order (the audit log);
* the **feed** — a bounded deque of the most recent alerts, rendered
  by the portal's ``/fleet`` page;
* **obs counters** — ``repro_stream_alerts_total{rule,severity}`` and
  ``repro_stream_alerts_suppressed_total{rule}``;
* any callable registered via :meth:`AlertRouter.add_sink` (sink
  errors are counted, never raised into the delivery path).

§VI-B's automation (*"problem jobs … quickly identified and suspended
… and a system administrator notified immediately"*) is two sinks:
:func:`suspend_sink`, then whatever pages the administrator — sinks
run in registration order, so the page can say what was done.
Notify-only is not registering :func:`suspend_sink`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional, TextIO, Tuple

from repro.cluster.cluster import Cluster
from repro.metrics.flags import FlagResult
from repro.obs import handles

__all__ = [
    "Alert", "AlertRouter", "SEVERITY_BY_RULE", "log_sink", "suspend_sink",
]

_SUPPRESSED = handles.counter(
    "repro_stream_alerts_suppressed_total",
    "streaming alerts suppressed by the dedup/cooldown window",
)
_ROUTED = handles.counter(
    "repro_stream_alerts_total",
    "streaming alerts routed, by rule and severity",
)
_SINK_ERRORS = handles.counter(
    "repro_stream_alert_sink_errors_total",
    "alert sink callables that raised",
)

#: severity of each §V-A flag when it fires mid-run.  Sudden drops and
#: metadata storms hurt *other* users (filesystem, application death)
#: and page immediately; the rest are efficiency findings.
SEVERITY_BY_RULE: Dict[str, str] = {
    "high_metadata_rate": "critical",
    "sudden_drop": "critical",
    "high_gige": "warning",
    "largemem_waste": "warning",
    "idle_nodes": "warning",
    "high_cpi": "warning",
    "sudden_rise": "info",
}

DEFAULT_SEVERITY = "warning"


@dataclass(frozen=True)
class Alert:
    """One routed alert (an in-flight flag firing)."""

    rule: str
    severity: str
    jobid: str
    value: float
    threshold: float
    detail: str
    fired_at: int  # sim time the triggering delivery was processed
    data_time: int  # sim time of the aligned sample that tripped it
    trace_id: Optional[int] = None

    @property
    def latency(self) -> int:
        """Sample→flag latency in sim seconds."""
        return max(0, self.fired_at - self.data_time)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "jobid": self.jobid,
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
            "fired_at": self.fired_at,
            "data_time": self.data_time,
            "trace_id": self.trace_id,
        }


def log_sink(stream: TextIO) -> Callable[[Alert], None]:
    """A sink writing one human-readable line per alert."""

    def write(alert: Alert) -> None:
        stream.write(
            f"ALERT [{alert.severity}] {alert.rule} job={alert.jobid} "
            f"value={alert.value:.3g} threshold={alert.threshold:.3g} "
            f"t={alert.fired_at}: {alert.detail}\n"
        )

    return write


def suspend_sink(cluster: Cluster) -> Callable[[Alert], None]:
    """A sink suspending the job a ``high_metadata_rate`` alert names:
    the one §V-A flag whose job is hurting *other* users now.  The
    threshold is the pipeline's ``Thresholds.metadata_rate``."""

    def suspend(alert: Alert) -> None:
        if alert.rule == "high_metadata_rate":
            cluster.suspend_job(alert.jobid)

    return suspend


class AlertRouter:
    """Severity, dedup/cooldown and fan-out for streaming flags."""

    def __init__(
        self,
        cooldown: int = 3600,
        severities: Optional[Mapping[str, str]] = None,
        max_feed: int = 256,
    ) -> None:
        self.cooldown = int(cooldown)
        self.severities = dict(severities or SEVERITY_BY_RULE)
        self.ledger: List[Alert] = []
        self.feed: Deque[Alert] = deque(maxlen=max_feed)
        self.suppressed = 0
        #: (rule, jobid) → when it last fired, oldest firing first;
        #: holds the alerts of one cooldown, not of the process's life
        self._last_fired: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
        self._sinks: List[Callable[[Alert], None]] = []

    def add_sink(self, sink: Callable[[Alert], None]) -> None:
        self._sinks.append(sink)

    def route(
        self,
        flag: FlagResult,
        jobid: str,
        fired_at: int,
        data_time: int,
        trace_id: Optional[int] = None,
    ) -> Optional[Alert]:
        """Route one fired flag; returns the alert, or None if deduped."""
        key = (flag.name, jobid)
        last = self._last_fired.get(key)
        if last is not None and fired_at - last < self.cooldown:
            self.suppressed += 1
            _SUPPRESSED.labels(rule=flag.name).inc()
            return None
        last_fired = self._last_fired
        last_fired[key] = int(fired_at)
        last_fired.move_to_end(key)
        # in firing order, so the entries too old to suppress anything
        # are at the front: each is dropped once, by a later alert
        while (
            last_fired
            and fired_at - next(iter(last_fired.values())) >= self.cooldown
        ):
            last_fired.popitem(last=False)
        alert = Alert(
            rule=flag.name,
            severity=self.severities.get(flag.name, DEFAULT_SEVERITY),
            jobid=jobid,
            value=float(flag.value),
            threshold=float(flag.threshold),
            detail=flag.detail,
            fired_at=int(fired_at),
            data_time=int(data_time),
            trace_id=trace_id,
        )
        self.ledger.append(alert)
        self.feed.append(alert)
        _ROUTED.labels(rule=alert.rule, severity=alert.severity).inc()
        for sink in self._sinks:
            try:
                sink(alert)
            except Exception:
                _SINK_ERRORS.labels(rule=alert.rule).inc()
        return alert

    def recent(self, limit: int = 20) -> List[Alert]:
        """Most recent alerts, newest first (the portal feed)."""
        return list(self.feed)[-limit:][::-1]
