"""The real-time telemetry pipeline: a tap on daemon-mode traffic.

:class:`StreamPipeline` is a second consumer on the ``tacc_stats``
exchange (its own queue, bound ``stats.#``, exactly like the archiving
:class:`~repro.core.daemon.StatsConsumer` it rides next to).  Every
delivery is parsed once and fans out three ways:

1. **TSDB feed** — each counter value becomes a point tagged
   ``(host, type, device, event)`` in a live
   :class:`~repro.tsdb.store.TimeSeriesDB`.  A sample arrives as one
   *row* (:attr:`~repro.core.rawfile.ParsedSample.row`) and is written
   as it arrived: its :class:`~repro.core.rawfile.Layout` — the row's
   columns under the schemas it was read with — maps them onto K series
   (:func:`~repro.tsdb.store.series_plan`, made once per layout for
   every host), bound to the host as one
   :class:`~repro.tsdb.store.SeriesGroup`.  A delivery's rows are
   written as one ``(n, K)`` block in a single
   :meth:`~repro.stream.retention.RetainingWriter.put_many`, through
   the retention policy so memory stays bounded by the policy, not
   the run length;
2. **streaming analysis** — the
   :class:`~repro.stream.analyzer.StreamingFlagAnalyzer` advances its
   incremental per-job accumulators and fires §V-A flags while the
   job is still running;
3. **alerting** — newly-fired flags are routed through the
   :class:`~repro.stream.alerts.AlertRouter` with sim-clock
   timestamps and the delivery's trace id.

Trace context stamped into the message headers at daemon publish is
restored here, so one trace runs collection → broker delivery → TSDB
write → alert evaluation (`daemon.publish` → `stream.process` →
`stream.tsdb_write` / `stream.analyze`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro import obs
from repro.broker import Broker, Channel, Delivery
from repro.cluster.jobs import Job
from repro.core.daemon import EXCHANGE
from repro.core.rawfile import Layout, ParsedSample, RawFileParser
from repro.metrics.flags import FlagResult, Thresholds
from repro.obs import handles
from repro.stream.alerts import AlertRouter
from repro.stream.analytics import FleetAnalytics
from repro.stream.analyzer import StreamEvent, StreamingFlagAnalyzer
from repro.stream.retention import RetainingWriter, RetentionPolicy
from repro.tsdb.query import QueryResult, query
from repro.tsdb.store import SeriesGroup, TimeSeriesDB, series_plan

__all__ = ["STREAM_QUEUE", "LATENCY_BUCKETS", "StreamPipeline"]

STREAM_QUEUE = "tacc_stats_stream"

#: sim-second buckets for sample→flag latency: collection intervals,
#: not milliseconds, are the natural scale here
LATENCY_BUCKETS = (10.0, 60.0, 300.0, 600.0, 900.0, 1200.0, 1800.0, 3600.0)

_PARSE_ERRORS = handles.counter(
    "repro_stream_parse_errors_total",
    "corrupt raw lines quarantined on the live path",
)
_LINE_DECODED = handles.counter(
    "repro_stream_line_decoded_records_total",
    "records the parser decoded line by line, not by its template's "
    "pattern: a new line structure, or a token the pattern does not take",
)
_SAMPLES = handles.counter(
    "repro_stream_samples_total",
    "samples processed through the live pipeline",
)
_POINTS = handles.counter(
    "repro_stream_points_total", "points written into the live TSDB feed"
)
_INFLIGHT = handles.gauge(
    "repro_stream_jobs_inflight",
    "jobs currently tracked by the streaming analyzer",
)
_FLAG_LATENCY = handles.histogram(
    "repro_stream_flag_latency_sim_seconds",
    "sim-seconds from aligned sample to streaming flag",
    buckets=LATENCY_BUCKETS,
)


class _Host(NamedTuple):
    """Where one host's rows go: the layout its group was bound for,
    the row columns written (``None``: all of them), the host's writer
    and its series behind one group of the writer's store."""

    layout: Layout
    take: Optional[np.ndarray]
    writer: RetainingWriter
    group: Optional[SeriesGroup]


#: rows of consecutive samples that share a host binding: ``(binding,
#: times (n,), values (n, K))``
Block = Tuple[_Host, np.ndarray, np.ndarray]


class StreamPipeline:
    """Broker tap → live TSDB + streaming flags + alerts."""

    def __init__(
        self,
        broker: Broker,
        tsdb: Optional[TimeSeriesDB] = None,
        jobs: Optional[Mapping[str, Job]] = None,
        thresholds: Optional[Thresholds] = None,
        retention: Optional[RetentionPolicy] = None,
        alerts: Optional[AlertRouter] = None,
        types: Optional[Iterable[str]] = None,
        metric: str = "stats",
        analytics: Optional[FleetAnalytics] = None,
    ) -> None:
        self.broker = broker
        self.tsdb = tsdb if tsdb is not None else TimeSeriesDB()
        #: one retention writer per store written (see :meth:`_stores`)
        self.writers: List[RetainingWriter] = [
            RetainingWriter(store, retention) for store in self._stores()
        ]
        self.writer = self.writers[0]
        self.alerts = alerts if alerts is not None else AlertRouter()
        #: optional always-on fleet analytics: per-job continuous
        #: scoring, and feed sketches read from the stores written here
        #: (None keeps the pipeline cost-free)
        self.analytics = analytics
        self._jobs = jobs
        self.metric = metric
        if analytics is not None:
            analytics.attach(self._stores(), metric)
        self.types = frozenset(types) if types is not None else None
        job_meta = None
        if jobs is not None:
            def job_meta(jobid: str, hosts) -> Dict[str, object]:
                # mirror the batch ingest meta exactly
                job = jobs.get(jobid)
                return {
                    "queue": job.queue if job else "normal",
                    "nodes": job.nodes if job else len(hosts),
                }
        self.analyzer = StreamingFlagAnalyzer(thresholds, job_meta=job_meta)
        self._parsers: Dict[str, RawFileParser] = {}
        #: host → its binding, for the layout of its latest sample.  A
        #: changed layout is always a new binding (a delivery's rows are
        #: split into blocks on binding identity)
        self._hosts: Dict[str, _Host] = {}
        self.samples = 0
        self.points = 0
        self.last_seen = 0  # sim time of the latest delivery processed
        self._started = False

    # -- wiring ------------------------------------------------------------
    def start(self) -> None:
        """Declare, bind and consume; call before the fleet runs."""
        if self._started:
            raise RuntimeError("stream pipeline already started")
        self._started = True
        self.broker.declare_exchange(EXCHANGE, kind="topic")
        self.broker.declare_queue(STREAM_QUEUE)
        self.broker.bind(STREAM_QUEUE, EXCHANGE, "stats.#")
        channel = self.broker.channel()
        channel.basic_consume(STREAM_QUEUE, self._on_delivery, auto_ack=True)

    # -- the live path -----------------------------------------------------
    def _on_delivery(self, channel: Channel, delivery: Delivery) -> None:
        msg = delivery.message
        host = str(msg.headers.get("host", "?"))
        now = (
            delivery.delivered_at
            if delivery.delivered_at is not None
            else (msg.published_at or 0)
        )
        self.last_seen = max(self.last_seen, int(now))
        with obs.span(
            "stream.process",
            remote_parent=obs.extract_context(msg.headers),
            host=host,
        ) as sp:
            parser = self._parsers.get(host)
            if parser is None:
                parser = self._parsers[host] = RawFileParser(
                    on_error="quarantine"
                )
            line_records = parser.line_records
            events: List[StreamEvent] = []
            n_samples = 0
            #: (binding, [timestamp], [row]) per run of samples that
            #: share a layout — one run, as a rule
            runs: List[Tuple[_Host, List[int], List[np.ndarray]]] = []
            for sample in parser.parse(msg.body):
                n_samples += 1
                placed = self._row(host, sample)
                if placed is not None:
                    binding, row = placed
                    if not runs or runs[-1][0] is not binding:
                        runs.append((binding, [], []))
                    runs[-1][1].append(sample.timestamp)
                    runs[-1][2].append(row)
                with obs.span("stream.analyze"):
                    events.extend(self.analyzer.observe(host, sample))
            blocks: List[Block] = [
                (binding, np.array(ts, dtype=np.int64), np.array(rows))
                for binding, ts, rows in runs
            ]
            if blocks:
                with obs.span("stream.tsdb_write") as wsp:
                    wsp.set(points=self._write_blocks(blocks))
            if parser.errors:
                _PARSE_ERRORS.labels(host=host).inc(len(parser.errors))
                # counted is all the live path does with them: kept, a
                # torn line an interval is a leak for the process's life
                parser.errors.clear()
            if parser.line_records != line_records:
                _LINE_DECODED.labels(host=host).inc(
                    parser.line_records - line_records
                )
            self.samples += n_samples
            _SAMPLES.inc(n_samples)
            sp.set(samples=n_samples, sim_time=now)
            self._route(events, int(now), sp.trace_id or None)
            if self.analytics is not None:
                self._score_completed(int(now), sp.trace_id or None)
        _INFLIGHT.set(self.analyzer.inflight)

    def _row(
        self, host: str, sample: ParsedSample
    ) -> Optional[Tuple[_Host, np.ndarray]]:
        """One sample as ``(binding, float64 row)``.

        The host's group is bound again when the sample's layout is not
        its previous sample's — a device or a ``!`` line appearing
        mid-stream starts a new layout, it is not a shape error.
        ``None`` for a sample with no column to write.
        """
        binding = self._hosts.get(host)
        layout = sample.layout
        if binding is None or binding.layout is not layout:
            writer = (self._writer_for(host) if binding is None
                      else binding.writer)
            plan = layout.derive(
                ("series", self.metric, self.types, ()),
                lambda: series_plan((layout,), self.metric, self.types))
            take, group = None, None
            if plan:
                (template, _, cols), = plan
                if cols[0] != list(range(len(sample.row))):
                    take = np.array(cols[0], dtype=np.intp)
                group = template.bind(writer.tsdb, host)
            binding = self._hosts[host] = _Host(layout, take, writer, group)
        if binding.group is None:
            return None
        if binding.take is None:
            return binding, sample.row
        return binding, sample.row[binding.take]

    def _stores(self) -> List[TimeSeriesDB]:
        """The stores rows are written into: :attr:`tsdb` itself."""
        return [self.tsdb]

    def _writer_for(self, host: str) -> RetainingWriter:
        """Which of :attr:`writers` takes ``host``'s rows.  Asked once
        per host, not per delivery."""
        return self.writer

    def _write_blocks(self, blocks: List[Block]) -> int:
        """Live counterpart of :func:`repro.tsdb.store.ingest_store`:
        one :meth:`RetainingWriter.put_many` per block of rows."""
        n = 0
        for binding, times, values in blocks:
            n += binding.writer.put_many(
                self.metric, binding.group, times, values
            )
        self.points += n
        _POINTS.inc(n)
        return n

    def _route(
        self, events: List[StreamEvent], now: int, trace_id: Optional[int]
    ) -> None:
        for ev in events:
            _FLAG_LATENCY.labels(rule=ev.flag.name).observe(
                max(0, now - ev.data_time)
            )
            self.alerts.route(
                ev.flag,
                ev.jobid,
                fired_at=now,
                data_time=ev.data_time,
                trace_id=trace_id,
            )

    def _score_completed(
        self, now: int, trace_id: Optional[int]
    ) -> None:
        """Run continuous scoring over jobs that just completed.

        Fleet-quantile anomalies route through the same AlertRouter
        as the §V-A flags (rules ``fleet_outlier_*`` /
        ``fleet_low_efficiency``).
        """
        analytics = self.analytics
        completed = self.analyzer.completed
        if analytics is None or len(completed) == analytics.jobs_scored:
            return
        with obs.span("stream.analytics"):
            for jobid, result in completed.items():
                if analytics.is_scored(jobid):
                    continue
                job = self._jobs.get(jobid) if self._jobs is not None else None
                score, anomalies = analytics.score_job(
                    jobid,
                    result.metrics,
                    user=job.user if job is not None else "?",
                    app=job.spec.name if job is not None else "?",
                )
                for a in anomalies:
                    self.alerts.route(
                        FlagResult(a.rule, a.value, a.threshold, a.detail),
                        jobid,
                        fired_at=now,
                        data_time=now,
                        trace_id=trace_id,
                    )

    # -- reads ---------------------------------------------------------------
    def query(self, metric: str, **kw) -> QueryResult:
        """:func:`repro.tsdb.query.query` over the live store."""
        return query(self.tsdb, metric, **kw)

    # -- end of run ---------------------------------------------------------
    def finalize(self) -> Dict[str, "object"]:
        """Close the stream: drain the analyzer, flush rollup buckets.

        Returns the analyzer's completed-job results (jobid →
        :class:`~repro.stream.analyzer.StreamJobResult`).
        """
        events = self.analyzer.finalize()
        self._route(events, self.last_seen, None)
        self._score_completed(self.last_seen, None)
        for writer in self.writers:
            writer.flush()
        _INFLIGHT.set(0)
        return dict(self.analyzer.completed)
