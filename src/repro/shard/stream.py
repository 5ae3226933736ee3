"""The sharded streaming pipeline: a partitioned broker exchange.

One stream consumer is the live-path bottleneck at fleet scale, so the
sharded pipeline splits the feed the same way batch ingest splits the
fleet — by the consistent-hash ring:

* a **router** consumes the daemons' ``stats.#`` traffic exactly like
  the plain :class:`~repro.stream.pipeline.StreamPipeline` would, but
  instead of parsing it re-publishes each delivery (body and headers,
  trace context included) to the partitioned ``tacc_stats_shards``
  exchange under ``shard.{k}.{host}``, where ``k`` is the ring owner
  of the delivery's host;
* a **per-shard feed** drains queue ``tacc_stats_shard_{k}`` (bound
  ``shard.{k}.#``): it parses, batches rows and writes into *its own*
  chunked TSDB through its own retention writer — shard feeds never
  share write state, which is what makes the layout multi-process
  ready;
* **analysis stays central**: jobs span hosts and therefore shards,
  so all feeds advance one shared
  :class:`~repro.stream.analyzer.StreamingFlagAnalyzer` and route
  through one :class:`~repro.stream.alerts.AlertRouter` (both live in
  the coordinator process in a real deployment).

Reads go through the same
:class:`~repro.shard.coordinator.ShardedTSDB` as batch-loaded shards
(the feeds write straight into its in-process shard stores), so
``pipeline.query(...)``/``window_stats(...)`` stay
bit-identical to a single-store run over the same traffic — with
``shards=1`` the whole arrangement degenerates to one queue feeding
one store in the original delivery order, which the equivalence suite
pins against :class:`~repro.stream.pipeline.StreamPipeline` exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro import obs
from repro.broker import Broker, Channel, Delivery
from repro.cluster.jobs import Job
from repro.core.daemon import EXCHANGE
from repro.metrics.flags import Thresholds
from repro.shard.coordinator import ShardedTSDB
from repro.stream.alerts import AlertRouter
from repro.stream.analyzer import StreamingFlagAnalyzer
from repro.stream.pipeline import StreamPipeline
from repro.stream.retention import RetentionPolicy

__all__ = ["SHARD_EXCHANGE", "ROUTER_QUEUE", "ShardedStreamPipeline"]

SHARD_EXCHANGE = "tacc_stats_shards"
ROUTER_QUEUE = "tacc_stats_shard_router"


class _ShardFeed(StreamPipeline):
    """One shard's consumer: the plain pipeline, re-bound and re-aimed.

    Differences from the parent: it drains its shard's partition of
    :data:`SHARD_EXCHANGE` instead of the raw daemon exchange, and its
    analyzer/alert router are the pipeline-wide shared ones (passed in
    by :class:`ShardedStreamPipeline`), so per-job state sees every
    host of a job no matter which shard the host hashed to.
    """

    def __init__(self, broker: Broker, shard: int, tsdb, analyzer,
                 alerts: AlertRouter, retention, types, metric,
                 jobs=None, analytics=None) -> None:
        super().__init__(
            broker, tsdb=tsdb, jobs=jobs, retention=retention, types=types,
            metric=metric, analytics=analytics,
        )
        self.shard = shard
        self.analyzer = analyzer
        self.alerts = alerts

    def start(self) -> None:
        if self._started:
            raise RuntimeError("shard feed already started")
        self._started = True
        queue = f"tacc_stats_shard_{self.shard}"
        self.broker.declare_exchange(SHARD_EXCHANGE, kind="topic")
        self.broker.declare_queue(queue)
        self.broker.bind(queue, SHARD_EXCHANGE, f"shard.{self.shard}.#")
        self.broker.channel().basic_consume(
            queue, self._on_delivery, auto_ack=True
        )


class ShardedStreamPipeline:
    """Router + per-shard feeds + central analysis over one broker."""

    def __init__(
        self,
        broker: Broker,
        shards: int = 1,
        jobs: Optional[Mapping[str, Job]] = None,
        thresholds: Optional[Thresholds] = None,
        retention: Optional[RetentionPolicy] = None,
        alerts: Optional[AlertRouter] = None,
        types: Optional[Iterable[str]] = None,
        metric: str = "stats",
        analytics=None,
    ) -> None:
        self.broker = broker
        #: the in-process sharded store.  The feeds write into its shard
        #: stores directly, so read through :meth:`query` /
        #: :meth:`window_stats` here, which sync its epoch first
        self.tsdb = ShardedTSDB(shards)
        self.map = self.tsdb.map
        self.metric = metric
        self.alerts = alerts if alerts is not None else AlertRouter()
        job_meta = None
        if jobs is not None:
            def job_meta(jobid: str, hosts) -> Dict[str, object]:
                # mirror the batch ingest meta exactly (as the plain
                # pipeline does)
                job = jobs.get(jobid)
                return {
                    "queue": job.queue if job else "normal",
                    "nodes": job.nodes if job else len(hosts),
                }
        self.analyzer = StreamingFlagAnalyzer(thresholds, job_meta=job_meta)
        #: shared across every feed — FleetAnalytics scoring is
        #: idempotent per jobid, so whichever feed sees a completion
        #: first scores it and the rest skip
        self.analytics = analytics
        self.feeds: List[_ShardFeed] = [
            _ShardFeed(
                broker, k, store, self.analyzer,
                self.alerts, retention, types, metric,
                jobs=jobs, analytics=analytics,
            )
            for k, store in self.tsdb.backend.stores.items()
        ]
        self._channel: Optional[Channel] = None
        self._started = False

    # -- wiring --------------------------------------------------------------
    def start(self) -> None:
        """Declare the router and every shard partition, then consume."""
        if self._started:
            raise RuntimeError("sharded stream pipeline already started")
        self._started = True
        self.broker.declare_exchange(EXCHANGE, kind="topic")
        self.broker.declare_exchange(SHARD_EXCHANGE, kind="topic")
        for feed in self.feeds:
            feed.start()
        self.broker.declare_queue(ROUTER_QUEUE)
        self.broker.bind(ROUTER_QUEUE, EXCHANGE, "stats.#")
        self._channel = self.broker.channel()
        self._channel.basic_consume(
            ROUTER_QUEUE, self._route_delivery, auto_ack=True
        )

    def _route_delivery(self, channel: Channel, delivery: Delivery) -> None:
        """Partition one daemon delivery onto its owner shard's key.

        No parse here: placement needs only the ``host`` header, so
        the router stays cheap enough to never be the bottleneck the
        sharding exists to remove.
        """
        msg = delivery.message
        host = str(msg.headers.get("host", "?"))
        k = self.map.place(host, self.metric)
        self._channel.basic_publish(
            SHARD_EXCHANGE, f"shard.{k}.{host}", msg.body,
            headers=dict(msg.headers),
        )
        obs.counter(
            "repro_shard_stream_routed_total",
            "live deliveries partitioned onto shard queues",
        ).inc(shard=k)

    # -- reads (scatter-gather, same store as batch shards) ------------------
    def _sync_epoch(self) -> None:
        # feeds write concurrently with queries; fold the per-store
        # write epochs into the sharded store's so its QueryCache
        # invalidates exactly like a single live store's would
        self.tsdb.epoch = sum(
            s.epoch for s in self.tsdb.backend.stores.values()
        )

    def query(self, metric: str, **kw):
        self._sync_epoch()
        return self.tsdb.query(metric, **kw)

    def window_stats(self, metric: str, **kw):
        self._sync_epoch()
        return self.tsdb.window_stats(metric, **kw)

    # -- aggregate counters ---------------------------------------------------
    @property
    def samples(self) -> int:
        return sum(f.samples for f in self.feeds)

    @property
    def points(self) -> int:
        return sum(f.points for f in self.feeds)

    @property
    def last_seen(self) -> int:
        return max((f.last_seen for f in self.feeds), default=0)

    def shard_points(self) -> Dict[int, int]:
        return {
            k: r["points"] for k, r in self.tsdb.shard_stats().items()
        }

    # -- end of run -----------------------------------------------------------
    def finalize(self) -> Dict[str, object]:
        """Drain the shared analyzer once, flush every shard's writer."""
        events = self.analyzer.finalize()
        if self.feeds:
            self.feeds[0]._route(events, self.last_seen, None)
            self.feeds[0]._score_completed(self.last_seen, None)
        for feed in self.feeds:
            feed.writer.flush()
        obs.gauge(
            "repro_stream_jobs_inflight",
            "jobs currently tracked by the streaming analyzer",
        ).set(0)
        return dict(self.analyzer.completed)
