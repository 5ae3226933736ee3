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

Reads go through the same scatter-gather
:class:`~repro.shard.coordinator.QueryCoordinator` as batch-loaded
shards, so ``pipeline.query(...)``/``window_stats(...)`` stay
bit-identical to a single-store run over the same traffic — with
``shards=1`` the whole arrangement degenerates to one queue feeding
one store in the original delivery order, which the equivalence suite
pins against :class:`~repro.stream.pipeline.StreamPipeline` exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.broker import Broker, Channel, Delivery
from repro.cluster.jobs import Job
from repro.core.daemon import EXCHANGE
from repro.metrics.flags import Thresholds
from repro.shard.coordinator import QueryCoordinator
from repro.shard.ring import DEFAULT_VNODES, ShardMap
from repro.shard.worker import ShardSet
from repro.stream.alerts import AlertRouter
from repro.stream.analyzer import StreamingFlagAnalyzer
from repro.stream.pipeline import Block, StreamPipeline, _Layout
from repro.stream.retention import RetentionPolicy
from repro.tsdb.chunks import CHUNK_POINTS

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
                 jobs=None, analytics=None, coalesce_points: int = 0) -> None:
        super().__init__(
            broker, tsdb=tsdb, jobs=jobs, retention=retention, types=types,
            metric=metric, analytics=analytics,
        )
        self.shard = shard
        self.analyzer = analyzer
        self.alerts = alerts
        #: >0 buffers rows across deliveries and writes them through in
        #: batches of at least this many points; 0 (the default) keeps
        #: the plain one-put_many-per-delivery behaviour the
        #: equivalence suite pins
        self.coalesce_points = int(coalesce_points)
        #: layout → pending (times, rows) blocks.  A layout belongs to
        #: one host and a changed layout is a new object, so flushing
        #: in insertion order keeps every series in arrival order —
        #: which is all the retention tiers and the sorted-key query
        #: engine depend on
        self._coal: Dict[_Layout, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._coal_n = 0

    def _write_blocks(self, blocks: List[Block]) -> int:
        if self.coalesce_points <= 0:
            return super()._write_blocks(blocks)
        n = 0
        for layout, times, values in blocks:
            self._coal.setdefault(layout, []).append((times, values))
            n += values.size
        # points are accounted when buffered (flush adds nothing), so
        # the totals match the uncoalesced pipeline delivery-for-delivery
        self._coal_n += n
        self._count_points(n)
        if self._coal_n >= self.coalesce_points:
            self.flush_writes()
        return n

    def flush_writes(self) -> None:
        """Write every buffered row through the retention writer.

        Called when the coalesce window fills and at every barrier
        (query epoch sync, finalize) — after it returns the TSDB holds
        exactly what the uncoalesced pipeline would hold.  Each
        layout's rows go out as one ``(n, K)`` block.
        """
        if not self._coal:
            return
        pending, self._coal = self._coal, {}
        self._coal_n = 0
        for layout, parts in pending.items():
            self.writer.put_many(
                self.metric,
                layout.group,
                np.concatenate([t for t, _ in parts]),
                np.concatenate([v for _, v in parts]),
            )
        obs.counter(
            "repro_shard_stream_coalesced_flushes_total",
            "coalesced row blocks flushed to shard stores",
        ).inc(len(pending), shard=self.shard)

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
        vnodes: int = DEFAULT_VNODES,
        chunk_size: int = CHUNK_POINTS,
        analytics=None,
        coalesce_points: int = 0,
    ) -> None:
        self.broker = broker
        self.map = ShardMap(shards, vnodes=vnodes)
        self.metric = metric
        self.alerts = alerts if alerts is not None else AlertRouter()
        # the shard stores double as the in-process query backend
        self._shardset = ShardSet(range(shards), chunk_size=chunk_size)
        self.coordinator = QueryCoordinator(self._shardset)
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
                broker, k, self._shardset.stores[k], self.analyzer,
                self.alerts, retention, types, metric,
                jobs=jobs, analytics=analytics,
                coalesce_points=coalesce_points,
            )
            for k in range(shards)
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

    # -- reads (scatter-gather, same coordinator as batch shards) ------------
    def _sync_epoch(self) -> None:
        # a read is a write barrier: coalesced columns still buffered
        # in the feeds must land before the epochs (and the data) are
        # observed, or a query could miss delivered points
        for feed in self.feeds:
            feed.flush_writes()
        # feeds write concurrently with queries; fold the per-store
        # write epochs into the coordinator's so its QueryCache
        # invalidates exactly like a single live store's would
        self.coordinator.epoch = sum(
            s.epoch for s in self._shardset.stores.values()
        )

    def query(self, metric: str, **kw):
        self._sync_epoch()
        return self.coordinator.query(metric, **kw)

    def window_stats(self, metric: str, **kw):
        self._sync_epoch()
        return self.coordinator.window_stats(metric, **kw)

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

    def n_series(self) -> int:
        for feed in self.feeds:
            feed.flush_writes()
        return sum(s.n_series() for s in self._shardset.stores.values())

    def n_points(self) -> int:
        for feed in self.feeds:
            feed.flush_writes()
        return sum(s.n_points() for s in self._shardset.stores.values())

    def shard_points(self) -> Dict[int, int]:
        for feed in self.feeds:
            feed.flush_writes()
        return {
            k: s.n_points() for k, s in self._shardset.stores.items()
        }

    # -- end of run -----------------------------------------------------------
    def finalize(self) -> Dict[str, object]:
        """Drain the shared analyzer once, flush every shard's writer."""
        events = self.analyzer.finalize()
        if self.feeds:
            self.feeds[0]._route(events, self.last_seen, None)
            self.feeds[0]._score_completed(self.last_seen, None)
        for feed in self.feeds:
            feed.flush_writes()
            feed.writer.flush()
        obs.gauge(
            "repro_stream_jobs_inflight",
            "jobs currently tracked by the streaming analyzer",
        ).set(0)
        return dict(self.analyzer.completed)
