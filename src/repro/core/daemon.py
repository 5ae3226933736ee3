"""Daemon operation mode (Fig. 2): tacc_statsd + message broker.

§III-A: a prospective site requested a version that *"did not involve
the filesystem in its operation and reported data in real time"*.  The
``tacc_statsd`` daemon runs on every node, wakes via ``sleep()`` to
collect, and sends data over the Ethernet directly to a RabbitMQ
server.  A consumer drains the queue as soon as data is available and
writes raw stats files — so data lag is broker latency, not a daily
rsync, and a node failure loses at most the last interval.

First deployed on Maverick (132 nodes), then Comet (1944) and the
Lonestar 5 Cray (1252) — the Cray port is represented by the daemon
mode running identically on Haswell device trees.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro import obs
from repro.broker import Broker, BrokerUnavailable, Channel, Delivery
from repro.cluster.cluster import Cluster
from repro.cluster.jobs import Job
from repro.core.collector import Collector
from repro.core.config import MonitorConfig
from repro.core.rawfile import RawFileWriter
from repro.core.store import CentralStore
from repro.faults.recovery import PUBLISH_RETRY, RetryPolicy
from repro.obs import handles

EXCHANGE = "tacc_stats"
QUEUE = "tacc_stats_ingest"

_BUFFERED = handles.gauge(
    "repro_daemon_buffered_samples",
    "samples buffered in daemon memory awaiting publish",
)
_PUBLISHED = handles.counter(
    "repro_daemon_published_total",
    "samples published by the per-node daemons",
)
_RETRIES = handles.counter(
    "repro_daemon_publish_retries_total",
    "daemon publish retries armed after BrokerUnavailable",
)
_LOST = handles.counter(
    "repro_daemon_lost_samples_total",
    "samples that died in a failed node's daemon buffer",
)


class DaemonMode:
    """Per-node tacc_statsd daemons publishing into a broker.

    Publishes that fail with :class:`BrokerUnavailable` (network
    partition, server restart) are buffered in the daemon's memory and
    retried with exponential backoff; in-order delivery per node is
    preserved.  A node that power-fails loses whatever its daemon still
    buffered — the daemon-mode loss bound the paper states ("at most
    the last interval") plus any backlog a concurrent partition built.
    """

    def __init__(
        self,
        cluster: Cluster,
        collector: Collector,
        broker: Broker,
        monitor: Optional[MonitorConfig] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.cluster = cluster
        self.collector = collector
        self.broker = broker
        self.monitor = monitor or collector.monitor
        self.retry = retry or PUBLISH_RETRY
        self._writers: Dict[str, RawFileWriter] = {}
        self._header_sent: Dict[str, bool] = {}
        self._channel: Optional[Channel] = None
        self._started = False
        #: per-node FIFO of (text, headers) awaiting (re)publish
        self._pending: Dict[str, Deque[Tuple[str, Dict[str, object]]]] = {}
        self._attempts: Dict[str, int] = {}
        self._retry_armed: Dict[str, bool] = {}
        self.publish_retries = 0
        #: node → samples that died in the daemon's buffer with the node
        self.lost_buffered: Dict[str, int] = {}

    def start(self) -> None:
        """Boot a daemon on every node and hook the scheduler."""
        if self._started:
            raise RuntimeError("daemon mode already started")
        self._started = True
        self.broker.declare_exchange(EXCHANGE, kind="topic")
        self._channel = self.broker.channel()
        for name, node in self.cluster.nodes.items():
            self._writers[name] = RawFileWriter(
                hostname=name,
                arch_name=node.tree.arch.name,
                schemas=self.collector.schemas_for(name),
                mem_bytes=node.mem_bytes or 0,
            )
            self._header_sent[name] = False
            self._pending[name] = deque()
            self._attempts[name] = 0
            self._retry_armed[name] = False
        # each daemon sleeps `interval` between collections; nodes are
        # not phase-locked in reality, but a shared cron-like cadence
        # keeps record timestamps aligned for job stitching
        self.cluster.events.schedule_every(
            self.monitor.interval, self._collect_all, label="statsd"
        )
        self.cluster.scheduler.prolog_hooks.append(self._job_hook)
        self.cluster.scheduler.epilog_hooks.append(self._job_hook)

    def _collect_all(self) -> None:
        for name in self.cluster.nodes:
            self._publish(name, None)

    def _job_hook(self, job: Job, now: int) -> None:
        for name in job.assigned_nodes:
            self._publish(name, job.jobid)

    def _publish(self, node_name: str, jobid: Optional[str]) -> None:
        # the publish span is the trace root: the collection below is
        # its child, and its ids travel in the message headers so the
        # consumer-side spans join the same trace (one trace per
        # sample, end to end)
        with obs.span("daemon.publish", node=node_name) as pub:
            sample = self.collector.collect(node_name, jobid_hint=jobid)
            if sample is None:  # daemon died with the node
                pub.set(skipped=True)
                return
            writer = self._writers[node_name]
            text = writer.record(sample)
            if not self._header_sent[node_name]:
                text = writer.header() + text
                self._header_sent[node_name] = True
            headers: Dict[str, object] = {
                "host": node_name,
                "timestamp": sample.timestamp,
            }
            obs.inject_context(headers, pub)
            pub.set(sim_time=sample.timestamp)
            self._pending[node_name].append((text, headers))
        self._flush(node_name)

    # -- publish buffering / retry -----------------------------------------
    def _flush(self, node_name: str) -> None:
        """Publish the node's buffered samples in order; arm a retry on
        the first :class:`BrokerUnavailable`."""
        assert self._channel is not None
        pending = self._pending[node_name]
        while pending:
            text, headers = pending[0]
            try:
                self._channel.basic_publish(
                    EXCHANGE,
                    routing_key=f"stats.{node_name}",
                    body=text,
                    headers=headers,
                )
            except BrokerUnavailable:
                self._arm_retry(node_name)
                _BUFFERED.set(sum(len(p) for p in self._pending.values()))
                return
            pending.popleft()
            _PUBLISHED.inc()
        self._attempts[node_name] = 0
        _BUFFERED.set(sum(len(p) for p in self._pending.values()))

    def _arm_retry(self, node_name: str) -> None:
        if self._retry_armed[node_name]:
            return
        attempt = min(self._attempts[node_name], self.retry.max_retries - 1)
        delay = self.retry.delay(attempt)
        self._attempts[node_name] += 1
        self.publish_retries += 1
        _RETRIES.inc()
        self._retry_armed[node_name] = True
        self.cluster.events.schedule_in(
            max(1, int(round(delay))),
            lambda: self._retry(node_name),
            label="statsd:retry",
        )

    def _retry(self, node_name: str) -> None:
        self._retry_armed[node_name] = False
        if self.cluster.nodes[node_name].failed:
            self.note_node_failure(node_name)
            return
        self._flush(node_name)

    def pending_count(self, node_name: str) -> int:
        """Samples buffered in one node's daemon awaiting publish."""
        return len(self._pending.get(node_name, ()))

    def note_node_failure(self, node_name: str) -> int:
        """A node died: its daemon's unflushed buffer dies with it."""
        lost = len(self._pending.get(node_name, ()))
        if lost:
            self.lost_buffered[node_name] = (
                self.lost_buffered.get(node_name, 0) + lost
            )
            self._pending[node_name].clear()
            _LOST.inc(lost)
        return lost

    def note_node_reboot(self, node_name: str) -> None:
        """A node came back: its daemon restarts with an empty buffer
        and must re-announce its file header (fresh process)."""
        self._pending[node_name] = deque()
        self._attempts[node_name] = 0
        self._header_sent[node_name] = False


class StatsConsumer:
    """The data-consuming executable: broker → raw stats files."""

    def __init__(self, broker: Broker, store: CentralStore) -> None:
        self.broker = broker
        self.store = store
        self.consumed = 0
        self._channel: Optional[Channel] = None

    def start(self) -> None:
        self.broker.declare_exchange(EXCHANGE, kind="topic")
        self.broker.declare_queue(QUEUE)
        self.broker.bind(QUEUE, EXCHANGE, "stats.#")
        self._channel = self.broker.channel()
        self._channel.basic_consume(QUEUE, self._on_delivery, auto_ack=False)

    def _on_delivery(self, channel: Channel, delivery: Delivery) -> None:
        msg = delivery.message
        host = msg.headers.get("host", "?")
        ts = msg.headers.get("timestamp")
        arrived = (
            delivery.delivered_at
            if delivery.delivered_at is not None
            else (msg.published_at or 0)
        )
        # rejoin the publisher's trace across the broker hop
        with obs.span(
            "consumer.handle",
            remote_parent=obs.extract_context(msg.headers),
            queue=delivery.queue,
        ) as sp:
            sp.set(host=host, sim_time=ts)
            self.store.append(
                host,
                msg.body,
                arrived_at=arrived,
                collect_times=[ts] if ts is not None else None,
            )
            channel.basic_ack(delivery.delivery_tag)
            self.consumed += 1
