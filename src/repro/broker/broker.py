"""The broker: exchanges, queues, bindings, channels and delivery.

Delivery model
--------------
Publishing routes the message into every bound queue.  Each queue hands
messages to its consumers round-robin.  Consumers receive a
:class:`~repro.broker.message.Delivery` and must ack (unless subscribed
with ``auto_ack=True``).  A channel that closes (or crashes) with
outstanding unacked deliveries causes those messages to be *requeued*
and redelivered — the at-least-once guarantee the ablation benchmark
exercises.

Transport latency: the broker can be given an event queue and a
``latency`` so deliveries arrive ``latency`` seconds after publish,
letting Fig. 2 measure real-time data freshness against cron mode's
daily rsync.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.broker.message import Delivery, Message
from repro.obs import handles
from repro.broker.routing import topic_matches
from repro.sim.events import EventQueue

ConsumerCallback = Callable[["Channel", Delivery], None]

#: redeliveries of one message before it is dead-lettered (a consumer
#: that always crashes must not livelock the queue head forever)
DEFAULT_MAX_REDELIVERIES = 5

_REJECTED = handles.counter(
    "repro_broker_rejected_total",
    "publishes refused while a partition fault was active",
)
_UNROUTABLE = handles.counter(
    "repro_broker_unroutable_total",
    "published messages that matched no queue binding",
)
_PUBLISHED = handles.counter(
    "repro_broker_published_total", "messages accepted for routing"
)
_DUPLICATED = handles.counter(
    "repro_broker_duplicated_total",
    "deliveries duplicated by injected transport faults",
)
_DELIVERED = handles.counter(
    "repro_broker_delivered_total",
    "deliveries handed to a consumer callback",
)
_REDELIVERED = handles.counter(
    "repro_broker_redelivered_total",
    "deliveries of previously-delivered messages",
)
_DEAD_LETTERED = handles.counter(
    "repro_broker_dead_lettered_total",
    "messages dropped after exhausting the redelivery budget",
)
_DEPTH = handles.gauge("repro_broker_queue_depth", "ready messages per queue")


class BrokerUnavailable(RuntimeError):
    """The broker cannot be reached (network partition, server down).

    Raised from :meth:`Broker.publish` while a fault window is active;
    publishers are expected to buffer and retry with backoff
    (``repro.faults.recovery.RetryPolicy``) rather than drop data.
    """


@dataclass
class _Binding:
    queue: str
    pattern: str


@dataclass
class _Exchange:
    name: str
    kind: str  # "direct" | "fanout" | "topic"
    bindings: List[_Binding] = field(default_factory=list)

    def route(self, routing_key: str) -> List[str]:
        if self.kind == "fanout":
            return [b.queue for b in self.bindings]
        if self.kind == "direct":
            return [b.queue for b in self.bindings if b.pattern == routing_key]
        if self.kind == "topic":
            return [
                b.queue
                for b in self.bindings
                if topic_matches(b.pattern, routing_key)
            ]
        raise ValueError(f"unknown exchange kind {self.kind!r}")


@dataclass
class _Consumer:
    tag: str
    channel: "Channel"
    callback: ConsumerCallback
    auto_ack: bool


class _BrokerQueue:
    def __init__(self, name: str) -> None:
        self.name = name
        self.ready: Deque[Message] = deque()
        #: messages that exhausted their redelivery budget (forensics)
        self.dead: Deque[Message] = deque()
        self.consumers: List[_Consumer] = []
        self._rr = 0
        self.enqueued = 0
        self.delivered = 0
        #: this queue's samples of the per-queue broker metrics
        self.obs_delivered = _DELIVERED.labels(queue=name)
        self.obs_redelivered = _REDELIVERED.labels(queue=name)
        self.obs_duplicated = _DUPLICATED.labels(queue=name)
        self.obs_dead_lettered = _DEAD_LETTERED.labels(queue=name)
        self.obs_depth = _DEPTH.labels(queue=name)

    def next_consumer(self) -> Optional[_Consumer]:
        if not self.consumers:
            return None
        c = self.consumers[self._rr % len(self.consumers)]
        self._rr += 1
        return c


class Broker:
    """An in-process message broker with AMQP routing semantics."""

    def __init__(
        self,
        events: Optional[EventQueue] = None,
        latency: float = 0.05,
        max_redeliveries: int = DEFAULT_MAX_REDELIVERIES,
    ) -> None:
        self.events = events
        self.latency = latency
        self.max_redeliveries = max_redeliveries
        self._exchanges: Dict[str, _Exchange] = {
            "": _Exchange(name="", kind="direct")  # default exchange
        }
        self._queues: Dict[str, _BrokerQueue] = {}
        self._tags = itertools.count(1)
        self._ctags = itertools.count(1)
        self.published = 0
        self.dropped = 0
        self.rejected = 0  # publishes refused while partitioned
        self.duplicated = 0  # deliveries duplicated by injected faults
        self.dead_lettered = 0  # messages that exhausted redelivery
        #: optional fault hook (duck-typed; see repro.faults.injector).
        #: Must offer publish_allowed(now), extra_latency(now) and
        #: duplicate_delivery(now) -> bool.  None = healthy broker.
        self.faults: Optional[Any] = None

    # -- topology ----------------------------------------------------------
    def declare_exchange(self, name: str, kind: str = "topic") -> None:
        if kind not in ("direct", "fanout", "topic"):
            raise ValueError(f"unknown exchange kind {kind!r}")
        if name in self._exchanges and self._exchanges[name].kind != kind:
            raise ValueError(f"exchange {name!r} exists with different kind")
        self._exchanges.setdefault(name, _Exchange(name=name, kind=kind))

    def declare_queue(self, name: str) -> None:
        q = self._queues.setdefault(name, _BrokerQueue(name))
        # default-exchange binding by queue name, as in AMQP
        ex = self._exchanges[""]
        if not any(b.queue == name and b.pattern == name for b in ex.bindings):
            ex.bindings.append(_Binding(queue=name, pattern=name))
        return None

    def bind(self, queue: str, exchange: str, pattern: str) -> None:
        """Bind a queue to an exchange; idempotent, as in AMQP —
        re-declaring an identical binding must not double-route."""
        if queue not in self._queues:
            raise KeyError(f"undeclared queue {queue!r}")
        ex = self._exchanges[exchange]
        if any(b.queue == queue and b.pattern == pattern
               for b in ex.bindings):
            return
        ex.bindings.append(_Binding(queue=queue, pattern=pattern))

    def channel(self) -> "Channel":
        return Channel(self)

    # -- publish/deliver ---------------------------------------------------
    def publish(
        self,
        exchange: str,
        routing_key: str,
        body: Any,
        headers: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Route a message; returns the number of queues it landed in.

        Raises :class:`BrokerUnavailable` while a partition fault is
        active — the transport equivalent of a connection refused.
        """
        now = self.events.clock.now() if self.events is not None else None
        if self.faults is not None and not self.faults.publish_allowed(now):
            self.rejected += 1
            _REJECTED.inc()
            raise BrokerUnavailable(f"broker unreachable at t={now}")
        msg = Message(
            body=body,
            routing_key=routing_key,
            headers=dict(headers or {}),
            published_at=now,
        )
        targets = self._exchanges[exchange].route(routing_key)
        if not targets:
            self.dropped += 1
            _UNROUTABLE.inc()
            return 0
        self.published += 1
        _PUBLISHED.inc()
        for qname in targets:
            q = self._queues[qname]
            q.ready.append(msg)
            q.enqueued += 1
            self._kick(q)
        return len(targets)

    def _kick(self, q: _BrokerQueue) -> None:
        """Schedule (or perform) delivery of ready messages."""
        if not q.ready:
            return
        latency = self.latency
        if self.faults is not None and self.events is not None:
            latency += self.faults.extra_latency(self.events.clock.now())
        if self.events is not None and latency > 0:
            self.events.schedule_in(
                max(1, int(round(latency))),
                lambda: self._drain(q),
                label=f"amqp:{q.name}",
            )
        else:
            self._drain(q)

    def _drain(self, q: _BrokerQueue) -> None:
        while q.ready and q.consumers:
            consumer = q.next_consumer()
            if consumer is None or consumer.channel.closed:
                q.consumers = [
                    c for c in q.consumers if not c.channel.closed
                ]
                continue
            msg = q.ready.popleft()
            tag = next(self._tags)
            now = self.events.clock.now() if self.events is not None else None
            if (
                self.faults is not None
                and not msg.headers.get("_chaos_dup", False)
                and self.faults.duplicate_delivery(now)
            ):
                # the network delivered the frame twice (at-least-once
                # transport): requeue a marked copy so it cannot fork
                # into an endless storm of duplicates of duplicates
                dup = Message(
                    body=msg.body,
                    routing_key=msg.routing_key,
                    headers={
                        **msg.headers,
                        "_chaos_dup": True,
                        "_redelivered": True,
                    },
                    published_at=msg.published_at,
                )
                q.ready.append(dup)
                q.enqueued += 1
                self.duplicated += 1
                q.obs_duplicated.inc()
            dv = Delivery(
                message=msg,
                delivery_tag=tag,
                queue=q.name,
                redelivered=msg.headers.get("_redelivered", False),
                delivered_at=now,
            )
            q.delivered += 1
            q.obs_delivered.inc()
            if dv.redelivered:
                q.obs_redelivered.inc()
            if not consumer.auto_ack:
                consumer.channel._unacked[tag] = (q.name, msg)
            try:
                consumer.callback(consumer.channel, dv)
            except Exception:
                # consumer crashed mid-handle: with explicit acks the
                # message is requeued (up to the redelivery budget);
                # with auto-ack it was considered acknowledged at
                # delivery and is lost with the crash
                consumer.channel._unacked.pop(tag, None)
                if not consumer.auto_ack:
                    self._requeue(q, msg)
                consumer.channel.close()
                q.consumers = [c for c in q.consumers if c.channel is not consumer.channel]
        q.obs_depth.set(len(q.ready))

    def _requeue(self, q: _BrokerQueue, msg: Message) -> bool:
        """Requeue at the head for redelivery, or dead-letter.

        Uncapped head-requeueing livelocks the queue when a consumer
        deterministically crashes on one message (the same frame is
        redelivered forever and everything behind it starves).  After
        ``max_redeliveries`` redeliveries the message moves to the
        queue's dead-letter ledger instead; returns False then.
        """
        n = int(msg.headers.get("_redelivery_count", 0)) + 1
        msg.headers["_redelivery_count"] = n
        msg.headers["_redelivered"] = True
        if self.max_redeliveries is not None and n > self.max_redeliveries:
            q.dead.append(msg)
            self.dead_lettered += 1
            q.obs_dead_lettered.inc()
            return False
        q.ready.appendleft(msg)
        return True

    def queue_depth(self, name: str) -> int:
        return len(self._queues[name].ready)

    def dead_letter_count(self, name: str) -> int:
        return len(self._queues[name].dead)

    def stats(self) -> Dict[str, Any]:
        return {
            "published": self.published,
            "dropped": self.dropped,
            "dead_lettered": self.dead_lettered,
            "queues": {
                n: {
                    "ready": len(q.ready),
                    "delivered": q.delivered,
                    "dead": len(q.dead),
                }
                for n, q in self._queues.items()
            },
        }

    # -- consumer registration (via Channel) --------------------------------
    def _subscribe(
        self,
        channel: "Channel",
        queue: str,
        callback: ConsumerCallback,
        auto_ack: bool,
    ) -> str:
        q = self._queues[queue]
        tag = f"ctag-{next(self._ctags)}"
        q.consumers.append(
            _Consumer(tag=tag, channel=channel, callback=callback, auto_ack=auto_ack)
        )
        self._kick(q)
        return tag

    def _requeue_unacked(self, channel: "Channel") -> int:
        n = 0
        for tag, (qname, msg) in list(channel._unacked.items()):
            q = self._queues[qname]
            if self._requeue(q, msg):
                n += 1
            self._kick(q)
        channel._unacked.clear()
        return n


class Channel:
    """A client's conversation with the broker.

    Both the publishing daemons and the consuming ingest process talk
    through channels; closing a channel with unacked deliveries requeues
    them (consumer-failure recovery).
    """

    def __init__(self, broker: Broker) -> None:
        self.broker = broker
        self.closed = False
        self._unacked: Dict[int, Tuple[str, Message]] = {}

    def basic_publish(
        self,
        exchange: str,
        routing_key: str,
        body: Any,
        headers: Optional[Dict[str, Any]] = None,
    ) -> int:
        if self.closed:
            raise RuntimeError("channel closed")
        return self.broker.publish(exchange, routing_key, body, headers)

    def basic_consume(
        self,
        queue: str,
        callback: ConsumerCallback,
        auto_ack: bool = False,
    ) -> str:
        if self.closed:
            raise RuntimeError("channel closed")
        return self.broker._subscribe(self, queue, callback, auto_ack)

    def basic_ack(self, delivery_tag: int) -> None:
        if delivery_tag not in self._unacked:
            raise KeyError(f"unknown or already-acked tag {delivery_tag}")
        del self._unacked[delivery_tag]

    def basic_nack(self, delivery_tag: int, requeue: bool = True) -> None:
        qname, msg = self._unacked.pop(delivery_tag)
        if requeue:
            q = self.broker._queues[qname]
            self.broker._requeue(q, msg)
            self.broker._kick(q)

    def close(self) -> int:
        """Close the channel; unacked deliveries are requeued."""
        if self.closed:
            return 0
        self.closed = True
        return self.broker._requeue_unacked(self)
