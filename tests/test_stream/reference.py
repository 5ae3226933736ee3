"""Frozen references for the live write path equivalence tests.

Two pieces of pre-PR-14 production code, kept verbatim in behaviour so
the row-wise replacements in ``src/`` have an oracle:

* :class:`ReferenceRetainingWriter` — the per-point retention fold
  ``RetainingWriter`` used to be: one scalar ``_Bucket`` per (tier,
  series), Python ``min``/``max``, one ``tsdb.put`` per finished bucket,
  and the prune check after every one-series call;
* :class:`ReferenceStreamPipeline` — the per-series gather
  ``StreamPipeline`` used to do: every sample exploded into ``(type,
  device, event)`` Python lists, one ``put_many`` per series per
  delivery.

Do not "fix" or speed these up: they are the specification.  (The
fleet analytics are not part of the reference: their counter feeds are
reads over the store written here, which the equivalence suites
already pin, and they write nothing.)
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.broker import Channel, Delivery
from repro.core.rawfile import ParsedSample
from repro.stream.analyzer import StreamEvent
from repro.stream.pipeline import StreamPipeline
from repro.stream.retention import (
    RetainingWriter,
    RetentionPolicy,
    RetentionTier,
)
from repro.tsdb.store import TimeSeriesDB, _tagkey
from tests.test_core.reference import ReferenceRawFileParser


@dataclass
class _Bucket:
    start: int
    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def fold(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def value(self, aggregate: str) -> float:
        if aggregate == "avg":
            return self.total / max(1, self.count)
        if aggregate == "sum":
            return self.total
        if aggregate == "max":
            return self.maximum
        return self.minimum


class ReferenceRetainingWriter(RetainingWriter):
    """The per-point writer; only ``prune`` is shared with ``src/`` (and
    with it the record of which metrics are rollups, of which tier)."""

    def __init__(
        self,
        tsdb: TimeSeriesDB,
        policy: Optional[RetentionPolicy] = None,
    ) -> None:
        self.tsdb = tsdb
        self.policy = policy or RetentionPolicy()
        #: (tier index, metric, tagkey) → open bucket
        self._open: Dict[Tuple[int, str, tuple], _Bucket] = {}
        self._tags: Dict[Tuple[int, str, tuple], Dict[str, str]] = {}
        self._max_ts: Optional[int] = None
        self._last_prune: Optional[int] = None
        self._rollups: Dict[str, RetentionTier] = {}
        self.pruned = 0
        self.rollup_points = 0

    def put(
        self, metric: str, tags: Mapping[str, str], ts: int, value: float
    ) -> None:
        self.tsdb.put(metric, tags, ts, value)
        self._fold(metric, tags, _tagkey(tags), int(ts), float(value))
        self._maybe_prune()

    def put_many(
        self,
        metric: str,
        tags: Mapping[str, str],
        times: Sequence[int],
        values: Sequence[float],
    ) -> int:
        n = self.tsdb.put_many(metric, tags, times, values)
        if not n:
            return 0
        key_tags = _tagkey(tags)
        for ts, value in zip(times, values):
            self._fold(metric, tags, key_tags, int(ts), float(value))
        self._maybe_prune()
        return n

    def _fold(
        self,
        metric: str,
        tags: Mapping[str, str],
        key_tags: tuple,
        ts: int,
        value: float,
    ) -> None:
        for i, tier in enumerate(self.policy.tiers):
            start = (ts // tier.interval) * tier.interval
            key = (i, metric, key_tags)
            bucket = self._open.get(key)
            if bucket is None:
                self._open[key] = _Bucket(start=start)
                self._tags[key] = dict(tags)
            elif bucket.start != start:
                self._flush_bucket(key, tier)
                self._open[key] = _Bucket(start=start)
            self._open[key].fold(value)
        if self._max_ts is None or ts > self._max_ts:
            self._max_ts = ts

    def _flush_bucket(
        self, key: Tuple[int, str, tuple], tier: RetentionTier
    ) -> None:
        bucket = self._open.pop(key)
        _, metric, _ = key
        self._rollups.setdefault(tier.rollup_metric(metric), tier)
        self.tsdb.put(
            tier.rollup_metric(metric),
            self._tags[key],
            bucket.start,
            bucket.value(tier.aggregate),
        )
        self.rollup_points += 1
        obs.counter(
            "repro_stream_rollup_points_total",
            "downsampled rollup points flushed into the live TSDB",
        ).inc()

    def flush(self) -> int:
        n = 0
        for key in sorted(self._open):
            self._flush_bucket(key, self.policy.tiers[key[0]])
            n += 1
        self._tags.clear()
        return n


class ReferenceStreamPipeline(StreamPipeline):
    """The per-series pipeline; wiring, routing and scoring are shared."""

    def __init__(self, broker, **kw) -> None:
        if kw.get("analytics") is not None:
            raise ValueError("the reference pipeline has no analytics tap")
        retention = kw.get("retention")
        super().__init__(broker, **kw)
        self.writer = ReferenceRetainingWriter(self.tsdb, retention)
        self.writers = [self.writer]
        self._parsers: Dict[str, ReferenceRawFileParser] = {}
        self._errors_seen: Dict[str, int] = {}

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
                parser = self._parsers[host] = ReferenceRawFileParser(
                    on_error="quarantine"
                )
                self._errors_seen[host] = 0
            events: List[StreamEvent] = []
            n_samples = 0
            #: (type, device, event) → aligned time/value columns,
            #: gathered across every sample in this delivery so the
            #: TSDB sees one batched put_many per series
            batch: Dict[Tuple[str, str, str], Tuple[list, list]] = {}
            for sample in parser.parse(io.StringIO(msg.body)):
                n_samples += 1
                self._collect_sample(sample, parser, batch)
                with obs.span("stream.analyze"):
                    # the analyzer reads a sample as the parser in
                    # ``src/`` yields it: one row and its columns
                    events.extend(self.analyzer.observe(host, ParsedSample(
                        sample.host, sample.timestamp, sample.jobids,
                        sample.data, sample.procs,
                    ), parser.schemas))
            if batch:
                with obs.span("stream.tsdb_write") as wsp:
                    wsp.set(points=self._write_batch(host, batch))
            if len(parser.errors) > self._errors_seen[host]:
                obs.counter(
                    "repro_stream_parse_errors_total",
                    "corrupt raw lines quarantined on the live path",
                ).inc(len(parser.errors) - self._errors_seen[host], host=host)
                self._errors_seen[host] = len(parser.errors)
            self.samples += n_samples
            obs.counter(
                "repro_stream_samples_total",
                "samples processed through the live pipeline",
            ).inc(n_samples)
            sp.set(samples=n_samples, sim_time=now)
            self._route(events, int(now), sp.trace_id or None)
        obs.gauge(
            "repro_stream_jobs_inflight",
            "jobs currently tracked by the streaming analyzer",
        ).set(self.analyzer.inflight)

    def _collect_sample(
        self,
        sample,
        parser: ReferenceRawFileParser,
        batch: Dict[Tuple[str, str, str], Tuple[list, list]],
    ) -> None:
        """Fold one parsed sample into the delivery's write batch."""
        for type_name, per_inst in sample.data.items():
            if self.types is not None and type_name not in self.types:
                continue
            schema = parser.schemas.get(type_name)
            if schema is None:
                continue
            names = schema.names()
            for device, values in per_inst.items():
                for i, event in enumerate(names):
                    col = batch.get((type_name, device, event))
                    if col is None:
                        col = batch[(type_name, device, event)] = ([], [])
                    col[0].append(sample.timestamp)
                    col[1].append(float(values[i]))

    def _write_batch(
        self, host: str, batch: Dict[Tuple[str, str, str], Tuple[list, list]]
    ) -> int:
        n = 0
        for (type_name, device, event), (ts_col, val_col) in batch.items():
            n += self.writer.put_many(
                self.metric,
                {
                    "host": host,
                    "type": type_name,
                    "device": device,
                    "event": event,
                },
                ts_col,
                val_col,
            )
        self.points += n
        obs.counter(
            "repro_stream_points_total",
            "points written into the live TSDB feed",
        ).inc(n)
        return n


def store_dump(tsdb: TimeSeriesDB) -> Dict[tuple, Tuple[list, list]]:
    """Every series of every metric as ``key → (times, value bits)``.

    Values are compared by their 8 bytes, so NaN payloads and signed
    zeros count; the dump is keyed, so series creation order does not.
    """
    out = {}
    for metric in tsdb.metrics():
        for s in tsdb.select(metric):
            t, v = s.arrays()
            out[(metric, _tagkey(s.tags))] = (
                t.tolist(),
                np.asarray(v, dtype=np.float64).view(np.uint64).tolist(),
            )
    return out
