"""The sharded store: one TSDB interface over a ring of shard stores.

:class:`ShardedTSDB` is the only class that knows the ring, the write
epoch and the :class:`~repro.tsdb.cache.QueryCache`, and — once, for
both backends — how each command's arguments split by shard and how
the shards' replies merge.  What a command does *to a store* is a row
of :data:`repro.shard.worker.OPS`; how it reaches the store is the
backend's business (``workers=0``: an in-process
:class:`~repro.shard.worker.LocalShards`; ``workers>0``: a
spawn-started :class:`~repro.shard.pool.ShardWorkerPool`).

It exposes exactly the interface the central query engine
(:mod:`repro.tsdb.query`) reads a store through — ``select``,
``scan``, ``cache``, ``epoch``, ``read_locked`` — and that shape is
the whole trick behind the bit-exactness guarantee:

* **window_stats** merges shard-local partial aggregates.  The
  partition key is ``(host, metric)``, so *all* points of one series
  live on one shard — each shard computes its per-series
  count/sum/min/max/first/last exactly as the single store would
  (same chunks, same pre-aggregate folds), and the merge only has to
  re-sort the concatenated partials into the single store's
  ``sorted(series key)`` order.  Nothing numeric is combined across
  shards, so nothing can drift.
* **query** (group-by / rate / downsample) runs the *central*
  aggregation code over shard-materialised per-series columns:
  ``select`` returns lightweight handles sorted exactly like
  :meth:`TimeSeriesDB.select`, ``scan`` gathers each shard's
  batch-decoded columns back into that order, and then
  :func:`repro.tsdb.query.query` proceeds as if it were reading one
  store.  (Cross-shard *sum* partials would not be bit-stable —
  float addition is non-associative — which is why group aggregation
  reduces centrally over full columns rather than merging per-shard
  sums.)

Every write moves the epoch, so the result cache invalidates exactly
like the single store's.  The epoch is derived, never set: the
coordinator's own write count plus the epochs of its in-process shard
stores, so rows written into a shard store directly (a sharded live
feed) move it too.  Worker-process epochs never cross the pipe; there
every write goes through the coordinator.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs.harvest import HarvestMerger
from repro.shard.pool import ShardWorkerPool
from repro.shard.ring import ShardMap
from repro.shard.worker import LocalShards
from repro.tsdb.cache import QueryCache
from repro.tsdb.chunks import CHUNK_POINTS
from repro.tsdb.query import (
    QueryResult,
    SeriesStats,
    _norm_tags,
    query as _central_query,
)
from repro.tsdb.store import TagKey, _tagkey

__all__ = ["RemoteSeries", "ShardedTSDB", "ShardIngestReport"]


@dataclass(frozen=True)
class RemoteSeries:
    """A selected series handle: which shard owns it, and its tags."""

    shard: int
    metric: str
    tags: Dict[str, str] = field(compare=False)
    key: TagKey


@dataclass
class ShardIngestReport:
    """What a sharded ingest did, per shard and in total."""

    points: int
    samples: int
    seconds: float  # coordinator wall clock, not summed worker time
    per_shard: Dict[int, Dict[str, float]]
    workers: int

    @property
    def points_per_sec(self) -> float:
        return self.points / self.seconds if self.seconds else 0.0

    @property
    def samples_per_sec(self) -> float:
        return self.samples / self.seconds if self.seconds else 0.0


class ShardedTSDB:
    """The sharded drop-in for :class:`~repro.tsdb.store.TimeSeriesDB`.

    ``shards=1, workers=0`` is byte-identical to the single-process
    store on every read path (the equivalence suite pins it), which
    is what makes ``--shards`` safe to default off.
    """

    def __init__(
        self,
        shards: int = 1,
        workers: int = 0,
        chunk_size: int = CHUNK_POINTS,
    ) -> None:
        self.map = ShardMap(shards)
        self.n_shards = self.map.shards
        self.workers = int(workers)
        if self.workers > 0:
            self.backend = ShardWorkerPool(
                self.n_shards, self.workers, chunk_size
            )
        else:
            self.backend = LocalShards(range(self.n_shards), chunk_size)
        self.cache = QueryCache()
        #: writes made through this coordinator (see :attr:`epoch`)
        self._writes = 0
        #: merge state for obs harvest (pool backend only)
        self._harvest_merger = HarvestMerger() if self.workers else None

    def _all(self, *args) -> Dict[int, tuple]:
        """The same arguments for every shard."""
        return dict.fromkeys(range(self.n_shards), args)

    @property
    def epoch(self) -> int:
        """Write epoch the QueryCache keys on (module docstring)."""
        stores = getattr(self.backend, "stores", {})
        return self._writes + sum(s.epoch for s in stores.values())

    def read_locked(self):
        """Nothing to hold: the shard stores lock themselves, and every
        epoch term only grows, so a result is never filed under an
        epoch newer than the data it scanned."""
        return nullcontext()

    # -- write path (routed by the ring) -------------------------------------
    def put(
        self, metric: str, tags: Mapping[str, str], ts: int, value: float
    ) -> None:
        shard = self.map.place_tags(metric, tags)
        self.backend.post("put", shard, (metric, dict(tags), ts, value))
        self._writes += 1

    def put_many(
        self,
        metric: str,
        tags: Mapping[str, str],
        times: Sequence[int],
        values: Sequence[float],
    ) -> int:
        # contiguous arrays, so the columns leave a frame out-of-band
        # instead of as boxed Python objects (the store's own
        # conversion, done one step early)
        t = np.ascontiguousarray(times, dtype=np.int64)
        v = np.ascontiguousarray(values, dtype=np.float64)
        shard = self.map.place_tags(metric, tags)
        self.backend.post("put_many", shard, (metric, dict(tags), t, v))
        self._writes += 1
        return len(t)

    def ingest(
        self,
        source,
        hosts: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        metric: str = "stats",
    ) -> ShardIngestReport:
        """Scatter a host source across the shards and load it all."""
        if hosts is None:
            hosts = source.hosts()
        by_shard: Dict[int, List[str]] = {s: [] for s in range(self.n_shards)}
        for host in hosts:
            by_shard[self.map.place(host, metric)].append(host)
        t0 = time.perf_counter()
        per_shard = self.backend.call("ingest", {
            s: (source, part, types, metric) for s, part in by_shard.items()
        })
        seconds = time.perf_counter() - t0
        self._writes += 1
        if self.workers:
            for sid, r in per_shard.items():
                if not (r["points"] or r["samples"]):
                    continue
                obs.counter(
                    "repro_shard_points_total",
                    "points ingested per shard across the worker pool",
                ).inc(int(r["points"]), shard=sid)
                if r["seconds"]:
                    obs.histogram(
                        "repro_shard_ingest_seconds",
                        "wall seconds each shard's ingest slice took",
                    ).observe(r["seconds"], shard=sid)
        return ShardIngestReport(
            points=int(sum(r["points"] for r in per_shard.values())),
            samples=int(sum(r["samples"] for r in per_shard.values())),
            seconds=seconds,
            per_shard=per_shard,
            workers=self.workers,
        )

    def flush(self) -> None:
        """Write barrier: every ``put``/``put_many`` before it landed,
        or this raises (the pipelining contract of
        :mod:`repro.shard.pool`).  Reads and ``close()`` are barriers
        too — an explicit flush just lets callers pick *where*
        failures surface.  A no-op for the in-process backend.
        """
        self.backend.flush()

    def prune(self, before: int, metric: Optional[str] = None) -> int:
        n = sum(self.backend.call("prune", self._all(before, metric)).values())
        if n:
            self._writes += 1
        return n

    # -- read path (scatter-gather) ------------------------------------------
    def select(
        self, metric: str, tags: Optional[Mapping[str, object]] = None
    ) -> List[RemoteSeries]:
        """Matching series across all shards, in single-store order
        (:meth:`TimeSeriesDB.select` sorts by the same key)."""
        replies = self.backend.call("select", self._all(metric, tags))
        handles = [
            RemoteSeries(shard, metric, t, _tagkey(t))
            for shard, rows in replies.items() for t in rows
        ]
        handles.sort(key=lambda h: h.key)
        return handles

    def scan(
        self,
        series_list: Sequence[RemoteSeries],
        time_range: Optional[Tuple[int, int]] = None,
    ):
        """Materialise handles as columns, preserving caller order;
        each shard batch-decodes all of its requested series at once."""
        if not series_list:
            return []
        metric = series_list[0].metric
        by_shard: Dict[int, List[int]] = {}
        for i, h in enumerate(series_list):
            by_shard.setdefault(h.shard, []).append(i)
        replies = self.backend.call("scan", {
            s: (metric, [series_list[i].key for i in idxs], time_range)
            for s, idxs in by_shard.items()
        })
        out: List[Optional[tuple]] = [None] * len(series_list)
        for s, idxs in by_shard.items():
            for i, cols in zip(idxs, replies[s]):
                out[i] = cols
        return out

    def window_stats(
        self,
        metric: str,
        tags: Optional[Mapping[str, object]] = None,
        time_range: Optional[Tuple[int, int]] = None,
        use_preagg: bool = True,
    ) -> List[SeriesStats]:
        """Per-series scalar stats in single-store order — a pure
        re-sort of the shards' own partials (module docstring)."""
        cache_key = (
            "window_stats", metric, _norm_tags(tags), time_range,
            bool(use_preagg),
        )
        cached = self.cache.get(cache_key, self.epoch)
        if cached is not None:
            return list(cached)
        replies = self.backend.call(
            "window_stats", self._all(metric, tags, time_range, use_preagg)
        )
        out = [st for rows in replies.values() for st in rows]
        out.sort(key=lambda st: _tagkey(st.tags))
        self.cache.put(cache_key, self.epoch, tuple(out))
        return out

    def query(self, metric: str, **kw) -> QueryResult:
        """One aggregation query, scatter-gathered across shards.

        Bit-identical to the same query on one
        :class:`~repro.tsdb.store.TimeSeriesDB` holding the same data
        — the equivalence suite pins it.

        >>> from repro.shard import ShardedTSDB
        >>> db = ShardedTSDB(shards=4)
        >>> for host in ("c001-001", "c001-002"):
        ...     _ = db.put_many("stats", {"host": host, "event": "user"},
        ...                     [0, 10], [1.0, 3.0])
        >>> r = db.query("stats", group_by=("host",), aggregate="sum")
        >>> [(s.tags["host"], s.values.tolist()) for s in r.series]
        [('c001-001', [1.0, 3.0]), ('c001-002', [1.0, 3.0])]
        """
        with obs.span("shard.query", metric=metric):
            return _central_query(self, metric, **kw)

    # -- worker processes ----------------------------------------------------
    def harvest_obs(self):
        """Merge worker-process obs state into the central registry.

        Returns a :class:`~repro.obs.harvest.HarvestReport`, or
        ``None`` at ``workers=0``: in-process shard stores already
        write straight into the central registry, and harvesting them
        again would double-count.
        """
        if self.workers == 0:
            return None
        return self.backend.harvest_obs(self._harvest_merger)

    def respawn(self, worker: int) -> List[int]:
        """Restart a dead worker; returns the shard ids it lost.

        Those shards come back *empty* (re-ingest them from the raw
        files), so the epoch moves: a result cached before the death
        must not be served for data that is no longer there.
        """
        lost = self.backend.respawn(worker)
        self._writes += 1
        return lost

    # -- bookkeeping ----------------------------------------------------------
    def shard_stats(self) -> Dict[int, Dict[str, int]]:
        return self.backend.call("stats", self._all())

    def n_points(self) -> int:
        return sum(r["points"] for r in self.shard_stats().values())

    def n_series(self) -> int:
        return sum(r["series"] for r in self.shard_stats().values())

    def n_chunks(self) -> int:
        return sum(r["chunks"] for r in self.shard_stats().values())

    def storage_bytes(self) -> int:
        return sum(r["bytes"] for r in self.shard_stats().values())

    def drop_read_caches(self) -> None:
        self.backend.call("drop_read_caches", self._all())
        self.cache.clear()

    def seal_heads(self) -> None:
        self.backend.call("seal_heads", self._all())

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "ShardedTSDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
