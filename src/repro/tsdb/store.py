"""Time-series storage and ingest.

Series are keyed by (metric, sorted tag items).  Each series is a
chunked columnar store: writes land in a small mutable head, and once
the head reaches ``chunk_size`` points it is sealed into an immutable
compressed :class:`~repro.tsdb.chunks.Chunk` (delta-of-delta varint
timestamps, XOR-packed float values) carrying ``(t_min, t_max,
count)`` metadata.  Reads materialise sorted NumPy arrays with
last-write-wins duplicate handling — semantically identical to the
original growable-list store (see :mod:`repro.tsdb.baseline`, the
retained reference implementation) — but

* time-range reads skip whole chunks on metadata before any decode,
* :meth:`TimeSeriesDB.select` resolves series through a per-metric
  index instead of scanning every key in the store,
* :meth:`TimeSeriesDB.prune` drops expired sealed chunks by comparing
  ``t_max`` against the horizon, decoding only the one chunk that
  straddles it, and
* :meth:`TimeSeriesDB.put_many` appends whole columns in one call —
  one series' ``(n,)`` column, or an ``(n, K)`` block of rows across a
  :class:`SeriesGroup` (the live feed writes one row per host sample).

Every write bumps the store's ``epoch``, which is what lets the
query-result cache (:mod:`repro.tsdb.cache`) invalidate precisely.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import obs
from repro.core.rawfile import BlockParser
from repro.core.store import CentralStore
from repro.tsdb.chunks import (
    CHUNK_POINTS, Chunk, decode_concat, decode_many, seal_many,
)

TagKey = Tuple[Tuple[str, str], ...]

#: points per :func:`~repro.tsdb.chunks.seal_many` call in ``seal_heads``:
#: bounds the encoder's temporaries (a few MiB) whatever the store holds
_SEAL_SLAB_POINTS = 1 << 17

class RWLock:
    """A writer-priority readers/writer lock for the store.

    The portal serves many concurrent readers over one live store that
    a single stream feed keeps appending to.  Readers share the lock
    (queries against an unchanged store run fully in parallel) and are
    re-entrant per thread, so ``query()`` holding a read lock can call
    ``scan()`` which takes it again.  A writer waiting on the
    turnstile blocks *new* reader generations, so the feed cannot be
    starved by a steady stream of page loads.

    A thread that holds the write lock may re-enter both ``write`` and
    ``read`` (mutators that consult read paths stay deadlock-free).
    """

    def __init__(self) -> None:
        #: writers queue here; held for the whole write so new readers
        #: line up behind a waiting writer
        self._turnstile = threading.Lock()
        self._counter_lock = threading.Lock()
        self._readers = 0
        #: held whenever at least one reader is inside
        self._no_readers = threading.Lock()
        self._local = threading.local()
        self._write_owner: Optional[int] = None

    @contextmanager
    def read(self):
        me = threading.get_ident()
        if self._write_owner == me:  # write lock already held: no-op
            yield
            return
        depth = getattr(self._local, "depth", 0)
        if depth == 0:
            with self._turnstile:
                pass  # queue behind any waiting/active writer
            with self._counter_lock:
                self._readers += 1
                if self._readers == 1:
                    self._no_readers.acquire()
        self._local.depth = depth + 1
        try:
            yield
        finally:
            self._local.depth = depth
            if depth == 0:
                with self._counter_lock:
                    self._readers -= 1
                    if self._readers == 0:
                        self._no_readers.release()

    @contextmanager
    def write(self):
        me = threading.get_ident()
        if self._write_owner == me:  # re-entrant write
            yield
            return
        with self._turnstile:
            self._no_readers.acquire()
            self._write_owner = me
            try:
                yield
            finally:
                self._write_owner = None
                self._no_readers.release()


def _tagkey(tags: Mapping[str, str]) -> TagKey:
    return tuple(sorted((str(k), str(v)) for k, v in tags.items()))


def _sort_dedupe(
    t: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable sort by time, keep the *last-inserted* value per ts."""
    order = np.argsort(t, kind="stable")
    t, v = t[order], v[order]
    if len(t) > 1:
        keep = np.append(t[1:] != t[:-1], True)
        t, v = t[keep], v[keep]
    return t, v


def _count_seals(metric: str, chunks: int, nbytes: int) -> None:
    obs.counter(
        "repro_tsdb_chunk_seals_total",
        "series heads frozen into compressed columnar chunks",
    ).inc(chunks, metric=metric)
    obs.counter(
        "repro_tsdb_chunk_bytes_total",
        "compressed bytes at rest in sealed TSDB chunks",
    ).inc(nbytes, metric=metric)


@dataclass
class _Series:
    """One chunked series: sealed chunks + a mutable head."""

    metric: str
    tags: Dict[str, str]
    chunk_size: int = CHUNK_POINTS
    chunks: List[Chunk] = field(default_factory=list)
    #: decoded-chunk LRU shared across the store (None disables)
    buffer_cache: Optional[object] = None
    _head_t: List[int] = field(default_factory=list)
    _head_v: List[float] = field(default_factory=list)
    #: strictly-increasing fast path: every append so far was newer
    #: than everything before it (chunks disjoint + head in order)
    _ordered: bool = True
    _max_ts: Optional[int] = None
    _full: Optional[Tuple[np.ndarray, np.ndarray]] = None
    #: memoised head columns — a write-side artifact (the head *is*
    #: these arrays between appends), so unlike ``_full`` it survives
    #: :meth:`drop_read_cache`
    _head_cols: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- writing ------------------------------------------------------------
    def add(self, ts: int, value: float) -> None:
        ts = int(ts)
        if self._max_ts is not None and ts <= self._max_ts:
            self._ordered = False
        else:
            self._max_ts = ts
        self._head_t.append(ts)
        self._head_v.append(float(value))
        self._full = None
        self._head_cols = None
        if len(self._head_t) >= self.chunk_size:
            self._seal_head()

    def extend(self, times: np.ndarray, values: np.ndarray) -> int:
        """Bulk append two aligned columns; returns points appended."""
        t = np.asarray(times, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times/values must be aligned 1-d columns")
        if len(t) == 0:
            return 0
        if self._ordered:
            in_order = len(t) == 1 or bool((t[1:] > t[:-1]).all())
            if not in_order or (
                self._max_ts is not None and int(t[0]) <= self._max_ts
            ):
                self._ordered = False
        last = int(t.max())
        if self._max_ts is None or last > self._max_ts:
            self._max_ts = last
        self._head_t.extend(t.tolist())
        self._head_v.extend(v.tolist())
        self._full = None
        self._head_cols = None
        while len(self._head_t) >= self.chunk_size:
            self._seal_head()
        return len(t)

    def _seal_head(self) -> None:
        """Freeze the oldest ``chunk_size`` buffered points."""
        n = min(self.chunk_size, len(self._head_t))
        t = np.asarray(self._head_t[:n], dtype=np.int64)
        v = np.asarray(self._head_v[:n], dtype=np.float64)
        del self._head_t[:n], self._head_v[:n]
        self._head_cols = None
        # within one sealed slice, last-inserted wins for duplicate
        # timestamps; later slices/heads override at merge time because
        # chunks are concatenated in seal order before the stable sort
        t, v = _sort_dedupe(t, v)
        chunk = Chunk.seal(t, v)
        self.chunks.append(chunk)
        _count_seals(self.metric, 1, chunk.nbytes)

    def sealable_head(self) -> Tuple[np.ndarray, np.ndarray]:
        """The whole head as strictly increasing columns: as buffered
        for an in-order series, sorted + keep-last otherwise."""
        t, v = self._head_arrays()
        return (t, v) if self._ordered else _sort_dedupe(t, v)

    def replace_head(self, chunk: Chunk) -> None:
        """Swap the head for ``chunk``, its sealed form."""
        self.chunks.append(chunk)
        self._head_t, self._head_v = [], []
        self._head_cols = None

    # -- reading ------------------------------------------------------------
    def arrays(
        self, time_range: Optional[Tuple[int, int]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted, deduplicated columns, optionally only [lo, hi).

        With a ``time_range`` the sealed chunks are filtered on their
        metadata first, so out-of-window chunks are never decoded; a
        series whose full columns are already materialised answers a
        window by binary-search slicing instead.  Chunk decodes go
        through the store's decoded-buffer cache when one is attached,
        and the misses of one call are decoded in a single batch.
        """
        lo, hi = time_range if time_range is not None else (None, None)
        if self._full is not None:
            return self._slice_full(lo, hi, time_range is None)
        _, needed = self.pending_chunks(lo, hi)
        decoded = self.decode_into({}, needed)
        return self.assemble(decoded, lo, hi, cache_full=time_range is None)

    def _head_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The buffered head as columns, memoised between appends."""
        if self._head_cols is None:
            self._head_cols = (
                np.asarray(self._head_t, dtype=np.int64),
                np.asarray(self._head_v, dtype=np.float64),
            )
        return self._head_cols

    def _slice_full(
        self, lo: Optional[int], hi: Optional[int], full: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        t, v = self._full
        if full:
            return t, v
        i, j = np.searchsorted(t, lo), np.searchsorted(t, hi)
        return t[i:j], v[i:j]

    def pending_chunks(
        self, lo: Optional[int], hi: Optional[int]
    ) -> Tuple[List[Chunk], List[Chunk]]:
        """``(overlapping, pending)`` sealed chunks for a window.

        ``overlapping`` survived the metadata pushdown; ``pending`` is
        the subset whose decode is not in the buffer cache yet.
        Store-level :meth:`TimeSeriesDB.scan` collects the pending
        sets across every selected series and decodes them in one
        :func:`~repro.tsdb.chunks.decode_concat` batch — and when
        *every* overlapping chunk is pending (a truly cold series) it
        skips the per-chunk merge entirely, because consecutive chunks
        of one series decode into one contiguous span.
        """
        if self._full is not None:
            return [], []
        if lo is None and hi is None:
            overlapping = self.chunks
        else:
            overlapping = [c for c in self.chunks if c.overlaps(lo, hi)]
        if self.buffer_cache is None or not self.buffer_cache._entries:
            return overlapping, overlapping
        resident = self.buffer_cache._entries
        pending = [c for c in overlapping if c.chunk_id not in resident]
        return overlapping, pending

    def decode_into(
        self,
        decoded: Dict[int, Tuple[np.ndarray, np.ndarray]],
        needed: List[Chunk],
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Batch-decode ``needed`` into the ``decoded`` map."""
        if needed:
            if self.buffer_cache is not None:
                self.buffer_cache.note_misses(len(needed))
            for chunk, cols in zip(needed, decode_many(needed)):
                decoded[chunk.chunk_id] = cols
        return decoded

    def assemble(
        self,
        decoded: Dict[int, Tuple[np.ndarray, np.ndarray]],
        lo: Optional[int],
        hi: Optional[int],
        cache_full: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge decoded chunks + head into the final sorted columns.

        ``decoded`` maps chunk ids to freshly decoded columns; chunks
        not in it are taken from the buffer cache (populating the
        cache with the fresh decodes on the way through).
        """
        cache = self.buffer_cache
        parts: List[Tuple[np.ndarray, np.ndarray]] = []
        for chunk in self.chunks:
            if not chunk.overlaps(lo, hi):
                continue
            cols = decoded.get(chunk.chunk_id)
            if cols is None and cache is not None:
                cols = cache.get(chunk.chunk_id)
            if cols is None:  # decoded without a cache attached
                cols = decode_many([chunk])[0]
            elif cache is not None and chunk.chunk_id not in cache._entries:
                cache.put(chunk.chunk_id, *cols)
            t, v = cols
            if lo is not None and hi is not None and (
                t[0] < lo or t[-1] >= hi
            ):
                m = (t >= lo) & (t < hi)
                t, v = t[m], v[m]
            parts.append((t, v))
        if self._head_t:
            t, v = self._head_arrays()
            if lo is not None:
                m = (t >= lo) & (t < hi)
                t, v = t[m], v[m]
            parts.append((t, v))

        if not parts:
            empty = (np.empty(0, dtype=np.int64), np.empty(0))
            if cache_full:
                self._full = empty
            return empty
        t = np.concatenate([p[0] for p in parts])
        v = np.concatenate([p[1] for p in parts])
        if not self._ordered:
            # rare path: out-of-order or duplicate writes happened;
            # concatenation order is insertion order, so the stable
            # sort + keep-last reproduces the flat-list semantics
            t, v = _sort_dedupe(t, v)
        if cache_full:
            self._full = (t, v)
        return t, v

    def drop_read_cache(self) -> None:
        """Forget materialised columns (cold-read benchmarking)."""
        self._full = None

    def prune(self, before: int) -> int:
        """Drop points older than ``before``; returns points dropped.

        Whole expired chunks are discarded on their ``t_max`` alone;
        only a chunk straddling the horizon is decoded and re-sealed.
        """
        t_min = self._t_min()
        if t_min is None or t_min >= before:
            return 0
        dropped = 0
        kept_chunks: List[Chunk] = []
        dead_ids: List[int] = []
        for chunk in self.chunks:
            if chunk.t_max < before:
                dropped += chunk.count
                dead_ids.append(chunk.chunk_id)
            elif chunk.t_min >= before:
                kept_chunks.append(chunk)
            else:
                t, v = chunk.decode()
                m = t >= before
                dropped += int((~m).sum())
                kept_chunks.append(Chunk.seal(t[m], v[m]))
                dead_ids.append(chunk.chunk_id)
        self.chunks = kept_chunks
        if dead_ids and self.buffer_cache is not None:
            # ids are never reused, so this is pure garbage collection
            self.buffer_cache.invalidate(dead_ids)
        if self._head_t:
            kept = [
                (t, v)
                for t, v in zip(self._head_t, self._head_v)
                if t >= before
            ]
            dropped += len(self._head_t) - len(kept)
            self._head_t = [t for t, _ in kept]
            self._head_v = [v for _, v in kept]
            self._head_cols = None
        if dropped:
            self._full = None
        return dropped

    def _t_min(self) -> Optional[int]:
        lows = [c.t_min for c in self.chunks]
        if self._head_t:
            lows.append(min(self._head_t))
        return min(lows) if lows else None

    @property
    def nbytes(self) -> int:
        """At-rest size: compressed chunks + raw head columns."""
        return sum(c.nbytes for c in self.chunks) + 16 * len(self._head_t)

    def __len__(self) -> int:
        return sum(c.count for c in self.chunks) + len(self._head_t)


class SeriesGroup:
    """K series of one metric that are written together, a row at a time.

    A handle from :meth:`TimeSeriesDB.group`: it carries the K tag sets
    and their precomputed series keys, and caches the store's series
    objects between writes.  The cache is tagged with the store's
    series *generation*, which moves whenever :meth:`TimeSeriesDB.prune`
    deletes an emptied series, so a handle that outlives its series
    re-registers them on its next write instead of appending to a
    detached object.  Column ``j`` of a written block belongs to
    ``tag_sets[j]``.
    """

    __slots__ = ("tsdb", "metric", "tag_sets", "keys", "_members",
                 "_generation")

    def __init__(
        self,
        tsdb: "TimeSeriesDB",
        metric: str,
        tag_sets: Sequence[Mapping[str, str]],
    ) -> None:
        self.tsdb = tsdb
        self.metric = metric
        self.tag_sets: Tuple[Dict[str, str], ...] = tuple(
            dict(tags) for tags in tag_sets
        )
        self.keys: Tuple[Tuple[str, TagKey], ...] = tuple(
            (metric, _tagkey(tags)) for tags in self.tag_sets
        )
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("a series group cannot list a series twice")
        self._members: List[_Series] = []
        self._generation = -1  # never resolved

    def __len__(self) -> int:
        return len(self.keys)


class TimeSeriesDB:
    """An in-memory tag-indexed TSDB over chunked columnar series."""

    #: series implementation; the list-backed reference store
    #: (:mod:`repro.tsdb.baseline`) swaps this out
    series_cls = _Series

    def __init__(
        self,
        chunk_size: int = CHUNK_POINTS,
        cache: Optional[object] = ...,
        buffer_cache: Optional[object] = ...,
    ) -> None:
        from repro.tsdb.cache import BufferCache, QueryCache

        self._series: Dict[Tuple[str, TagKey], _Series] = {}
        #: tag name → tag value → set of series keys (inverted index)
        self._index: Dict[str, Dict[str, set]] = defaultdict(
            lambda: defaultdict(set)
        )
        #: metric → set of series keys, so per-metric operations never
        #: scan the whole store
        self._by_metric: Dict[str, set] = defaultdict(set)
        self.chunk_size = int(chunk_size)
        #: bumped on every mutation; the query cache keys on it
        self.epoch = 0
        #: bumped whenever a series is deleted; a :class:`SeriesGroup`
        #: resolved under an older generation looks its series up again
        self._generation = 0
        #: LRU query-result cache consulted by :func:`repro.tsdb.query`
        #: (pass ``cache=None`` to disable)
        self.cache = QueryCache() if cache is ... else cache
        #: LRU of decoded chunk columns shared by every series
        #: (pass ``buffer_cache=None`` to disable)
        self.buffer_cache = (
            BufferCache() if buffer_cache is ... else buffer_cache
        )
        #: windowed-stats calls answered through the chunk path, and
        #: chunk decodes skipped outright thanks to pre-aggregates
        self.preagg_windows = 0
        self.preagg_chunks_skipped = 0
        #: readers share, writers exclude: the portal's thread pool
        #: reads while the stream feed appends (see :class:`RWLock`)
        self._rw = RWLock()
        #: guards the preagg_* read-path counters (readers run in
        #: parallel under the shared read lock)
        self._stats_lock = threading.Lock()

    # -- concurrency ---------------------------------------------------------
    def read_locked(self):
        """Shared-reader lock context; queries hold it while they scan."""
        return self._rw.read()

    def write_locked(self):
        """Exclusive-writer lock context; every mutation holds it."""
        return self._rw.write()

    # -- writing ------------------------------------------------------------
    def _get_series(self, metric: str, tags: Mapping[str, str]) -> _Series:
        key = (metric, _tagkey(tags))
        s = self._series.get(key)
        if s is None:
            s = self._new_series(key, tags)
        return s

    def _new_series(
        self, key: Tuple[str, TagKey], tags: Mapping[str, str]
    ) -> _Series:
        """Create and index the series ``key`` (write lock held)."""
        s = self._series[key] = self.series_cls(
            metric=key[0], tags=dict(tags), chunk_size=self.chunk_size
        )
        if isinstance(s, _Series):
            s.buffer_cache = self.buffer_cache
        self._by_metric[key[0]].add(key)
        for k, v in s.tags.items():
            self._index[k][str(v)].add(key)
        return s

    def group(
        self, metric: str, tag_sets: Sequence[Mapping[str, str]]
    ) -> SeriesGroup:
        """A write handle on K series of ``metric`` (see
        :class:`SeriesGroup`).  Nothing is created until the first
        :meth:`put_many` through it."""
        return SeriesGroup(self, metric, tag_sets)

    def put(
        self, metric: str, tags: Mapping[str, str], ts: int, value: float
    ) -> None:
        """Insert one data point."""
        with self.write_locked():
            self._get_series(metric, tags).add(ts, value)
            self.epoch += 1

    def put_many(
        self,
        metric: str,
        tags: Union[Mapping[str, str], SeriesGroup],
        times: Sequence[int],
        values: Sequence[float],
    ) -> int:
        """Batched insert: a column into one series, or rows into a group.

        With a tag mapping, ``times`` and ``values`` are aligned
        ``(n,)`` columns of that one series.  With a
        :class:`SeriesGroup` from :meth:`group`, ``values`` is an
        ``(n, K)`` block — row ``i`` holds the K series' values at
        ``times[i]`` — and the result is exactly what K one-series
        calls with ``values[:, j]`` would leave.  Either way: one
        write-lock acquisition and one epoch bump for the whole batch;
        a shape or metric mismatch raises ``ValueError`` before
        anything is written.  Returns points inserted.
        """
        if isinstance(tags, SeriesGroup):
            return self._put_rows(metric, tags, times, values)
        if len(times) == 0:
            return 0
        with self.write_locked():
            n = self._get_series(metric, tags).extend(
                np.asarray(times), np.asarray(values)
            )
            if n:
                self.epoch += 1
        return n

    def _put_rows(
        self, metric: str, group: SeriesGroup, times, values
    ) -> int:
        t = np.asarray(times, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if group.tsdb is not self:
            raise ValueError("series group belongs to another store")
        if group.metric != metric:
            raise ValueError(
                f"series group of {group.metric!r} written as {metric!r}"
            )
        if t.ndim != 1 or v.shape != (len(t), len(group)):
            raise ValueError(
                f"group rows must be ({len(t)}, {len(group)}) values for "
                f"({len(t)},) times, got {v.shape} for {t.shape}"
            )
        if v.size == 0:
            return 0
        with self.write_locked():
            if group._generation != self._generation:
                group._members = [
                    self._series[key] if key in self._series
                    else self._new_series(key, tags)
                    for key, tags in zip(group.keys, group.tag_sets)
                ]
                group._generation = self._generation
            if len(t) == 1:
                ts = int(t[0])
                for s, x in zip(group._members, v[0].tolist()):
                    s.add(ts, x)
            else:
                # (series × rows): each series' column is contiguous
                for s, column in zip(
                    group._members, np.ascontiguousarray(v.T)
                ):
                    s.extend(t, column)
            self.epoch += 1
        return v.size

    def prune(self, before: int, metric: Optional[str] = None) -> int:
        """Drop points older than ``before`` (optionally one metric).

        Series left empty are removed entirely, including their
        inverted-index entries, so long-running live feeds keep both
        point and series counts bounded.  Expired sealed chunks are
        discarded on metadata comparison alone.  Returns points
        dropped.
        """
        with self.write_locked():
            return self._prune_locked(before, metric)

    def _prune_locked(self, before: int, metric: Optional[str]) -> int:
        if metric is None:
            keys = list(self._series)
        else:
            keys = list(self._by_metric.get(metric, ()))
        dropped = 0
        for key in keys:
            s = self._series[key]
            dropped += s.prune(before)
            if not len(s):
                del self._series[key]
                self._generation += 1
                self._by_metric[key[0]].discard(key)
                if not self._by_metric[key[0]]:
                    del self._by_metric[key[0]]
                for k, v in s.tags.items():
                    by_value = self._index.get(k)
                    if by_value is None:
                        continue
                    members = by_value.get(str(v))
                    if members is not None:
                        members.discard(key)
                        if not members:
                            del by_value[str(v)]
                    if not by_value:
                        del self._index[k]
        if dropped:
            self.epoch += 1
        return dropped

    def seal_heads(self) -> None:
        """Seal every series head: the last step of a batch load.

        After a nightly ingest the day's points sit in heads shorter
        than ``chunk_size``; this puts them at rest compressed and
        pre-aggregated.  Heads are encoded a slab at a time through
        :func:`~repro.tsdb.chunks.seal_many` — bit for bit the chunks
        a per-series seal would produce — and the seal counters move
        once per metric.
        """
        with self.write_locked():
            heads = [
                s for s in self._series.values()
                if isinstance(s, _Series) and s._head_t
            ]
            per_slab = max(1, _SEAL_SLAB_POINTS // self.chunk_size)
            sealed: Dict[str, List[int]] = {}
            for i in range(0, len(heads), per_slab):
                slab = heads[i:i + per_slab]
                chunks = seal_many([s.sealable_head() for s in slab])
                for s, chunk in zip(slab, chunks):
                    s.replace_head(chunk)
                    totals = sealed.setdefault(s.metric, [0, 0])
                    totals[0] += 1
                    totals[1] += chunk.nbytes
            for metric, (n_chunks, nbytes) in sealed.items():
                _count_seals(metric, n_chunks, nbytes)

    # -- reading ------------------------------------------------------------
    def scan(
        self,
        series_list: Sequence[object],
        time_range: Optional[Tuple[int, int]] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Materialise many series at once; returns aligned ``(t, v)``.

        The fleet-wide read path: every sealed chunk that survives
        pushdown and misses the decoded-buffer cache — across *all*
        requested series — is decompressed in one batched
        :func:`~repro.tsdb.chunks.decode_concat` call, then each
        series assembles its columns from the decode map, in the
        caller's series order.
        """
        with self.read_locked():
            return self._scan_locked(series_list, time_range)

    def _scan_locked(
        self,
        series_list: Sequence[object],
        time_range: Optional[Tuple[int, int]],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        lo, hi = time_range if time_range is not None else (None, None)

        needed: List[Chunk] = []
        plans: List[Optional[Tuple[List[Chunk], List[Chunk], int]]] = []
        for s in series_list:
            if not isinstance(s, _Series):
                plans.append(None)  # foreign series answer on their own
                continue
            overlapping, pending = s.pending_chunks(lo, hi)
            plans.append((overlapping, pending, len(needed)))
            needed.extend(pending)

        if self.buffer_cache is not None:
            self.buffer_cache.note_misses(len(needed))
        decoded: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        spans: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        if needed:
            spans = decode_concat(needed)

        def _chunk_cols(start: int, k: int) -> None:
            """Lazily slice per-chunk columns out of the batch decode.

            Only series that fall back to the per-chunk merge (warm
            cache, out-of-order writes) pay for this; a cold full
            scan hands each series its contiguous span directly and
            its repeat reads are served by ``_full``, so populating
            the chunk cache for it would be pure overhead.
            """
            gt, gv, bounds = spans
            fresh = []
            for i in range(start, start + k):
                cols = (
                    gt[bounds[i]:bounds[i + 1]],
                    gv[bounds[i]:bounds[i + 1]],
                )
                decoded[needed[i].chunk_id] = cols
                fresh.append((needed[i].chunk_id, cols))
            if self.buffer_cache is not None:
                self.buffer_cache.put_many(fresh)

        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for s, plan in zip(series_list, plans):
            if plan is None:
                out.append(s.arrays(time_range))
                continue
            overlapping, pending, start = plan
            if s._full is not None:
                out.append(s._slice_full(lo, hi, time_range is None))
            elif (
                spans is not None
                and s._ordered
                and len(pending) == len(overlapping)
            ):
                # truly cold in-order series: its chunks decoded into
                # one contiguous span of the batch — slice, window,
                # append the head; no per-chunk merge at all
                gt, gv, bounds = spans
                a, b = bounds[start], bounds[start + len(pending)]
                t, v = gt[a:b], gv[a:b]
                if lo is not None and len(t) and (t[0] < lo or t[-1] >= hi):
                    # the span is sorted, so the window is a slice
                    i, j = np.searchsorted(t, (lo, hi))
                    t, v = t[i:j], v[i:j]
                if s._head_t:
                    ht, hv = s._head_arrays()
                    if lo is not None:
                        i, j = np.searchsorted(ht, (lo, hi))
                        ht, hv = ht[i:j], hv[i:j]
                    t = np.concatenate([t, ht])
                    v = np.concatenate([v, hv])
                if time_range is None:
                    s._full = (t, v)
                out.append((t, v))
                if time_range is not None and pending:
                    # windowed scans keep the chunk decodes around —
                    # the next window will want (some of) them again
                    _chunk_cols(start, len(pending))
            else:
                if spans is not None and pending:
                    _chunk_cols(start, len(pending))
                out.append(
                    s.assemble(
                        decoded, lo, hi, cache_full=time_range is None
                    )
                )
        return out

    def drop_read_caches(self) -> None:
        """Forget every cached read artifact (cold-read benchmarking).

        Clears materialised per-series columns, the decoded-buffer
        cache and the query-result cache; the next query pays the full
        decode + compute cost, as a freshly restarted process would.
        """
        with self.write_locked():
            for s in self._series.values():
                s.drop_read_cache()
            if self.buffer_cache is not None:
                self.buffer_cache.clear()
            if self.cache is not None:
                self.cache.clear()

    def read_stats(self) -> Dict[str, object]:
        """Read-path accelerator counters for the portal ``/fleet`` page.

        Schema (pinned by ``tests/test_tsdb/test_cache.py``): the
        result cache and buffer cache report independently —
        result-cache hits skip the whole computation, buffer-cache
        hits only skip chunk decodes, and pre-aggregate skips avoid
        decodes without any cache involved.  ``None`` marks a disabled
        cache.
        """
        def _cache_stats(c) -> Optional[Dict[str, object]]:
            if c is None:
                return None
            return {
                "hits": c.hits,
                "misses": c.misses,
                "hit_ratio": c.hit_ratio,
                "entries": len(c),
            }

        return {
            "epoch": self.epoch,
            "result_cache": _cache_stats(self.cache),
            "buffer_cache": _cache_stats(self.buffer_cache),
            "preagg": {
                "windows": self.preagg_windows,
                "chunks_skipped": self.preagg_chunks_skipped,
            },
        }

    # -- introspection -----------------------------------------------------
    def metrics(self) -> List[str]:
        return sorted(self._by_metric)

    def tag_values(self, tag: str) -> List[str]:
        return sorted(self._index.get(tag, {}))

    def n_series(self) -> int:
        return len(self._series)

    def n_points(self) -> int:
        return sum(len(s) for s in self._series.values())

    def n_chunks(self) -> int:
        return sum(len(s.chunks) for s in self._series.values())

    def storage_bytes(self) -> int:
        """At-rest bytes across all series (chunks + raw heads)."""
        return sum(s.nbytes for s in self._series.values())

    # -- selection -----------------------------------------------------------
    def select(
        self,
        metric: str,
        tags: Optional[Mapping[str, object]] = None,
    ) -> List[_Series]:
        """All series of ``metric`` matching the tag filters.

        A filter value may be a single value or a list of alternatives.
        Resolution starts from the per-metric index, so cost scales
        with the metric's own series count, not the store's.
        """
        keys = set(self._by_metric.get(metric, ()))
        for tag, want in (tags or {}).items():
            if not keys:
                break
            alts = want if isinstance(want, (list, tuple, set)) else [want]
            hit = set()
            for v in alts:
                hit |= self._index.get(tag, {}).get(str(v), set())
            keys &= hit
        return [self._series[k] for k in sorted(keys)]


def ingest_file(
    tsdb: TimeSeriesDB,
    host: str,
    fh,
    types: Optional[Iterable[str]] = None,
    metric: str = "stats",
) -> Tuple[int, int]:
    """Load one host's raw stats stream into the TSDB.

    The per-host half of :func:`ingest_store`, split out so shard
    workers (:mod:`repro.shard`) can ingest exactly the same way from
    any source — text, or a file-like object read in one go.  The
    stream is parsed once into a columnar
    :class:`~repro.core.rawfile.HostBlock` and every ``(type, device,
    event)`` series is written with one :meth:`TimeSeriesDB.put_many`
    straight from the block's columns.  A corrupt line raises
    ``ValueError("<host>: line <n>: <reason>")`` before anything is
    written.  Returns ``(points, samples)``.
    """
    wanted = set(types) if types is not None else None
    text = fh if isinstance(fh, str) else fh.read()
    try:
        block = BlockParser(on_error="raise").parse_text(text)
    except ValueError as exc:
        raise ValueError(f"{host}: {exc}") from exc
    n = 0
    for type_name in block.type_order:
        schema = block.schemas.get(type_name)
        if schema is None or (wanted is not None and type_name not in wanted):
            continue
        names = schema.names()
        for device, grp in block.groups[type_name].items():
            rows, values = grp.rows, grp.values
            if len(rows) > 1:
                # a device listed twice in one record: the last line wins
                last = np.append(rows[1:] != rows[:-1], True)
                if not last.all():
                    rows, values = rows[last], values[last]
            times = block.times[rows]
            # (counters × records): each event's column is contiguous
            for event, column in zip(names, np.ascontiguousarray(values.T)):
                n += tsdb.put_many(
                    metric,
                    {
                        "host": host,
                        "type": type_name,
                        "device": device,
                        "event": event,
                    },
                    times,
                    column,
                )
    return n, block.n_records


def ingest_store(
    tsdb: TimeSeriesDB,
    store: CentralStore,
    types: Optional[Iterable[str]] = None,
    metric: str = "stats",
) -> int:
    """Load a raw-data store into the TSDB under the paper's tag scheme.

    Every counter value becomes a point in series tagged
    ``(host, type, device, event)``; each host's file goes through
    :func:`ingest_file`.  Returns points ingested.  ``types``
    optionally restricts to certain device types (metadata analyses
    only need ``mdc``; loading everything is supported but larger).
    """
    n = 0
    store.flush()
    for host in store.hosts():
        with open(store.path_for(host)) as fh:
            n += ingest_file(tsdb, host, fh, types=types, metric=metric)[0]
    return n
