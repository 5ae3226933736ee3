"""Read-path caches: query results and decoded chunk buffers.

Two caches with different invalidation rules front the TSDB:

* :class:`QueryCache` — LRU of *query results*, invalidated by write
  epoch.  The portal's ``/fleet`` and plot pages re-issue the same
  handful of aggregation queries on every page load; under the
  paper's million-user north star those queries dominate read
  traffic.  Every :class:`~repro.tsdb.store.TimeSeriesDB` mutation
  bumps the store's ``epoch``, and each cache entry remembers the
  epoch it was computed at — a lookup only hits when the store has
  not changed since, so a hit is always byte-identical to
  recomputing.  Stale entries are evicted on contact; capacity is
  bounded LRU.
* :class:`BufferCache` — LRU of *decoded chunk columns*, keyed by the
  chunk's process-unique ``chunk_id``.  Sealed chunks are immutable,
  so an entry can never go stale — no epoch check is needed, which is
  exactly why this cache keeps paying off on a live store whose
  result cache is invalidated by every write.  The only bookkeeping
  is garbage collection: when :meth:`~repro.tsdb.store._Series.prune`
  drops or re-seals chunks it calls :meth:`BufferCache.invalidate`
  with the dead ids (chunk ids are never reused, so a missed
  invalidation wastes memory but can never alias).

Hits and misses are exported on the shared obs registry as
``repro_tsdb_cache_{hits,misses}_total`` (results) and
``repro_tsdb_buffer_cache_{hits,misses}_total`` (decoded buffers).

Both caches are shared mutable state on the portal's concurrent read
path (``repro.portal.server`` dispatches requests on a thread pool),
so every entry mutation — the LRU ``move_to_end``/``popitem`` pair
most of all — happens under a per-cache :class:`threading.RLock`.
The store's scan takes every chunk it will read in one
:meth:`BufferCache.get_many` — one lock hold, the columns in hand from
then on.  The ``window_stats`` planner still peeks at ``_entries``
lock-free: a stale answer only costs a redundant decode (its reader
falls back to decoding when an entry vanished), never a wrong result,
because chunk ids are process-unique.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import handles

__all__ = ["QueryCache", "BufferCache"]

_RESULT_HITS = handles.counter(
    "repro_tsdb_cache_hits_total",
    "TSDB query results served from the result cache",
)
_RESULT_MISSES = handles.counter(
    "repro_tsdb_cache_misses_total", "TSDB queries that had to be computed"
)
_BUFFER_HITS = handles.counter(
    "repro_tsdb_buffer_cache_hits_total",
    "chunk decodes avoided by the decoded-buffer cache",
)
_BUFFER_MISSES = handles.counter(
    "repro_tsdb_buffer_cache_misses_total", "chunk decodes that had to run"
)


class QueryCache:
    """Bounded LRU of query results keyed on (query shape, epoch).

    Thread-safe: ``get``/``put``/``clear`` and the hit/miss counters
    are serialised on an internal lock, so concurrent portal readers
    can never corrupt the LRU order or tear an eviction.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, epoch: int) -> Optional[Any]:
        """The cached result, or None on miss / stale entry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == epoch:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
                result = entry[1]
            else:
                if entry is not None:  # written since: drop stale result
                    del self._entries[key]
                self.misses += 1
                hit = False
                result = None
        (self._hits if hit else self._misses).inc()
        return result

    # the two exported counters are all a subclass changes
    # (:class:`repro.portal.server.PageCache` counts pages, not queries)
    _hits = _RESULT_HITS
    _misses = _RESULT_MISSES

    def put(self, key: Hashable, epoch: int, result: Any) -> None:
        with self._lock:
            self._entries[key] = (epoch, result)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferCache:
    """Bounded LRU of decoded ``(times, values)`` chunk columns.

    Entries are keyed by ``chunk_id`` and treated as immutable by
    every consumer (the query kernels never write into decoded
    buffers — they slice and copy).  ``maxsize`` bounds resident
    entries; at the default chunk size that is ~8 KiB per entry.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get(self, chunk_id: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The decoded columns, or None when the chunk must be decoded."""
        return self.get_many((chunk_id,))[0]

    def get_many(
        self, chunk_ids: Sequence[int]
    ) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
        """The decoded columns per id, ``None`` where the chunk must be
        decoded: one lock hold for the whole list, recency touched in
        list order, every id counted as one hit or one miss."""
        with self._lock:
            entries = self._entries
            found = []
            for cid in chunk_ids:
                entry = entries.get(cid)
                if entry is not None:
                    entries.move_to_end(cid)
                found.append(entry)
            hits = len(found) - found.count(None)
            self.hits += hits
        if hits:
            _BUFFER_HITS.inc(hits)
        self.note_misses(len(found) - hits)
        return found

    def put(self, chunk_id: int, t: np.ndarray, v: np.ndarray) -> None:
        with self._lock:
            self._entries[chunk_id] = (t, v)
            self._entries.move_to_end(chunk_id)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def put_many(
        self, items: Iterable[Tuple[int, Tuple[np.ndarray, np.ndarray]]]
    ) -> None:
        """Insert freshly decoded chunks in bulk (ids must be new).

        The batched scan only decodes chunks that are *not* resident,
        so plain insertion already lands every entry at the MRU end;
        eviction runs once for the whole batch.
        """
        with self._lock:
            entries = self._entries
            for chunk_id, cols in items:
                entries[chunk_id] = cols
            while len(entries) > self.maxsize:
                entries.popitem(last=False)

    def note_misses(self, n: int) -> None:
        """Account for ``n`` decodes planned against this cache.

        The ``window_stats`` planner peeks at membership first, gathers
        every absent chunk across all series, and decodes them in one
        call — so the misses are counted here, once per planned decode,
        instead of through :meth:`get`.
        """
        if n:
            with self._lock:
                self.misses += n
            _BUFFER_MISSES.inc(n)

    def invalidate(self, chunk_ids: Iterable[int]) -> None:
        """Drop entries for chunks that no longer exist (prune/reseal)."""
        with self._lock:
            for cid in chunk_ids:
                self._entries.pop(cid, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
