"""Read-path caches: query results and decoded chunk buffers.

Both caches are one bounded, locked LRU (:class:`LRUCache`) and differ
only in what they file and which counters they export.  Every
:class:`~repro.tsdb.store.TimeSeriesDB` carries one of each; its
``cache=`` and ``buffer_cache=`` arguments only inject another object
(say, a smaller one):

* :class:`QueryCache` — LRU of *query results*.  The portal's
  ``/fleet`` and plot pages re-issue the same handful of aggregation
  queries on every page load; under the paper's million-user north
  star those queries dominate read traffic.  Every
  :class:`~repro.tsdb.store.TimeSeriesDB` mutation bumps the store's
  ``epoch`` and files what it touched in a :class:`ChangeLog`; an entry
  filed at one epoch holds while no mutation since touched its metric
  inside its time range, so a hit is always byte-identical to
  recomputing, however many writes landed elsewhere.  Stale entries are
  evicted on contact.
* :class:`BufferCache` — LRU of *decoded chunk columns*, keyed by the
  chunk's process-unique ``chunk_id``.  Sealed chunks are immutable,
  so an entry can never go stale — no epoch check is needed, which is
  why this cache keeps paying off while writes land inside the windows
  being read.  The only bookkeeping
  is garbage collection: when :meth:`~repro.tsdb.store._Series.prune`
  drops or re-seals chunks it calls :meth:`LRUCache.invalidate`
  with the dead ids (chunk ids are never reused, so a missed
  invalidation wastes memory but can never alias).

Hits and misses are exported on the shared obs registry as
``repro_tsdb_cache_{hits,misses}_total`` (results) and
``repro_tsdb_buffer_cache_{hits,misses}_total`` (decoded buffers).

Both caches are shared mutable state on the portal's concurrent read
path (``repro.portal.server`` dispatches requests on a thread pool),
so every entry mutation — the LRU ``move_to_end``/``popitem`` pair
most of all — happens under a per-cache :class:`threading.RLock`.
The store's one read step takes every chunk it will read in one
:meth:`LRUCache.get_many` — one lock hold, the columns in hand from
then on, so a later eviction cannot matter.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Any, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.obs import handles

__all__ = ["ChangeLog", "LRUCache", "QueryCache", "BufferCache"]

CHANGE_LOG_LEN = 64  #: mutations a :class:`ChangeLog` keeps


class LRUCache:
    """A bounded LRU of non-``None`` values, safe across threads.

    Every method holds the cache's lock for its whole batch, and every
    key looked up counts as exactly one hit or one miss (hits + misses
    == lookups).  A subclass names the two exported counters.
    """

    _hits = _misses = None  # the exported counters: set by a subclass

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def get_many(self, keys: Sequence[Hashable]) -> List[Optional[Any]]:
        """The value per key, ``None`` on a miss: recency touched in
        list order."""
        with self._lock:
            entries = self._entries
            found = []
            for key in keys:
                entry = entries.get(key)
                if entry is not None:
                    entries.move_to_end(key)
                found.append(entry)
            hits = len(found) - found.count(None)
            misses = len(found) - hits
            self.hits += hits
            self.misses += misses
        if hits:
            self._hits.inc(hits)
        if misses:
            self._misses.inc(misses)
        return found

    def put_many(self, items: Iterable[Tuple[Hashable, Any]]) -> None:
        """File ``(key, value)`` pairs as most recently used, in order;
        eviction runs once for the whole batch."""
        with self._lock:
            entries = self._entries
            for key, value in items:
                entries[key] = value
                entries.move_to_end(key)
            while len(entries) > self.maxsize:
                entries.popitem(last=False)

    def invalidate(self, keys: Iterable[Hashable]) -> None:
        """Drop the entries of ``keys`` (absent ones are ignored)."""
        with self._lock:
            for key in keys:
                self._entries.pop(key, None)

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


class QueryCache(LRUCache):
    """Query results keyed on their shape, filed under a store epoch.

    (:class:`repro.portal.server.PageCache` files pages the same way
    and exports its own counters.)
    """

    _hits = handles.counter(
        "repro_tsdb_cache_hits_total",
        "TSDB query results served from the result cache",
    )
    _misses = handles.counter(
        "repro_tsdb_cache_misses_total", "TSDB queries that had to be computed"
    )

    def __init__(self, maxsize: int = 256) -> None:
        super().__init__(maxsize)

    def get(self, key: Hashable, epoch: int, unchanged=None) -> Optional[Any]:
        """The cached result, or None on a miss; an entry filed under
        another epoch ``e`` is re-filed under ``epoch`` if
        ``unchanged(e)``, else dropped."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] != epoch:
                if unchanged is not None and unchanged(entry[0]):
                    self._entries[key] = (epoch, entry[1])
                else:
                    del self._entries[key]  # written since: drop it
            (entry,) = self.get_many((key,))
        return None if entry is None else entry[1]

    def put(self, key: Hashable, epoch: int, result: Any) -> None:
        self.put_many(((key, (epoch, result)),))


class ChangeLog(deque):
    """A store's newest mutations, appended as ``(epoch, metric, span)``
    under its write lock: ``span`` is the ``(oldest, newest)`` timestamps
    written, ``None`` the whole metric (``metric=None``: every metric)."""

    def __init__(self) -> None:
        super().__init__(maxlen=CHANGE_LOG_LEN)

    def unchanged_since(self, metric, filed: int, time_range, now) -> bool:
        """No mutation after epoch ``filed`` touched ``metric`` inside
        ``time_range`` (``None``: all time); ``now`` is the last filed."""
        log = tuple(self)  # a copy, so a reader needs no lock
        if (log[-1][0] if log else 0) != now or (
                len(log) == CHANGE_LOG_LEN and filed < log[0][0]):
            return False  # a mutation not filed, or pushed out since
        for epoch, m, span in reversed(log):
            if epoch <= filed:
                break
            if m in (metric, None) and (span is None or time_range is None or (
                    span[0] <= time_range[1] and span[1] >= time_range[0])):
                return False
        return True


class BufferCache(LRUCache):
    """Decoded ``(times, values)`` chunk columns keyed by ``chunk_id``.

    Entries are treated as immutable by every consumer (the query
    kernels never write into decoded buffers — they slice and copy).
    ``maxsize`` bounds resident entries; at the default chunk size that
    is ~8 KiB per entry.
    """

    _hits = handles.counter(
        "repro_tsdb_buffer_cache_hits_total",
        "chunk decodes avoided by the decoded-buffer cache",
    )
    _misses = handles.counter(
        "repro_tsdb_buffer_cache_misses_total", "chunk decodes that had to run"
    )

    def __init__(self, maxsize: int = 4096) -> None:
        super().__init__(maxsize)
