"""Time-series storage and ingest.

Series are keyed by (metric, sorted tag items).  Each series is a
chunked columnar store: writes land in a *head block* — one shared
time vector and one values matrix for the K series that are written
together (:class:`_HeadBlock`; a series written on its own is K = 1) —
and once a column holds ``chunk_size`` open points they are sealed
into an immutable compressed :class:`~repro.tsdb.chunks.Chunk`
(delta-of-delta varint timestamps, XOR-packed float values) carrying
``(t_min, t_max, count)`` metadata.  Reads materialise sorted NumPy
arrays with last-write-wins duplicate handling — semantically
identical to the original growable-list store (frozen as the test
oracle ``tests/test_tsdb/reference.py::ListBackedTSDB``) — but

* time-range reads skip whole chunks on metadata before any decode,
* :meth:`TimeSeriesDB.select` intersects the metric's key set and the
  tag index's posting sets smallest first, so a host-pinned read costs
  the host's series, not the metric's or the store's,
* :meth:`TimeSeriesDB.prune` skips a metric outright when its
  low-water mark says nothing is that old; otherwise it drops expired
  sealed chunks by comparing ``t_max`` against the horizon, decoding
  only the one chunk that straddles it, and cuts open points a head
  block at a time, and
* :meth:`TimeSeriesDB.put_many` appends whole columns in one call —
  one series' ``(n,)`` column, or an ``(n, K)`` block of rows across a
  :class:`SeriesGroup` (the live feed writes one row per host sample,
  :func:`ingest_file` one block per host file): one array store into
  the group's head block, no per-series call, and
* the store keeps a registry of its live head blocks, so
  :meth:`TimeSeriesDB.seal_heads` seals exactly what is open and costs
  nothing when nothing is.

Every write call bumps the store's ``epoch`` and files what it touched
in a :class:`~repro.tsdb.cache.ChangeLog`, so a cached query result
outlives every write outside its window (:mod:`repro.tsdb.cache`).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.rawfile import BlockParser, HostBlock, take_parsed
from repro.core.store import CentralStore
from repro.obs import handles
from repro.tsdb.cache import BufferCache, ChangeLog, QueryCache
from repro.tsdb.chunks import CHUNK_POINTS, Chunk, _seal_group, decode_concat

TagKey = Tuple[Tuple[str, str], ...]

#: points per encoder call in :func:`_seal_into`: bounds its
#: temporaries (a few MiB) whatever the store holds
_SEAL_SLAB_POINTS = 1 << 17

_CHUNK_SEALS = handles.counter(
    "repro_tsdb_chunk_seals_total",
    "series heads frozen into compressed columnar chunks",
)
_CHUNK_BYTES = handles.counter(
    "repro_tsdb_chunk_bytes_total",
    "compressed bytes at rest in sealed TSDB chunks",
)
_HEAD_DETACHES = handles.counter(
    "repro_tsdb_head_detaches_total",
    "series that left a shared head block for one of their own",
)
_PRUNE_PASSES = handles.counter(
    "repro_tsdb_prune_passes_total",
    "per-metric prune passes, by whether the low-water mark let them "
    "skip the walk",
)
_PRUNE_SKIPPED = _PRUNE_PASSES.labels(outcome="skipped")
_PRUNE_WALKED = _PRUNE_PASSES.labels(outcome="walked")


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
    """Stable sort by time, keep the *last-inserted* value per ts: of
    one ``(n,)`` column or of each row of a ``(K, n)`` slab."""
    order = np.argsort(t, kind="stable")
    t = t[order]
    if len(t) > 1:
        keep = np.append(t[1:] != t[:-1], True)
        t, order = t[keep], order[keep]
    return t, v[..., order]


def _seal_into(
    slabs: List[Tuple[List["_Series"], np.ndarray, np.ndarray]]
) -> None:
    """Seal each ``(series, t, v)`` slab — K series of one metric over
    the strictly increasing times ``t``, ``v`` their C-contiguous
    ``(K, n)`` values — into one new chunk per series.

    A slab goes to the encoder whole, a few MiB of it at a time, and is
    bit for bit what :func:`~repro.tsdb.chunks.seal_many` would make of
    its columns one by one; the seal counters move once per metric.
    """
    sealed: Dict[str, List[int]] = {}
    for members, t, v in slabs:
        per = max(1, _SEAL_SLAB_POINTS // len(t))
        totals = sealed.setdefault(members[0].metric, [0, 0])
        for i in range(0, len(members), per):
            chunks = _seal_group(t, v[i:i + per])
            for s, chunk in zip(members[i:i + per], chunks):
                s.chunks.append(chunk)
            totals[0] += len(chunks)
            totals[1] += sum([chunk.nbytes for chunk in chunks])
    for metric, (n_chunks, nbytes) in sealed.items():
        _CHUNK_SEALS.labels(metric=metric).inc(n_chunks)
        _CHUNK_BYTES.labels(metric=metric).inc(nbytes)


#: lower edge of a column whose series left the block: past every row
#: count, so the column is empty in each array expression over ``lo``
_DEAD = 1 << 62
#: ``max_ts`` of a column nothing was ever written to
_NEVER = np.iinfo(np.int64).min

_NO_T = np.empty(0, dtype=np.int64)
_NO_V = np.empty(0, dtype=np.float64)


class _HeadBlock:
    """The open (unsealed) points of K series that are written together.

    One shared ``int64`` time vector ``t`` and one ``(K, capacity)``
    ``float64`` matrix ``v``: rows ``[0, n)`` are filled in arrival
    order and column ``j`` owns rows ``[lo[j], n)``.  The series of a
    :class:`SeriesGroup` share a block, a series written on its own
    owns a K = 1 block, and a series sits in at most one block, so
    every open point lives in exactly one place.  A column seals when
    *its own* open count reaches ``chunk_size``.  A column whose series
    left (written through another handle, adopted by another block,
    deleted) gets ``lo = _DEAD`` and is listed in ``detached`` for the
    owning group's tail loop; the block carries on.  Rows a reader may
    hold are never rewritten: an append fills rows past ``n``, growth
    and compaction build fresh arrays.  Once every open row is sealed
    (:meth:`TimeSeriesDB.seal_heads`) the block is dissolved, so a
    sealed series costs no block at all.
    """

    __slots__ = (
        "members", "chunk_size", "t", "v", "n", "lo", "detached",
        "max_ts", "col_ordered", "top", "base",
    )

    def __init__(
        self,
        members: Sequence["_Series"],
        chunk_size: int,
        history: Optional[Sequence[Tuple[int, bool]]] = None,
    ) -> None:
        self.members = members
        self.chunk_size = chunk_size
        self.t, self.v, self.n = _NO_T, None, 0
        self.lo = np.zeros(len(members), dtype=np.int64)
        self.detached: List[int] = []
        #: per column, as a per-series head would keep them: the newest
        #: timestamp ever written, and whether every append so far was
        #: newer than everything before it (sticky) — the members'
        #: ``history``, or that of series nothing was written to yet;
        #: ``top`` is the newest of them all, None while a series is new
        if history is None:
            self.max_ts = np.full(len(members), _NEVER, dtype=np.int64)
            self.col_ordered = np.ones(len(members), dtype=bool)
            self.top = None
        else:
            self.max_ts = np.array([h[0] for h in history], dtype=np.int64)
            self.col_ordered = np.array([h[1] for h in history], dtype=bool)
            self.top = (
                None if _NEVER in self.max_ts else int(self.max_ts.max()))
        #: ``lo.min()``: rows before it belong to no column any more
        self.base = 0

    def append(self, t: np.ndarray, v_t: np.ndarray) -> Tuple[int, int, bool]:
        """Store ``len(t)`` rows, ``v_t`` being ``(K, len(t))``; returns
        their oldest and newest timestamps, and whether a column is new
        or lost its order (either changes a read of any window)."""
        m = len(t)
        if self.n + m > len(self.t):
            self._compact(room=m)
        a, b = self.n, self.n + m
        self.t[a:b] = t
        self.v[:, a:b] = v_t
        self.n = b
        rising = m == 1 or bool((t[1:] > t[:-1]).all())
        top, newest = self.top, int(t[-1] if rising else t.max())
        whole = False
        if not rising or top is None or t[0] <= top:
            was = self.col_ordered.copy()
            self.col_ordered &= rising and self.max_ts < t[0]
            whole = top is None or bool((was != self.col_ordered).any())
        np.maximum(self.max_ts, newest, out=self.max_ts)
        self.top = int(self.max_ts.max()) if top is None else max(top, newest)
        while self.n - self.base >= self.chunk_size:
            # the oldest chunk_size rows of every column that has them
            due = np.flatnonzero(self.n - self.lo >= self.chunk_size)
            _seal_into(self.slabs(due, self.chunk_size))
            self.lo[due] += self.chunk_size
            self._edges_moved()
        return int(t[0] if rising else t.min()), newest, whole

    def _keep_rows(self, rows, m: int, room: int = 0) -> None:
        """Fresh arrays holding only ``rows`` (a slice or a mask
        selecting ``m`` of them); the caller moves the edges."""
        cap = max(m + room, 2 * m, 4)
        t = np.empty(cap, dtype=np.int64)
        v = np.empty((len(self.lo), cap))
        if m:
            t[:m] = self.t[:self.n][rows]
            v[:, :m] = self.v[:, :self.n][:, rows]
        self.t, self.v, self.n = t, v, m

    def _compact(self, room: int = 0) -> None:
        """Fresh arrays without the rows every column has sealed or
        dropped, and with room for ``room`` more."""
        base = min(self.base, self.n)
        self._keep_rows(slice(base, self.n), self.n - base, room)
        if base:
            np.subtract(self.lo, base, out=self.lo, where=self.lo < _DEAD)
            self.base -= base

    def _edges_moved(self) -> None:
        """Some ``lo`` rose: note the lowest, let the rows go once no
        column owns any, and compact once half of them are nobody's."""
        self.base = int(self.lo.min())
        if self.base >= self.n:
            self.t, self.v, self.n = _NO_T, None, 0
            if self.base < _DEAD:
                self.lo[self.lo < _DEAD] = 0
                self.base = 0
        elif self.base >= self.n - self.base:
            self._compact()

    def _rising(self) -> bool:
        t = self.t[:self.n]
        return bool((t[1:] > t[:-1]).all())

    def slabs(
        self, cols: np.ndarray, size: int
    ) -> List[Tuple[List["_Series"], np.ndarray, np.ndarray]]:
        """The oldest ``size`` open rows of each of ``cols`` as
        ``(series, t, v)`` slabs, one per distinct lower edge: the
        columns' shared times, strictly increasing, and their ``(K, n)``
        values — as buffered when the rows are in order, sorted +
        keep-last otherwise."""
        if not len(cols):
            return []
        rising = self._rising()
        lo = self.lo[cols]
        edges = [int(lo[0])] if (lo == lo[0]).all() else np.unique(lo).tolist()
        out = []
        for a in edges:
            js = cols if len(edges) == 1 else cols[lo == a]
            b = min(a + size, self.n)
            t, v = self.t[a:b], self.v[js, a:b]
            if not rising:
                # within one sealed slice, last-inserted wins for
                # duplicate timestamps; later slices/heads override at
                # merge time because chunks are concatenated in seal
                # order before the stable sort
                t, v = _sort_dedupe(t, v)
                v = np.ascontiguousarray(v)
            members = self.members
            out.append(([members[j] for j in js.tolist()], t, v))
        return out

    def dissolve(self) -> None:
        """Every open row has been sealed: park the series still here,
        each keeping its own order history.  The block is garbage."""
        for s, a, top, ordered in zip(
            self.members, self.lo.tolist(), self.max_ts.tolist(),
            self.col_ordered.tolist(),
        ):
            if a < _DEAD:
                s._parked = (top, ordered)
                s._block, s._col = _EMPTY, 0

    def take(
        self, src: "_HeadBlock", mine: List[int], theirs: List[int]
    ) -> None:
        """Start this (still empty) block from ``src``'s open rows: its
        columns ``theirs`` become columns ``mine``, every other column
        starts at the current row."""
        base = int(src.lo[theirs].min())
        keep = src.n - base
        self.t = np.empty(2 * keep, dtype=np.int64)
        self.v = np.empty((len(self.lo), 2 * keep))
        self.t[:keep] = src.t[base:src.n]
        self.v[mine, :keep] = src.v[theirs, base:src.n]
        self.n = keep
        self.lo[:] = keep
        self.lo[mine] = src.lo[theirs] - base
        self.base = int(self.lo.min())

    def leave(self, col: int) -> bool:
        """Column ``col``'s series is no longer kept here; true when
        that was the last one."""
        self.lo[col] = _DEAD
        self.detached.append(col)
        self._edges_moved()
        return self.base >= _DEAD

    def cut(self, before: int) -> Tuple[int, List[int]]:
        """Drop open rows older than ``before`` from every column:
        ``(points dropped, columns left without an open row)``."""
        was = np.clip(self.n - self.lo, 0, None)
        t = self.t[:self.n]
        if self._rising():
            np.maximum(self.lo, np.searchsorted(t, before), out=self.lo)
        elif not (keep := t >= before).all():
            # kept rows ahead of each row: where an edge lands
            ahead = np.concatenate(([0], np.cumsum(keep)))
            self.lo = np.where(
                self.lo < _DEAD, ahead[np.minimum(self.lo, self.n)], _DEAD
            )
            self._keep_rows(keep, int(ahead[-1]))
        now = np.clip(self.n - self.lo, 0, None)
        dropped = int((was - now).sum())
        self._edges_moved()
        return dropped, np.flatnonzero(
            (now == 0) & (self.lo < _DEAD)
        ).tolist()


#: the block of no series, where one without an open point sits: just
#: created, sealed by ``seal_heads``, or deleted by a prune
_EMPTY = _HeadBlock((), CHUNK_POINTS)


class _Series:
    """One chunked series: sealed chunks + a column of a head block."""

    __slots__ = (
        "key", "metric", "tags", "chunks", "buffer_cache",
        "_block", "_col", "_parked",
    )

    def __init__(
        self,
        key: Tuple[str, TagKey],
        tags: Dict[str, str],
        buffer_cache: BufferCache,
    ) -> None:
        self.key = key
        self.metric = key[0]
        self.tags = tags
        self.chunks: List[Chunk] = []
        #: decoded-chunk LRU shared across the store
        self.buffer_cache = buffer_cache
        self._block, self._col = _EMPTY, 0
        #: ``(max_ts, ordered)`` while in no block (see :meth:`_history`)
        self._parked: Tuple[int, bool] = (_NEVER, True)

    # -- the head -----------------------------------------------------------
    def _history(self) -> Tuple[int, bool]:
        """``(max_ts, ordered)``: kept by the block while in one."""
        block = self._block
        if block is _EMPTY:
            return self._parked
        return int(block.max_ts[self._col]), bool(block.col_ordered[self._col])

    @property
    def _ordered(self) -> bool:
        """Strictly-increasing fast path: every append so far was newer
        than everything before it (chunks disjoint + head in order)."""
        return self._history()[1]

    @property
    def _max_ts(self) -> Optional[int]:
        top = self._history()[0]
        return None if top == _NEVER else top

    def head(self) -> Tuple[np.ndarray, np.ndarray]:
        """The open points as ``(t, v)`` views in arrival order — before
        any read-side sort, duplicates included."""
        block = self._block
        if not block.n or (a := block.lo[self._col]) >= block.n:
            return _NO_T, _NO_V
        return block.t[a:block.n], block.v[self._col, a:block.n]

    def head_len(self) -> int:
        block = self._block
        return block.n - int(block.lo[self._col]) if block.n else 0

    # -- reading ------------------------------------------------------------
    def arrays(
        self, time_range: Optional[Tuple[int, int]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted, deduplicated columns, optionally only [lo, hi): a
        :func:`_scan` of this one series."""
        return _scan([self], time_range, self.buffer_cache)[0]

    def prune_chunks(self, before: int) -> int:
        """Drop sealed points older than ``before``; returns how many.

        Whole expired chunks are discarded on their ``t_max`` alone;
        only a chunk straddling the horizon is decoded and re-sealed.
        (Open points go a block at a time: :meth:`_HeadBlock.cut`.)
        """
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
        if dead_ids:
            self.chunks = kept_chunks
            # ids are never reused, so this is pure garbage collection
            self.buffer_cache.invalidate(dead_ids)
        return dropped

    @property
    def nbytes(self) -> int:
        """At-rest size: compressed chunks + 16 B per open point."""
        return sum(c.nbytes for c in self.chunks) + 16 * self.head_len()

    def __len__(self) -> int:
        return sum(c.count for c in self.chunks) + self.head_len()


def read_chunks(
    series_list: Sequence[_Series],
    time_range: Optional[Tuple[int, int]],
    cache: BufferCache,
    preagg: bool = False,
) -> Tuple[List[List[Chunk]], List[list]]:
    """The store's one read step: the sealed chunks a window holds of
    each series, looked up and decoded once for all of them.

    *Plan.*  One pass over each series' chunk metadata lists, oldest
    first, the chunks the window touches — out-of-window chunks are
    never decoded.  With ``preagg``, a chunk the window covers whole is
    answered by the pre-aggregate sealed into it: it is neither looked
    up nor decoded.
    *Fetch.*  The buffer cache ``cache`` is asked for every other chunk
    in one :meth:`BufferCache.get_many`: one lock hold, recency touched
    in series order, hits and misses counted once.  The resident
    columns are in hand from then on, so a later eviction cannot matter.
    *Decode.*  The rest — across every series — is decoded in one
    :func:`~repro.tsdb.chunks.decode_concat` batch and filed in the
    cache.

    Returns ``(plans, parts)``: per series, the planned chunks and one
    entry per planned chunk — the :class:`Chunk` itself where its
    pre-aggregate answers, else its ``(t, v)``, resident or decoded.
    """
    lo, hi = time_range if time_range is not None else (None, None)
    plans: List[List[Chunk]] = []
    wanted: List[Chunk] = []
    for s in series_list:
        plan = s.chunks if time_range is None else [
            c for c in s.chunks if c.overlaps(lo, hi)
        ]
        plans.append(plan)
        if preagg:  # only the chunks a window edge cuts through
            wanted += [
                c for c in plan
                if (lo is not None and c.t_min < lo)
                or (hi is not None and c.t_max >= hi)
            ]
        else:
            wanted += plan
    found = cache.get_many([c.chunk_id for c in wanted])
    missing = [k for k, cols in enumerate(found) if cols is None]
    if missing:
        needed = [wanted[k] for k in missing]
        gt, gv, bounds = decode_concat(needed)
        bounds = bounds.tolist()
        for k, a, b in zip(missing, bounds, bounds[1:]):
            found[k] = gt[a:b], gv[a:b]
        cache.put_many([
            (c.chunk_id, found[k]) for c, k in zip(needed, missing)
        ])

    parts: List[list] = []
    i = 0  # the next chunk of ``wanted``
    for plan in plans:
        if not preagg:
            parts.append(found[i:i + len(plan)])
            i += len(plan)
            continue
        row = []
        for c in plan:  # ``wanted`` lists the edge chunks in plan order
            if i < len(wanted) and wanted[i] is c:
                row.append(found[i])
                i += 1
            else:
                row.append(c)
        parts.append(row)
    return plans, parts


def _scan(
    series_list: Sequence[_Series],
    time_range: Optional[Tuple[int, int]],
    cache: BufferCache,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Sorted, deduplicated ``(t, v)`` per series, optionally only
    ``[lo, hi)``: behind :meth:`TimeSeriesDB.scan` and
    :meth:`_Series.arrays` alike.

    Every series is read by :func:`read_chunks`, which files its
    decodes in the buffer cache, windowed or not.
    *Assemble.*  The series are assembled in runs that share one
    time column.  In-order series with no open points whose planned
    chunks have equal ``(t_min, count, t_step)``, every ``t_step`` set,
    hold the same timestamps — what prefilled and batch-sealed data
    looks like — so they form one run; every other series is a run of
    one, its open points after its chunks.  A run takes its time column
    from its first member's parts and gathers every member's value
    parts, oldest first, into one ``(K, n)`` block.  An in-order run is
    cut to the window before the gather — only its first and last chunk
    part and the open points can cross an edge, so one binary-search
    pair on the first member's parts cuts every member — and each
    member gets the shared time column and a view of its row: a run of
    one with a single part is a view of that part, never a copy.  A
    series that saw out-of-order or duplicate writes masks the window
    and stable-sorts its merged parts keeping the last value per
    timestamp — the flat-list semantics.
    """
    out: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(series_list)
    plans, parts = read_chunks(series_list, time_range, cache)

    runs: Dict[object, List[int]] = {}
    for j, (s, plan) in enumerate(zip(series_list, plans)):
        key: object = j
        # an irregular chunk (no t_step) may hide other timestamps
        # behind equal metadata
        if (plan and s._ordered and not s.head_len()
                and None not in [c.t_step for c in plan]):
            key = tuple([(c.t_min, c.count, c.t_step) for c in plan])
        runs.setdefault(key, []).append(j)
    for members in runs.values():
        first = series_list[members[0]]
        ordered = first._ordered
        windowed = ordered and time_range is not None
        cols = list(parts[members[0]])
        cuts = [slice(None)] * len(cols)
        if cols and windowed:
            # sorted, disjoint chunk parts: only the outer two cross an
            # edge of the window
            lo, hi = time_range
            t = cols[0][0]
            a = int(t.searchsorted(lo)) if t[0] < lo else 0
            t = cols[-1][0]
            b = int(t.searchsorted(hi)) if t[-1] >= hi else len(t)
            cuts[0], cuts[-1] = slice(a, None), slice(None, b)
            if len(cols) == 1:
                cuts[0] = slice(a, b)
        ht, hv = first.head()
        if len(ht):
            cols.append((ht, hv))
            cuts.append(slice(*ht.searchsorted(time_range)) if windowed
                        else slice(None))
        if cols:
            ts = [t[cut] for (t, _), cut in zip(cols, cuts)]
            vs = [v[cut] for (_, v), cut in zip(cols, cuts)]
            for j in members[1:]:
                vs += [v[cut] for (_, v), cut in zip(parts[j], cuts)]
            t = ts[0] if len(ts) == 1 else np.concatenate(ts)
            block = (vs[0] if len(vs) == 1 else np.concatenate(vs)).reshape(
                len(members), -1)
        else:
            t, block = _NO_T, _NO_V.reshape(1, 0)
        if not ordered:
            if time_range is not None:
                m = (t >= time_range[0]) & (t < time_range[1])
                t, block = t[m], block[:, m]
            t, block = _sort_dedupe(t, block)
        for j, v in zip(members, block):
            out[j] = (t, v)
    return out


class SeriesGroup:
    """K series of one metric that are written together, a row at a time.

    A handle from :meth:`TimeSeriesDB.group`: it carries the K tag sets
    and their precomputed series keys, and — once written through — the
    head block its series share.  The handle is tagged with the store's
    series *generation*, which moves whenever :meth:`TimeSeriesDB.prune`
    deletes an emptied series, so a handle that outlives its series
    re-registers them on its next write instead of appending to a
    detached object.  Column ``j`` of a written block belongs to
    ``tag_sets[j]``.

    The tag sets are the group's own copies, shared — never copied — by
    the series registered through it and by every group derived from
    it: ``SeriesGroup(tsdb, metric, other)`` is ``other``'s layout
    under another metric, its keys ``other``'s sorted tag keys.
    """

    __slots__ = ("tsdb", "metric", "tag_sets", "keys", "_layout",
                 "_postings", "_block", "_generation")

    def __init__(
        self,
        tsdb: "TimeSeriesDB",
        metric: str,
        tag_sets: Union[Sequence[Mapping[str, str]], "SeriesGroup"],
    ) -> None:
        self.tsdb = tsdb
        self.metric = metric
        if isinstance(tag_sets, SeriesGroup):
            self.tag_sets = tag_sets.tag_sets
            self.keys = tuple([(metric, key) for _, key in tag_sets.keys])
            #: the group that first made this layout
            self._layout: SeriesGroup = tag_sets._layout
        else:
            self.tag_sets: Tuple[Dict[str, str], ...] = tuple(
                dict(tags) for tags in tag_sets
            )
            self.keys: Tuple[Tuple[str, TagKey], ...] = tuple(
                (metric, _tagkey(tags)) for tags in self.tag_sets
            )
            if len(set(self.keys)) != len(self.keys):
                raise ValueError("a series group cannot list a series twice")
            self._layout = self
        #: what registering every column adds to the tag index
        #: (:meth:`postings`), kept by the layout's first group
        self._postings: Optional[List[Tuple[str, str, List[int]]]] = None
        self._block: Optional[_HeadBlock] = None
        self._generation = -1  # never resolved

    @classmethod
    def _made(
        cls, tsdb: "TimeSeriesDB", metric: str,
        tag_sets: Tuple[Dict[str, str], ...],
        keys: Tuple[Tuple[str, TagKey], ...],
        postings: List[Tuple[str, str, List[int]]],
    ) -> "SeriesGroup":
        """A group whose keys and postings were worked out already (see
        :class:`HostTemplate`): the constructor's checks are the
        template's."""
        group = cls.__new__(cls)
        group.tsdb, group.metric = tsdb, metric
        group.tag_sets, group.keys = tag_sets, keys
        group._layout, group._postings = group, postings
        group._block, group._generation = None, -1
        return group

    def __len__(self) -> int:
        return len(self.keys)

    def postings(self, cols: Sequence[int]) -> List[Tuple[str, str, List[int]]]:
        """``(tag, value, columns)`` for the series of ``cols``: the
        posting-set entries registering them adds, in the order a
        series-by-series walk would first meet each tag value.  For
        every column at once the answer is the layout's, and is kept."""
        whole = len(cols) == len(self.keys)
        if whole and self._layout._postings is not None:
            return self._layout._postings
        by_value: Dict[Tuple[str, str], List[int]] = {}
        tag_sets = self.tag_sets
        for j in cols:
            for tag, value in tag_sets[j].items():
                by_value.setdefault((tag, str(value)), []).append(j)
        out = [(tag, value, js) for (tag, value), js in by_value.items()]
        if whole:
            self._layout._postings = out
        return out


class HostTemplate:
    """The series one host layout writes, with the host left out.

    Built once per layout from tag sets whose ``host`` is a placeholder
    (every other tag fixed), it keeps what a :class:`SeriesGroup` would
    work out for each host afresh — the sorted tag keys, cut around the
    ``host`` item, and the posting entries a series-by-series walk would
    add.  :meth:`bind` substitutes a host into them, so a host's series
    cost no key sort and no posting walk; what the group registers is
    exactly what ``SeriesGroup(tsdb, metric, tag_sets)`` would.
    """

    __slots__ = ("metric", "tag_sets", "parts", "postings", "_host_at")

    def __init__(
        self, metric: str, tag_sets: Sequence[Mapping[str, str]]
    ) -> None:
        group = SeriesGroup(None, metric, tag_sets)  # checks the layout
        self.metric = metric
        self.tag_sets = group.tag_sets
        self.parts = []
        for _, key in group.keys:
            at = [tag for tag, _ in key].index("host")
            self.parts.append((key[:at], key[at + 1:]))
        self.postings = group.postings(range(len(group)))
        self._host_at = next(
            i for i, (tag, _, _) in enumerate(self.postings) if tag == "host"
        )

    def bind(self, tsdb: "TimeSeriesDB", host: str) -> SeriesGroup:
        """The write handle on ``host``'s series of this layout."""
        value = str(host)
        item = (("host", value),)
        metric = self.metric
        postings = list(self.postings)
        postings[self._host_at] = ("host", value, postings[self._host_at][2])
        return SeriesGroup._made(
            tsdb, metric,
            tuple([{**tags, "host": host} for tags in self.tag_sets]),
            tuple([(metric, a + item + b) for a, b in self.parts]),
            postings,
        )


def _given(injected, make):
    """An injected cache, or ``make()`` for None — never ``injected or
    make()``: an empty cache has ``len`` 0, so it is falsy."""
    return make() if injected is None else injected


class TimeSeriesDB:
    """An in-memory tag-indexed TSDB over chunked columnar series."""

    def __init__(
        self,
        chunk_size: int = CHUNK_POINTS,
        cache: Optional[QueryCache] = None,
        buffer_cache: Optional[BufferCache] = None,
    ) -> None:
        self._series: Dict[Tuple[str, TagKey], _Series] = {}
        #: tag name → tag value → set of series keys (inverted index)
        self._index: Dict[str, Dict[str, set]] = defaultdict(
            lambda: defaultdict(set)
        )
        #: metric → set of series keys, so per-metric operations never
        #: scan the whole store
        self._by_metric: Dict[str, set] = defaultdict(set)
        #: the live head blocks, oldest first — exactly the blocks some
        #: series sits in: entered by :meth:`_adopt`, left when
        #: :meth:`seal_heads` dissolves or :meth:`_move` empties one
        self._blocks: Dict[_HeadBlock, None] = {}
        #: metric → low-water mark: no point of the metric is older.
        #: Every write lowers it to that write's oldest timestamp, a
        #: prune pass that walked raises it to its horizon — so a pass
        #: whose horizon is not above it cannot drop anything
        self._low: Dict[str, int] = {}
        self.chunk_size = int(chunk_size)
        #: bumped on every mutation, which files what it touched
        self.epoch, self.changes = 0, ChangeLog()
        #: bumped whenever a series is deleted or ``seal_heads``
        #: dissolves the head blocks; a :class:`SeriesGroup` resolved
        #: under an older generation looks its series up again
        self._generation = 0
        #: LRU query-result cache consulted by :func:`repro.tsdb.query`
        #: (``cache=`` and ``buffer_cache=`` inject one, say to size it)
        self.cache = _given(cache, QueryCache)
        #: LRU of decoded chunk columns shared by every series
        self.buffer_cache = _given(buffer_cache, BufferCache)
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
    def _get_series(self, key: Tuple[str, TagKey], tags: Mapping[str, str]):
        """The series ``key``, created and indexed if new (write lock
        held, the write already validated)."""
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = _Series(
                key, dict(tags), self.buffer_cache
            )
            self._by_metric[key[0]].add(key)
            for k, v in s.tags.items():
                self._index[k][str(v)].add(key)
        return s

    def group(
        self,
        metric: str,
        tag_sets: Union[Sequence[Mapping[str, str]], SeriesGroup],
    ) -> SeriesGroup:
        """A write handle on K series of ``metric`` (see
        :class:`SeriesGroup`); ``tag_sets`` may be another group, whose
        layout is then reused as it is.  Nothing is created until the
        first :meth:`put_many` through it."""
        return SeriesGroup(self, metric, tag_sets)

    def put(
        self, metric: str, tags: Mapping[str, str], ts: int, value: float
    ) -> None:
        """Insert one data point."""
        self._put_column(
            metric, tags,
            np.array([int(ts)], dtype=np.int64), np.array([float(value)]),
        )

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
        write-lock acquisition and one epoch bump for the whole batch
        (``epoch`` counts write calls, not the series or points they
        touch); a shape or metric mismatch raises ``ValueError`` before
        anything is written or any series created.  Returns points
        inserted.
        """
        if isinstance(tags, SeriesGroup):
            return self._put_rows(metric, tags, times, values)
        if len(times) == 0:
            return 0
        t = np.asarray(times, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times/values must be aligned 1-d columns")
        return self._put_column(metric, tags, t, v)

    def _put_column(
        self, metric: str, tags: Mapping[str, str], t: np.ndarray,
        v: np.ndarray,
    ) -> int:
        """Append validated ``(n,)`` columns to one series."""
        with self.write_locked():
            s = self._get_series((metric, _tagkey(tags)), tags)
            self._wrote(metric, *self._own_block(s).append(t, v[None, :]))
        return len(t)

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
            block = group._block
            if group._generation != self._generation:
                block = self._attach(group)
            v_t = v.T
            whole = False
            if len(block.detached) < len(v_t):
                oldest, newest, whole = block.append(t, v_t)
            # columns that left the block: each through its own series
            for j in block.detached:
                oldest, newest, lost = self._own_block(
                    block.members[j]).append(t, v_t[j:j + 1])
                whole |= lost
            self._wrote(metric, oldest, newest, whole)
        return v.size

    def _wrote(self, metric: str, oldest: int, newest: int, whole: bool):
        """Book a write: its span, or (``whole``) all of ``metric``."""
        low = self._low.get(metric)
        if low is None or oldest < low:
            self._low[metric] = oldest
        self.epoch += 1
        self.changes.append(
            (self.epoch, metric, None if whole else (oldest, newest)))

    def unchanged_since(self, metric: str, filed: int, time_range) -> bool:
        """No mutation after epoch ``filed`` touched ``metric`` inside
        ``time_range``."""
        return self.changes.unchanged_since(
            metric, filed, time_range, self.epoch)

    def _own_block(self, s: _Series) -> _HeadBlock:
        """The K = 1 block ``s`` is written through on its own.  A
        series sitting in a shared block leaves it first, taking its
        open rows along — the block stays intact for the others."""
        block = s._block
        if len(block.lo) == 1:
            return block
        if block is not _EMPTY:
            _HEAD_DETACHES.inc()
        return self._adopt([s])

    def _attach(self, group: SeriesGroup) -> _HeadBlock:
        """Resolve ``group``'s series and the block they share: a block
        of their own when all of them are new, a series' own block for
        a one-series group, a block whose columns are exactly these
        series as it is, a new one otherwise."""
        members = list(map(self._series.get, group.keys))
        fresh = [j for j, s in enumerate(members) if s is None]
        if fresh:
            self._register(group, members, fresh)
        group._generation = self._generation
        block = members[0]._block
        if len(fresh) == len(members):
            block = self._adopt_fresh(members)
        elif len(members) == 1:
            block = self._own_block(members[0])
        elif (
            len(block.lo) != len(members)
            or any(
                s._block is not block or s._col != j
                for j, s in enumerate(members)
            )
        ):
            block = self._adopt(members)
        group._block = block
        return block

    def _register(
        self,
        group: SeriesGroup,
        members: List[Optional[_Series]],
        fresh: List[int],
    ) -> None:
        """Create and index the series of ``group`` the store lacks —
        columns ``fresh``, ``None`` in ``members`` until filled in here
        — in one pass: the series in column order, the metric's key set
        extended once, each posting set once per tag value it gains.
        What it leaves is what ``_get_series`` column by column would.
        """
        keys, tag_sets, cache = group.keys, group.tag_sets, self.buffer_cache
        series = self._series
        for j in fresh:
            members[j] = series[keys[j]] = _Series(keys[j], tag_sets[j], cache)
        self._by_metric[group.metric].update([keys[j] for j in fresh])
        index = self._index
        for tag, value, cols in group.postings(fresh):
            index[tag][value].update([keys[j] for j in cols])

    def _adopt_fresh(self, members: List[_Series]) -> _HeadBlock:
        """A new block for series nothing was written to yet: no open
        points to bring along, no history to read."""
        block = _HeadBlock(members, self.chunk_size)
        self._blocks[block] = None
        for j, s in enumerate(members):
            s._block, s._col = block, j
        return block

    def _adopt(self, members: List[_Series]) -> _HeadBlock:
        """A new block for ``members``.  Open points can only come along
        from *one* block (they share its time vector), so the first
        member that holds any names the block that is adopted — a layout
        change, whose new members start at the current row, keeps the
        host on the fast path — and a member holding open points
        anywhere else stays there, as a detached column."""
        block = _HeadBlock(
            members, self.chunk_size,
            [s._parked if s._block is _EMPTY else s._history()
             for s in members],
        )
        self._blocks[block] = None
        src = next((s._block for s in members if s.head_len()), None)
        joining, staying = [], []
        for j, s in enumerate(members):
            if s._block is src:
                joining.append(j)
            elif s.head_len():
                staying.append(j)
        if joining:
            block.take(src, joining, [members[j]._col for j in joining])
        for j in staying:
            block.leave(j)
        for j, s in enumerate(members):
            if j not in staying:
                self._move(s, block, j)
        return block

    def _move(self, s: _Series, block: _HeadBlock, col: int) -> None:
        """``s`` sits in ``block`` (which already holds its open rows)
        from now on; a block its last column left is forgotten."""
        was = s._block
        if was is not _EMPTY and was.leave(s._col):
            del self._blocks[was]
        s._block, s._col = block, col

    def prune(self, before: int, metric: Optional[str] = None) -> int:
        """Drop points older than ``before`` (optionally one metric).

        Series left empty are removed entirely, including their
        inverted-index entries, so long-running live feeds keep both
        point and series counts bounded.  A metric whose low-water mark
        is not below ``before`` is skipped without a walk; otherwise
        expired sealed chunks are discarded on metadata comparison
        alone and open points are cut a head block at a time.  Returns
        points dropped.
        """
        dropped = 0
        with self.write_locked():
            for m in [metric] if metric is not None else list(self._by_metric):
                if before <= self._low.get(m, before):
                    _PRUNE_SKIPPED.inc()
                else:
                    _PRUNE_WALKED.inc()
                    dropped += self._prune_walk(before, m)
            if dropped:
                self.epoch += 1
                self.changes.append((self.epoch, metric, None))
        return dropped

    def _prune_walk(self, before: int, metric: str) -> int:
        dropped = 0
        blocks: Dict[_HeadBlock, None] = {}
        emptied: List[_Series] = []
        for key in self._by_metric[metric]:
            s = self._series[key]
            if s.chunks:
                dropped += s.prune_chunks(before)
            if s._block is not _EMPTY:
                blocks[s._block] = None
            elif not s.chunks:
                emptied.append(s)
        for block in blocks:
            gone, cols = block.cut(before)
            dropped += gone
            emptied += [
                block.members[j] for j in cols if not block.members[j].chunks
            ]
        for s in emptied:
            self._delete(s)
        if metric in self._by_metric:
            self._low[metric] = before
        else:
            del self._low[metric]
        return dropped

    def _delete(self, s: _Series) -> None:
        """Remove the emptied series ``s`` and its index entries."""
        key = s.key
        del self._series[key]
        self._generation += 1
        self._move(s, _EMPTY, 0)
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

    def seal_heads(self) -> None:
        """Seal every series head: the last step of a batch load.

        After a nightly ingest the day's points sit in heads shorter
        than ``chunk_size``; this puts them at rest compressed and
        pre-aggregated (see :func:`_seal_into`).
        """
        with self.write_locked():
            blocks, self._blocks = self._blocks, {}
            if not blocks:
                return
            slabs = []
            for block in blocks:
                slabs += block.slabs(np.flatnonzero(block.lo < block.n), block.n)
            _seal_into(slabs)
            for block in blocks:
                block.dissolve()
            self._generation += 1  # every group handle has lost its block

    # -- reading ------------------------------------------------------------
    def scan(
        self,
        series_list: Sequence[object],
        time_range: Optional[Tuple[int, int]] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Materialise many series at once; returns aligned ``(t, v)``
        in the caller's series order.  The fleet-wide read path: one
        plan, one buffer-cache fetch and one batched decode for *all*
        requested series (:func:`_scan`)."""
        with self.read_locked():
            return _scan(series_list, time_range, self.buffer_cache)

    def drop_read_caches(self) -> None:
        """Forget every cached read artifact (cold-read benchmarking).

        Clears the decoded-buffer cache and the query-result cache; the
        next query pays the full decode + compute cost, as a freshly
        restarted process would.
        """
        with self.write_locked():
            self.buffer_cache.clear()
            self.cache.clear()

    def read_stats(self) -> Dict[str, object]:
        """Read-path accelerator counters for the portal ``/fleet`` page.

        Schema (pinned by ``tests/test_tsdb/test_cache.py``): the
        result cache and buffer cache report independently —
        result-cache hits skip the whole computation, buffer-cache
        hits only skip chunk decodes, and pre-aggregate skips avoid
        decodes without any cache involved.
        """
        def _cache_stats(c) -> Dict[str, object]:
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
        """All series of ``metric`` matching the tag filters, in key order.

        A filter value may be a single value or a list, tuple or set of
        alternatives.  The metric's key set and one posting set per
        filter — the index's own set for one value (never copied), the
        union for several — are intersected smallest first: the cost is
        O(smallest set × filters) plus the sort of the result, whatever
        the metric or the store holds.  The index is shared by every
        metric, hence the metric's key set; a tag or value it does not
        know matches nothing.
        """
        by_metric = self._by_metric.get(metric)
        if not by_metric:
            return []
        sets = [by_metric]
        for tag, want in (tags or {}).items():
            by_value = self._index.get(tag, {})
            alts = want if isinstance(want, (list, tuple, set)) else [want]
            hits = [by_value[v] for v in map(str, alts) if v in by_value]
            if not hits:
                return []
            sets.append(hits[0] if len(hits) == 1 else set().union(*hits))
        sets.sort(key=len)
        keys = sets[0]
        for other in sets[1:]:
            keys = keys & other  # never ``&=``: ``sets[0]`` is the index's
        return [self._series[k] for k in sorted(keys)]


def series_plan(
    layouts: Tuple, metric: str, wanted: Optional[frozenset]
) -> List[Tuple[HostTemplate, Tuple[int, ...], Dict[int, List[int]]]]:
    """What rows laid out as ``layouts`` write under ``metric``, host
    left out: per set of series read in exactly the same layouts, type
    by type, their template, those layouts' indices and each one's row
    columns of them.  A series is named by the schema of the layout it
    is read under; a type without a schema, or outside ``wanted``, is
    left out, and a device listed twice is read from its last run.
    Batch (:func:`ingest_file`, a layout per block run) and the live
    pipeline (one layout) keep it on the first layout."""
    #: (type, device, event) → {layout: its column}, in first-appearance
    #: order
    where: Dict[Tuple[str, str, str], Dict[int, int]] = {}
    for u, layout in enumerate(layouts):
        for type_name, devices in layout.starts.items():
            schema = layout.schemas.get(type_name)
            if schema is None or (
                    wanted is not None and type_name not in wanted):
                continue
            for device, at in devices.items():
                for j, event in enumerate(schema.names()):
                    where.setdefault((type_name, device, event), {})[u] = (
                        at + j)
    types = {t: i for i, t in enumerate(dict.fromkeys(k[0] for k in where))}
    #: layouts → the series read in exactly those
    slabs: Dict[Tuple[int, ...], List[Tuple[str, str, str]]] = {}
    for key in sorted(where, key=lambda k: types[k[0]]):
        slabs.setdefault(tuple(where[key]), []).append(key)
    return [
        (HostTemplate(metric, [
            {"host": "", "type": t, "device": d, "event": e}
            for t, d, e in keys
        ]), runs, {u: [where[k][u] for k in keys] for u in runs})
        for runs, keys in slabs.items()
    ]


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
    any source — text, a file-like object read in one go, or the
    columnar :class:`~repro.core.rawfile.HostBlock` an earlier pass
    parsed of it (:func:`~repro.core.rawfile.take_parsed`).  A stream is
    parsed once into a block, and the block is written a slab at a
    time: the series whose readings cover the same records are laid
    side by side into one ``(records, series)`` matrix and go through
    one :class:`SeriesGroup` in one :meth:`TimeSeriesDB.put_many`.  A
    file of one layout — every device read in every record, under one
    set of schemas — is one write and one head block for the whole
    host; a device that appears late or skips a record, or a type whose
    schema changes, covers other records and gets a slab of its own.
    Which series go together and their :class:`HostTemplate` are made
    once for every host whose runs have the same layouts; only the host
    is filled in.  A corrupt line — or a block with a ledger entry —
    raises ``ValueError("<host>: line <n>: <reason>")`` before anything
    is written.  Returns ``(points,
    samples)``.
    """
    wanted = frozenset(types) if types is not None else None
    if isinstance(fh, HostBlock):
        block = fh
        if block.errors:
            first = block.errors[0]
            raise ValueError(f"{host}: line {first.lineno}: {first.reason}")
    else:
        text = fh if isinstance(fh, str) else fh.read()
        try:
            block = BlockParser(on_error="raise").parse_text(text)
        except ValueError as exc:
            raise ValueError(f"{host}: {exc}") from exc
    layouts = tuple(run.layout for run in block.runs)
    plan = layouts[0].derive(
        ("series", metric, wanted, layouts[1:]),
        lambda: series_plan(layouts, metric, wanted),
    ) if layouts else []
    n = 0
    for template, runs, cols in plan:
        records = np.concatenate([block.runs[u].records for u in runs])
        values = np.concatenate(
            [block.runs[u].matrix[:, cols[u]] for u in runs])
        order = np.argsort(records)
        n += tsdb.put_many(metric, template.bind(tsdb, host),
                           block.times[records[order]], values[order])
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
    :func:`ingest_file` — as the block an ETL pass in this process
    parsed of it, when the file still holds that text
    (:func:`~repro.core.rawfile.take_parsed`), else as its text.
    Returns points ingested.  ``types`` optionally restricts to certain
    device types (metadata analyses only need ``mdc``; loading
    everything is supported but larger).
    """
    n = 0
    store.flush()
    for host in store.hosts():
        path = store.path_for(host)
        src = take_parsed(path)
        if src is None:
            with open(path) as fh:
                src = fh.read()
        n += ingest_file(tsdb, host, src, types=types, metric=metric)[0]
    return n
