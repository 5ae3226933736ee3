"""TSDB queries: rate conversion, grouping, aggregation, downsampling.

Query semantics follow OpenTSDB:

1. select series by metric + tag filters,
2. optionally convert counters to rates — negative deltas go through
   the shared rollover/reset policy
   (:func:`repro.hardware.counters.correct_rollover`), the same one
   both ingest paths use, so a query rate around a register wrap
   matches Table I instead of silently dropping the interval,
3. group by any subset of tag names; within each group, align series
   on the union of their timestamps and aggregate (sum/avg/max/min,
   NaN-skipping),
4. optionally downsample into fixed time buckets.

The semantics are pinned by ``tests/test_tsdb/reference.py::baseline_query``
(the pre-vectorisation implementation, kept verbatim as an oracle);
everything below must stay *bit-identical* to it, and the equivalence
and property suites enforce that.  What changed is how the work is
done:

* **batched scan** — all selected series materialise through
  :meth:`~repro.tsdb.store.TimeSeriesDB.scan`, which decodes every
  cache-missing chunk of every series in one
  :func:`~repro.tsdb.chunks.decode_concat` call, instead of one
  decode round-trip per chunk;
* **stacked kernels** — monitoring series share a sampling cadence,
  so when every non-empty series sits on the same time grid the rate
  conversion runs once over a ``(series × samples)`` matrix and each
  group aggregates a row-slice of it; scatter alignment only runs for
  genuinely misaligned series.  Per-row results of the stacked kernels
  are bit-identical to the per-series ops (``diff``/``where`` are
  elementwise; the scattered matrix equals the stacked one when grids
  agree);
* **segmented downsample** — bucket boundaries come from one
  ``np.unique`` over the (sorted) times; buckets of equal width gather
  into a matrix and reduce along the row axis, which NumPy evaluates
  exactly like the same reduction on each bucket alone.  The Python
  loop is over *distinct bucket sizes* (usually one), not buckets,
  and never over points;
* **result cache** — every store carries a
  :class:`~repro.tsdb.cache.QueryCache`, and both entry points read
  through it (:func:`_cached`): the fully normalised query shape is
  looked up first, so a repeat query whose metric no write touched
  inside its time range since answers without touching the series at
  all.

:func:`window_stats` is the second entry point: scalar
count/sum/min/max/first/last (and mean) per series over a time
window.  It reads through the same step as the scan
(:func:`~repro.tsdb.store.read_chunks`): one plan over every in-order
series' chunk metadata, one buffer-cache lookup and one batched
decode.  A chunk the window fully covers answers from the
pre-aggregates sealed into it — no lookup, no decode, O(chunks) — and
only the chunks a window edge cuts through are read.  The series
sharing a head block reduce their open rows in one kernel call
(:func:`_head_parts`).  Per series the partials fold in time order;
series with out-of-order writes are merged by one
:meth:`~repro.tsdb.store.TimeSeriesDB.scan` call and reduced whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, ContextManager, Dict, List, Mapping, Optional, Protocol,
    Sequence, Tuple,
)

import numpy as np

from repro.hardware.counters import correct_rollover
from repro.obs import handles
from repro.tsdb.cache import QueryCache
from repro.tsdb.chunks import Chunk, preaggregate
from repro.tsdb.store import TimeSeriesDB, _Series, read_chunks

_PREAGG_SKIPS = handles.counter(
    "repro_tsdb_preagg_skips_total",
    "chunk decodes skipped by sealed pre-aggregates",
)

_AGGS = {
    "sum": np.nansum,
    "avg": np.nanmean,
    "max": np.nanmax,
    "min": np.nanmin,
}
#: the plain reductions a NaN-free block takes for ``sum`` and ``avg``:
#: on such input ``np.nansum`` / ``np.nanmean`` run ``np.add.reduce``
#: over a copy of the same layout and divide by the same count, so the
#: bits are the same without the mask and the copy.  ``max`` and
#: ``min`` keep the NaN-skipping forms (see :func:`_downsample`)
_DENSE = {"sum": np.sum, "avg": np.mean}


def _reducer(agg: str, block: np.ndarray):
    """The reduction ``agg`` runs over ``block``: dense when it can."""
    dense = _DENSE.get(agg)
    if dense is not None and not np.isnan(block).any():
        return dense
    return _AGGS[agg]


class ReadableStore(Protocol):
    """Everything :func:`query` reads a store through.

    :class:`~repro.tsdb.store.TimeSeriesDB` and
    :class:`~repro.shard.coordinator.ShardedTSDB` both implement it;
    selected series need only carry ``tags``.
    """

    #: write epoch — what a cached result is filed under
    epoch: int
    cache: QueryCache

    def unchanged_since(self, metric: str, filed: int, time_range) -> bool:
        """No write after epoch ``filed`` touched ``metric`` inside
        ``time_range``."""

    def select(
        self, metric: str, tags: Optional[Mapping[str, object]] = None
    ) -> Sequence:
        """Matching series, sorted by their ``(metric, tag-items)`` key."""

    def scan(
        self, series_list: Sequence,
        time_range: Optional[Tuple[int, int]] = None,
    ) -> Sequence[Tuple[np.ndarray, np.ndarray]]:
        """``(times, values)`` of each series, in request order."""

    def read_locked(self) -> ContextManager:
        """The store's shared read lock.

        Both query entry points hold it end-to-end: the epoch is
        captured, the series scanned and the result cached as one
        atomic read, so a concurrent writer can never leave a half-new
        result filed under an epoch that would serve it stale.
        """


@dataclass
class ResultSeries:
    """One aggregated output series."""

    tags: Dict[str, str]  # the group-by tag values
    times: np.ndarray
    values: np.ndarray

    def mean(self) -> float:
        return float(np.nanmean(self.values)) if self.values.size else 0.0

    def max(self) -> float:
        return float(np.nanmax(self.values)) if self.values.size else 0.0


@dataclass
class QueryResult:
    """All groups returned by one query."""

    series: List[ResultSeries]

    def by_tags(self, **tags: str) -> Optional[ResultSeries]:
        want = {k: str(v) for k, v in tags.items()}
        for s in self.series:
            if all(s.tags.get(k) == v for k, v in want.items()):
                return s
        return None

    def __len__(self) -> int:
        return len(self.series)


def _to_rate(
    t: np.ndarray, mat: np.ndarray, width: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Counter series → per-interval rates, over a (series × samples)
    matrix in one pass.

    Negative deltas are not dropped: they are routed through the one
    shared rollover/reset policy
    (:func:`repro.hardware.counters.correct_rollover`, ``width`` being
    the register modulus), exactly like the streaming and batch ingest
    paths, so rates around a mid-series wrap agree with Table I.  Every
    operation is elementwise or along the sample axis, so each row
    equals the conversion of that series alone bit-for-bit.
    """
    if len(t) < 2:
        return t[:0], mat[:, :0]
    dt = np.diff(t).astype(np.float64)
    dv = correct_rollover(np.diff(mat, axis=1), mat[:, 1:], width)
    return t[1:], dv / np.maximum(dt, 1e-300)


def query(
    tsdb: ReadableStore,
    metric: str,
    tags: Optional[Mapping[str, object]] = None,
    group_by: Sequence[str] = (),
    aggregate: str = "sum",
    rate: bool = False,
    counter_width: float = 2.0**64,
    downsample: Optional[Tuple[int, str]] = None,
    time_range: Optional[Tuple[int, int]] = None,
) -> QueryResult:
    """Run one query; see module docstring for semantics.

    ``counter_width`` is the register modulus handed to the rollover
    policy when ``rate=True`` (e.g. ``2.0**32`` for 32-bit counters).
    """
    if aggregate not in _AGGS:
        raise ValueError(f"unknown aggregator {aggregate!r}; use {_AGGS}")
    # the query shape, normalised: tag filters are order-insensitive
    key = (
        metric, _norm_tags(tags), tuple(group_by), aggregate, bool(rate),
        float(counter_width), downsample, time_range,
    )
    with tsdb.read_locked():
        series = _cached(tsdb, key, metric, time_range, lambda: _query_series(
            tsdb, metric, tags, group_by, aggregate, rate,
            counter_width, downsample, time_range,
        ))
    # fresh wrapper, shared (treat-as-immutable) series
    return QueryResult(series=list(series))


def _cached(
    store: ReadableStore, key: Tuple, metric: str,
    time_range: Optional[Tuple[int, int]], compute: Callable[[], Tuple],
) -> Tuple:
    """``compute()``, through ``store.cache``: filed under ``key`` at
    the epoch read before it runs, and served from there while no write
    touched ``metric`` inside ``time_range`` since.  Run under the
    store's read lock, the epoch, the compute and the put are one
    atomic read (:meth:`ReadableStore.read_locked`)."""
    epoch = store.epoch
    found = store.cache.get(key, epoch, lambda filed: (
        store.unchanged_since(metric, filed, time_range)))
    if found is None:
        found = compute()
        store.cache.put(key, epoch, found)
    return found


def _query_series(
    tsdb, metric, tags, group_by, aggregate, rate,
    counter_width, downsample, time_range,
) -> Tuple[ResultSeries, ...]:
    selected = tsdb.select(metric, tags)
    cols = tsdb.scan(selected, time_range)
    groups: Dict[Tuple[str, ...], List[int]] = {}
    for i, s in enumerate(selected):
        key = tuple([str(s.tags.get(g, "")) for g in group_by])
        groups.setdefault(key, []).append(i)

    # shared-grid detection: the stacked fast path applies when every
    # non-empty series sits on one common timestamp grid (the normal
    # case for cadenced monitoring data).  Series the scan read as one
    # run hand back one time column, so identity decides first; only
    # then one equal-length check plus one whole-matrix comparison, no
    # per-pair loop
    nonempty = [i for i, (t, _) in enumerate(cols) if len(t)]
    grid: Optional[np.ndarray] = None
    if nonempty:
        first = cols[nonempty[0]][0]
        n0 = len(first)
        if all([cols[i][0] is first for i in nonempty]):
            grid = first
        elif all(len(cols[i][0]) == n0 for i in nonempty):
            tmat = np.concatenate(
                [cols[i][0] for i in nonempty]
            ).reshape(len(nonempty), n0)
            if bool((tmat == tmat[0]).all()):
                grid = cols[nonempty[0]][0]

    out: List[ResultSeries] = []
    if grid is not None:
        mat = np.concatenate(
            [cols[i][1] for i in nonempty]
        ).reshape(len(nonempty), n0)
        if rate:
            grid, mat = _to_rate(grid, mat, counter_width)
        if len(grid):
            row_of = {i: r for r, i in enumerate(nonempty)}
            keys_out: List[Tuple[str, ...]] = []
            group_rows: List[List[int]] = []
            for key in sorted(groups):
                rows = [row_of[i] for i in groups[key] if i in row_of]
                if rows:
                    keys_out.append(key)
                    group_rows.append(rows)
            vmat = _aggregate_groups(mat, group_rows, aggregate)
            times = grid
            if downsample is not None:
                times, vmat = _downsample(grid, vmat, *downsample)
            for key, values in zip(keys_out, vmat):
                out.append(ResultSeries(
                    tags=dict(zip(group_by, key)), times=times,
                    values=values,
                ))
    else:
        for key in sorted(groups):
            prepared = []
            for i in groups[key]:
                t, v = cols[i]
                if rate:
                    t, m = _to_rate(t, v[None], counter_width)
                    v = m[0]
                if len(t):
                    prepared.append((t, v))
            if not prepared:
                continue
            # align on the union time grid
            union = np.unique(np.concatenate([t for t, _ in prepared]))
            mat = np.full((len(prepared), len(union)), np.nan)
            for i, (t, v) in enumerate(prepared):
                mat[i, np.searchsorted(union, t)] = v
            with np.errstate(all="ignore"):
                agg = _AGGS[aggregate](mat, axis=0)
            times, values = union, agg
            if downsample is not None:
                times, vmat = _downsample(times, agg[None], *downsample)
                values = vmat[0]
            out.append(
                ResultSeries(
                    tags=dict(zip(group_by, key)), times=times,
                    values=values,
                )
            )
    return tuple(out)


def _norm_tags(tags: Optional[Mapping[str, object]]) -> Tuple:
    """Hashable, order-insensitive normalisation of tag filters."""
    return tuple(
        sorted(
            (
                str(k),
                tuple(sorted(str(a) for a in want))
                if isinstance(want, (list, tuple, set))
                else (str(want),),
            )
            for k, want in (tags or {}).items()
        )
    )


def _aggregate_groups(
    mat: np.ndarray, group_rows: List[List[int]], aggregate: str
) -> np.ndarray:
    """Aggregate many row-groups of ``mat`` in one call per group size.

    Groups of equal member count gather into one ``(groups, members,
    samples)`` block and reduce along the member axis — NumPy
    evaluates that reduction exactly like ``agg(mat[rows], axis=0)``
    on each group alone (element-wise accumulation over a non-final
    axis is order-identical), so the rows of the result are
    bit-identical to the baseline's per-group matrices.  A NaN-free
    ``sum`` or ``avg`` reduces without the NaN mask (:func:`_reducer`).
    """
    out = np.empty((len(group_rows), mat.shape[1]))
    fn = _reducer(aggregate, mat)
    by_size: Dict[int, List[int]] = {}
    for gi, rows in enumerate(group_rows):
        by_size.setdefault(len(rows), []).append(gi)
    with np.errstate(all="ignore"):
        for size, gis in by_size.items():
            idx = np.asarray([group_rows[gi] for gi in gis])
            out[gis] = fn(mat[idx], axis=1)
    return out


def _downsample(
    t: np.ndarray, vmat: np.ndarray, interval: int, agg: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-interval buckets over every row of ``vmat`` at once.

    ``t`` is sorted (a scan grid or a union grid), so each bucket is
    one contiguous segment — found with one pairwise comparison, no
    sort — and the bucket structure is computed once for all rows.
    Each (row, bucket) cell gathers from the flattened matrix into one
    ``(rows × buckets, size)`` stack per distinct bucket size: one for
    pure cadenced data, two when a window clips the edge buckets.
    Row-axis reductions are independent per row, so each output row is
    bit-identical to the per-bucket reduction of that row alone.  (A
    last-axis 3-D reduce would *not* be safe here — NumPy's SIMD
    min/max path can pick the other signed zero — so the gather stays
    two-dimensional.)  A NaN-free ``sum`` or ``avg`` reduces without
    the NaN mask (:func:`_reducer`).
    """
    if agg not in _AGGS:
        raise ValueError(f"unknown downsample aggregator {agg!r}")
    n_groups, n = vmat.shape
    if n == 0:
        return t, vmat
    buckets = (t // interval) * interval
    flag = np.empty(n, dtype=bool)
    flag[0] = True
    np.not_equal(buckets[1:], buckets[:-1], out=flag[1:])
    starts = np.flatnonzero(flag)
    counts = np.append(starts[1:], n) - starts
    uniq = buckets[starts]
    flat = np.ascontiguousarray(vmat).reshape(-1)
    out = np.empty((n_groups, len(uniq)))
    fn = _reducer(agg, flat)
    rows = np.arange(n_groups, dtype=np.int64)[:, None, None] * n
    with np.errstate(all="ignore"):
        for size in set(counts.tolist()):
            sel = np.flatnonzero(counts == size)
            col = starts[sel][:, None] + np.arange(size)
            idx = (rows + col[None]).reshape(-1, size)
            out[:, sel] = fn(flat[idx], axis=1).reshape(n_groups, len(sel))
    return uniq, out


# attach as a method for ergonomic use
TimeSeriesDB.query = (
    lambda self, metric, **kw: query(self, metric, **kw)
)


# -- windowed scalar statistics ----------------------------------------------

@dataclass
class SeriesStats:
    """Scalar statistics of one series over one time window.

    ``count`` is the NaN-aware sample count (the denominator of
    ``mean``); ``points`` counts every stored sample in the window.
    ``min``/``max``/``first``/``last`` are NaN and the timestamps None
    when the window holds no (non-NaN) samples.
    """

    tags: Dict[str, str]
    points: int
    count: int
    sum: float
    min: float
    max: float
    first: float
    last: float
    first_ts: Optional[int]
    last_ts: Optional[int]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")


#: per-part partial: (points, count, sum, min, max, first, last,
#: first_ts, last_ts) — what Chunk.seal() pre-computes per chunk
_Part = Tuple[int, int, float, float, float, float, float, int, int]


def _parts(t: np.ndarray, v: np.ndarray) -> List[_Part]:
    """Partials of the ``(k, m)`` rows ``v`` over their times ``t``: the
    seal's own kernel, so a full chunk's equals its pre-aggregate."""
    m, t0, t1 = len(t), int(t[0]), int(t[-1])
    return [
        (m, count, total, lo, hi, first, last, t0, t1)
        for count, total, lo, hi, first, last in zip(*preaggregate(v))
    ]


def _head_parts(
    series: Sequence[_Series], lo: Optional[int], hi: Optional[int]
) -> List[Optional[_Part]]:
    """Each in-order series' in-window head partial (or None), one
    kernel call per (head block, lower edge): those columns share
    strictly increasing rows, which one ``searchsorted`` cuts."""
    out: List[Optional[_Part]] = [None] * len(series)
    slabs: Dict[Tuple[object, int], List[int]] = {}
    for k, s in enumerate(series):
        block = s._block
        if block.n and (a := int(block.lo[s._col])) < block.n:
            slabs.setdefault((block, a), []).append(k)
    for (block, a), ks in slabs.items():
        t = block.t[a:block.n]
        i, j = (0, len(t)) if lo is None else np.searchsorted(
            t, (lo, hi)
        ).tolist()
        if j > i:
            rows = block.v[[series[k]._col for k in ks], a + i:a + j]
            for k, part in zip(ks, _parts(t[i:j], rows)):
                out[k] = part
    return out


def _chunk_part(chunk: Chunk) -> _Part:
    """The stored pre-aggregate of a fully-covered chunk, as a part."""
    return (
        chunk.count, chunk.agg_count, chunk.agg_sum,
        chunk.agg_min, chunk.agg_max,
        chunk.v_first, chunk.v_last, chunk.t_min, chunk.t_max,
    )


def _fold_parts(tags: Dict[str, str], parts: List[_Part]) -> SeriesStats:
    """Combine time-ordered partials into one SeriesStats.

    Sums accumulate in part order (the documented association: chunk
    by chunk, oldest first), min/max fold NaN-skippingly, first/last
    come from the outermost non-empty parts.
    """
    parts = [p for p in parts if p[0]]
    if not parts:
        nan = float("nan")
        return SeriesStats(tags, 0, 0, 0.0, nan, nan, nan, nan, None, None)
    points = sum(p[0] for p in parts)
    count = sum(p[1] for p in parts)
    total = parts[0][2]
    for p in parts[1:]:
        total = total + p[2]
    mn = mx = float("nan")
    for p in parts:
        if not p[1]:
            continue  # all-NaN part contributes no extrema
        if np.isnan(mn):
            mn, mx = p[3], p[4]
        else:
            mn = mn if mn <= p[3] else p[3]
            mx = mx if mx >= p[4] else p[4]
    return SeriesStats(
        tags, points, count, total, mn, mx,
        parts[0][5], parts[-1][6], parts[0][7], parts[-1][8],
    )


def window_stats(
    tsdb: TimeSeriesDB,
    metric: str,
    tags: Optional[Mapping[str, object]] = None,
    time_range: Optional[Tuple[int, int]] = None,
) -> List[SeriesStats]:
    """Scalar statistics per selected series over ``time_range``.

    On an in-order chunked series this folds per-chunk partials in
    time order: a chunk the window fully covers contributes its
    sealed pre-aggregate — no decode at all — and only chunks cut by
    a window edge decode (through the buffer cache) and reduce their
    in-window slice.  The property suites pin the answer bit for bit
    to a full decode of every chunk
    (``tests/test_tsdb/reference.py::window_stats_reference``).
    Series with out-of-order or duplicate timestamps fall back to one
    reduction over the merged window — same statistics, single-segment
    association.  Answers are filed in the store's result cache.
    """
    key = ("window_stats", metric, _norm_tags(tags), time_range)
    with tsdb.read_locked():
        return list(_cached(tsdb, key, metric, time_range, lambda: (
            _window_stats_series(tsdb, metric, tags, time_range))))


def _window_stats_series(
    tsdb, metric, tags, time_range
) -> Tuple[SeriesStats, ...]:
    lo, hi = time_range if time_range is not None else (None, None)
    selected = tsdb.select(metric, tags)
    in_order = [s._ordered for s in selected]
    ordered = [s for s, o in zip(selected, in_order) if o]
    _, parts_of = read_chunks(
        ordered, time_range, tsdb.buffer_cache, preagg=True,
    )
    reads = iter(parts_of)
    heads = iter(_head_parts(ordered, lo, hi))
    unordered = [s for s, o in zip(selected, in_order) if not o]
    merged = iter(tsdb.scan(unordered, time_range) if unordered else ())

    # fold partials per series, oldest part first
    out: List[SeriesStats] = []
    for s, o in zip(selected, in_order):
        parts: List[_Part] = []
        if o:
            skipped = 0
            for read in next(reads):
                if isinstance(read, Chunk):
                    parts.append(_chunk_part(read))
                    skipped += 1
                    continue
                t, v = read
                i = 0 if lo is None else int(np.searchsorted(t, lo))
                j = len(t) if hi is None else int(np.searchsorted(t, hi))
                if j > i:
                    parts += _parts(t[i:j], v[None, i:j])
            head = next(heads)
            if head is not None:
                parts.append(head)
            with tsdb._stats_lock:
                tsdb.preagg_windows += 1
                tsdb.preagg_chunks_skipped += skipped
            if skipped:
                _PREAGG_SKIPS.inc(skipped)
        else:
            t, v = next(merged)
            if len(t):
                parts += _parts(t, v[None])
        out.append(_fold_parts(dict(s.tags), parts))
    return tuple(out)


TimeSeriesDB.window_stats = (
    lambda self, metric, **kw: window_stats(self, metric, **kw)
)


def correlate(a: ResultSeries, b: ResultSeries) -> float:
    """Pearson correlation of two series on their common timestamps.

    Returns NaN when fewer than three common points exist.
    """
    common, ia, ib = np.intersect1d(
        a.times, b.times, assume_unique=False, return_indices=True
    )
    if len(common) < 3:
        return float("nan")
    x, y = a.values[ia], b.values[ib]
    ok = ~(np.isnan(x) | np.isnan(y))
    if ok.sum() < 3:
        return float("nan")
    x, y = x[ok], y[ok]
    if np.std(x) == 0 or np.std(y) == 0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])
