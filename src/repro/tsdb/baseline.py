"""The original list engine and loop-based query — golden references.

Two generations of read path are frozen here, verbatim in behaviour:

* :class:`ListBackedTSDB` — the storage engine the chunked columnar
  store replaced: per-point appends into Python lists, lazily
  materialised to sorted deduplicated NumPy arrays, pruning by list
  rebuild.
* :func:`baseline_query` — the query implementation the vectorised
  kernels in :mod:`repro.tsdb.query` replaced: one series at a time,
  scatter alignment onto the union grid, and a Python loop per
  downsample bucket.  It takes no shortcuts, consults no caches and
  touches no pre-aggregates, which is what makes it a trustworthy
  oracle.

They stay in the tree for two jobs:

* the **equivalence suite** (``tests/test_stream/test_tsdb_equivalence``
  and ``tests/test_tsdb``) proves the chunked engine's query results
  are bit-identical to this implementation on the multi-day soak
  corpus — with the decoded-buffer cache on and off, at any scan
  thread count;
* the **benchmarks** (``benchmarks/test_tsdb_engine.py``) report
  write throughput, at-rest bytes/point and cold p50/p95/p99 query
  latency against it.

Do not use either on the hot path — that is the point of the new
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.counters import correct_rollover
from repro.tsdb.store import TimeSeriesDB

__all__ = ["ListSeries", "ListBackedTSDB", "baseline_query"]


@dataclass
class ListSeries:
    """Growable-list series with lazy sorted-array materialisation."""

    metric: str
    tags: Dict[str, str]
    chunk_size: int = 0  # accepted for interface parity; unused
    _times: List[int] = field(default_factory=list)
    _values: List[float] = field(default_factory=list)
    _arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def add(self, ts: int, value: float) -> None:
        self._times.append(int(ts))
        self._values.append(float(value))
        self._arrays = None

    def extend(self, times: np.ndarray, values: np.ndarray) -> int:
        t = np.asarray(times, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times/values must be aligned 1-d columns")
        self._times.extend(t.tolist())
        self._values.extend(v.tolist())
        self._arrays = None
        return len(t)

    def arrays(
        self, time_range: Optional[Tuple[int, int]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            t = np.asarray(self._times, dtype=np.int64)
            v = np.asarray(self._values, dtype=np.float64)
            order = np.argsort(t, kind="stable")
            # last write wins for duplicate timestamps
            t, v = t[order], v[order]
            if len(t) > 1:
                keep = np.append(t[1:] != t[:-1], True)
                t, v = t[keep], v[keep]
            self._arrays = (t, v)
        t, v = self._arrays
        if time_range is not None:
            lo, hi = time_range
            m = (t >= lo) & (t < hi)
            t, v = t[m], v[m]
        return t, v

    def prune(self, before: int) -> int:
        """Drop points older than ``before``; returns points dropped."""
        if not self._times or min(self._times) >= before:
            return 0
        kept = [
            (t, v)
            for t, v in zip(self._times, self._values)
            if t >= before
        ]
        dropped = len(self._times) - len(kept)
        self._times = [t for t, _ in kept]
        self._values = [v for _, v in kept]
        self._arrays = None
        return dropped

    def drop_read_cache(self) -> None:
        """Forget the materialised arrays (cold-read benchmarking)."""
        self._arrays = None

    @property
    def chunks(self) -> tuple:
        return ()

    @property
    def nbytes(self) -> int:
        """At-rest cost: one int64 + one float64 per raw point."""
        return 16 * len(self._times)

    def __len__(self) -> int:
        return len(self._times)


class ListBackedTSDB(TimeSeriesDB):
    """A :class:`TimeSeriesDB` storing series as growable lists."""

    series_cls = ListSeries


# -- the frozen reference query path ------------------------------------------

_AGGS_REF = {
    "sum": np.nansum,
    "avg": np.nanmean,
    "max": np.nanmax,
    "min": np.nanmin,
}


def _to_rate_ref(
    t: np.ndarray, v: np.ndarray, width: float = 2.0**64
) -> Tuple[np.ndarray, np.ndarray]:
    """Counter series → per-interval rates (reference copy)."""
    if len(t) < 2:
        return t[:0], v[:0]
    dt = np.diff(t).astype(np.float64)
    dv = correct_rollover(np.diff(v), v[1:], width)
    return t[1:], dv / np.maximum(dt, 1e-300)


def _downsample_ref(
    t: np.ndarray, v: np.ndarray, interval: int, agg: str
) -> Tuple[np.ndarray, np.ndarray]:
    """One Python loop per bucket — slow, simple, and the oracle."""
    if agg not in _AGGS_REF:
        raise ValueError(f"unknown downsample aggregator {agg!r}")
    if len(t) == 0:
        return t, v
    buckets = (t // interval) * interval
    uniq, inverse = np.unique(buckets, return_inverse=True)
    out = np.full(len(uniq), np.nan)
    for i in range(len(uniq)):
        vals = v[inverse == i]
        with np.errstate(all="ignore"):
            out[i] = _AGGS_REF[agg](vals)
    return uniq, out


def baseline_query(
    tsdb: TimeSeriesDB,
    metric: str,
    tags: Optional[Mapping[str, object]] = None,
    group_by: Sequence[str] = (),
    aggregate: str = "sum",
    rate: bool = False,
    counter_width: float = 2.0**64,
    downsample: Optional[Tuple[int, str]] = None,
    time_range: Optional[Tuple[int, int]] = None,
):
    """The pre-vectorisation query path, kept verbatim as an oracle.

    Same semantics and signature as :func:`repro.tsdb.query.query`,
    minus every fast path: no result cache, no batched scan, no
    shared-grid stacking, no pre-aggregates — one series at a time
    through scatter alignment, one Python iteration per downsample
    bucket.  Works against any engine (it only needs ``select`` and
    per-series ``arrays``).
    """
    from repro.tsdb.query import QueryResult, ResultSeries

    if aggregate not in _AGGS_REF:
        raise ValueError(
            f"unknown aggregator {aggregate!r}; use {_AGGS_REF}"
        )
    selected = tsdb.select(metric, tags)
    groups: Dict[Tuple[str, ...], List] = {}
    for s in selected:
        key = tuple(str(s.tags.get(g, "")) for g in group_by)
        groups.setdefault(key, []).append(s)

    out: List[ResultSeries] = []
    for key in sorted(groups):
        members = groups[key]
        prepared = []
        for s in members:
            t, v = s.arrays(time_range)
            if rate:
                t, v = _to_rate_ref(t, v, counter_width)
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
            agg = _AGGS_REF[aggregate](mat, axis=0)
        times, values = union, agg
        if downsample is not None:
            times, values = _downsample_ref(times, values, *downsample)
        out.append(
            ResultSeries(
                tags=dict(zip(group_by, key)), times=times, values=values
            )
        )
    return QueryResult(series=out)
