"""Frozen references for the TSDB equivalence tests.

Pieces of displaced production code, kept verbatim in behaviour so
their replacements in ``src/`` have an oracle:

* :class:`ListBackedTSDB` — the storage engine the chunked columnar
  store replaced (``src/repro/tsdb/baseline.py`` until PR 18): per-point
  appends into Python lists, lazily materialised to sorted deduplicated
  NumPy arrays, pruning by list rebuild.  It stands on its own
  overrides of every entry point that touches a series' points, so the
  production store owes it nothing;
* :func:`baseline_query` — the query implementation the vectorised
  kernels in :mod:`repro.tsdb.query` replaced: one series at a time,
  scatter alignment onto the union grid, and a Python loop per
  downsample bucket.  It takes no shortcuts, consults no caches and
  touches no pre-aggregates, which is what makes it a trustworthy
  oracle;
* :func:`_to_rate_ref` and :func:`downsample_1d` — the one-row
  rate and downsample kernels ``repro.tsdb.query`` kept beside their
  matrix forms for the union-grid path, which now calls the matrix
  kernels on one row;
* :func:`seal_1d` — the one-column chunk encoder ``Chunk.seal`` used to
  be (one Python round-trip per series), returning the chunk's slots as
  a dict;
* :func:`ingest_file_reference` — the per-sample loader ``ingest_file``
  used to be (``RawFileParser`` walked sample by sample, every point
  appended to Python lists).  It is an oracle for *data* — which series
  exist and what each holds, bit for bit — not for how the data gets
  there: it makes one ``put_many`` per series where ``ingest_file``
  makes one per block, so call counts and ``epoch`` differ by design.

Do not "fix" or speed these up: they are the specification.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.counters import correct_rollover
from repro.tsdb.store import SeriesGroup, TimeSeriesDB, _tagkey
from tests.test_core.reference import ReferenceRawFileParser

#: every Chunk slot the encoder decides (``chunk_id`` is a process-wide
#: serial number, not a property of the data)
CHUNK_FIELDS = (
    "t_min", "t_max", "count", "t_step",
    "agg_count", "agg_sum", "agg_min", "agg_max", "v_first", "v_last",
    "_t_lens", "_t_payload", "_v_lens", "_v_payload",
)


def assert_same_chunk(chunk, ref, where=None) -> None:
    """``chunk`` equals ``ref`` (a :func:`seal_1d` dict or another
    chunk) on every slot but ``chunk_id``: same types, floats compared
    by their 8 bytes so NaN payloads and signed zeros count."""
    for name in CHUNK_FIELDS:
        new = getattr(chunk, name)
        old = ref[name] if isinstance(ref, dict) else getattr(ref, name)
        if isinstance(old, float):
            same = isinstance(new, float) and (
                struct.pack("<d", new) == struct.pack("<d", old)
            )
        else:
            same = type(new) is type(old) and new == old
        assert same, (where, name, new, old)


_THRESH = (
    np.uint64(1) << (np.uint64(8) * np.arange(8, dtype=np.uint64))
) - np.uint64(1)


def _byte_lengths(words: np.ndarray) -> np.ndarray:
    return (words[:, None] > _THRESH[None, :]).sum(axis=1).astype(np.int64)


def _pack_nibbles(lens: np.ndarray) -> bytes:
    if len(lens) % 2:
        lens = np.append(lens, 0)
    lo = lens[0::2].astype(np.uint8)
    hi = lens[1::2].astype(np.uint8)
    return (lo | (hi << 4)).tobytes()


def _encode_words(words: np.ndarray) -> Tuple[bytes, bytes]:
    lens = _byte_lengths(words)
    starts = np.empty(len(words), dtype=np.int64)
    if len(words):
        starts[0] = 0
        np.cumsum(lens[:-1], out=starts[1:])
    payload = np.zeros(int(lens.sum()), dtype=np.uint8)
    for j in range(8):
        m = lens > j
        if not m.any():
            break
        payload[starts[m] + j] = (
            (words[m] >> np.uint64(8 * j)) & np.uint64(0xFF)
        ).astype(np.uint8)
    return _pack_nibbles(lens), payload.tobytes()


def _zigzag(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64, copy=False)
    return (np.left_shift(v, 1) ^ np.right_shift(v, 63)).view(np.uint64)


def seal_1d(times, values) -> Dict[str, object]:
    """The pre-PR-13 ``Chunk.seal`` body; returns ``CHUNK_FIELDS``."""
    t = np.asarray(times, dtype=np.int64)
    v = np.asarray(values, dtype=np.float64)
    if len(t) == 0:
        raise ValueError("cannot seal an empty chunk")
    if len(t) != len(v):
        raise ValueError("time/value columns differ in length")
    if len(t) > 1 and not (t[1:] > t[:-1]).all():
        raise ValueError("chunk timestamps must be strictly increasing")

    t_step: Optional[int] = None
    if len(t) == 1:
        t_step = 0
        t_lens = t_payload = b""
    else:
        d = np.diff(t)
        if (d == d[0]).all():
            t_step = int(d[0])
            t_lens = t_payload = b""
        else:
            dod = np.empty(len(t), dtype=np.int64)
            dod[0] = t[0]
            dod[1] = d[0]
            dod[2:] = d[1:] - d[:-1]
            t_lens, t_payload = _encode_words(_zigzag(dod))

    words = v.view(np.uint64)
    xored = words.copy()
    xored[1:] ^= words[:-1]
    v_lens, v_payload = _encode_words(xored)

    agg_count = int(np.count_nonzero(~np.isnan(v)))
    agg_sum = float(np.nansum(v))
    if agg_count:
        with np.errstate(all="ignore"):
            agg_min = float(np.nanmin(v))
            agg_max = float(np.nanmax(v))
    else:
        agg_min = agg_max = float("nan")

    return {
        "t_min": int(t[0]), "t_max": int(t[-1]), "count": len(t),
        "t_step": t_step,
        "agg_count": agg_count, "agg_sum": agg_sum,
        "agg_min": agg_min, "agg_max": agg_max,
        "v_first": float(v[0]), "v_last": float(v[-1]),
        "_t_lens": t_lens, "_t_payload": t_payload,
        "_v_lens": v_lens, "_v_payload": v_payload,
    }


def ingest_file_reference(
    tsdb,
    host: str,
    fh,
    types: Optional[Iterable[str]] = None,
    metric: str = "stats",
) -> Tuple[int, int]:
    """The pre-PR-13 ``ingest_file`` body: per-sample gather."""
    wanted = set(types) if types is not None else None
    parser = ReferenceRawFileParser()
    #: (type, device, event) → ([ts...], [value...])
    columns: Dict[Tuple[str, str, str], Tuple[list, list]] = {}
    samples = 0
    for sample in parser.parse(fh):
        samples += 1
        for type_name, per_inst in sample.data.items():
            if wanted is not None and type_name not in wanted:
                continue
            schema = parser.schemas.get(type_name)
            if schema is None:
                continue
            names = schema.names()
            for device, values in per_inst.items():
                for i, event in enumerate(names):
                    col = columns.get((type_name, device, event))
                    if col is None:
                        col = columns[
                            (type_name, device, event)
                        ] = ([], [])
                    col[0].append(sample.timestamp)
                    col[1].append(float(values[i]))
    n = 0
    for (type_name, device, event), (ts_col, val_col) in columns.items():
        n += tsdb.put_many(
            metric,
            {
                "host": host,
                "type": type_name,
                "device": device,
                "event": event,
            },
            ts_col,
            val_col,
        )
    return n, samples


# -- the list engine and the loop-based query ---------------------------------

@dataclass
class ListSeries:
    """Growable-list series with lazy sorted-array materialisation."""

    metric: str
    tags: Dict[str, str]
    #: ``window_stats`` takes its one-reduction path for a list series
    _ordered = False
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
    """A :class:`TimeSeriesDB` storing series as growable lists.

    Index, selection and introspection are the production store's; every
    method that reads or writes a series' points is overridden here.
    """

    def _list_series(self, metric: str, tags: Mapping[str, str]) -> ListSeries:
        key = (metric, _tagkey(tags))
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = ListSeries(metric=metric, tags=dict(tags))
            self._by_metric[metric].add(key)
            for k, v in s.tags.items():
                self._index[k][str(v)].add(key)
        return s

    def put(self, metric, tags, ts, value) -> None:
        with self.write_locked():
            self._list_series(metric, tags).add(ts, value)
            self.epoch += 1

    def put_many(self, metric, tags, times, values) -> int:
        if isinstance(tags, SeriesGroup):
            t = np.asarray(times, dtype=np.int64)
            v = np.asarray(values, dtype=np.float64)
            if v.size == 0:
                return 0
            with self.write_locked():
                for tag_set, column in zip(tags.tag_sets, v.T):
                    self._list_series(metric, tag_set).extend(t, column)
                self.epoch += 1
            return v.size
        if len(times) == 0:
            return 0
        with self.write_locked():
            n = self._list_series(metric, tags).extend(
                np.asarray(times), np.asarray(values)
            )
            if n:
                self.epoch += 1
        return n

    def prune(self, before: int, metric: Optional[str] = None) -> int:
        with self.write_locked():
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
        """Lists are never sealed."""

    def scan(self, series_list, time_range=None):
        with self.read_locked():
            return [s.arrays(time_range) for s in series_list]


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


def downsample_1d(
    t: np.ndarray, v: np.ndarray, interval: int, agg: str
) -> Tuple[np.ndarray, np.ndarray]:
    """The vectorised one-row downsample: each bucket is a contiguous
    segment of the sorted ``t``, and buckets sharing a size reduce as
    one ``(buckets, size)`` gather (reference copy)."""
    if agg not in _AGGS_REF:
        raise ValueError(f"unknown downsample aggregator {agg!r}")
    if len(t) == 0:
        return t, v
    buckets = (t // interval) * interval
    flag = np.empty(len(t), dtype=bool)
    flag[0] = True
    np.not_equal(buckets[1:], buckets[:-1], out=flag[1:])
    starts = np.flatnonzero(flag)
    counts = np.append(starts[1:], len(t)) - starts
    uniq = buckets[starts]
    out = np.empty(len(uniq))
    fn = _AGGS_REF[agg]
    with np.errstate(all="ignore"):
        for size in set(counts.tolist()):
            sel = np.flatnonzero(counts == size)
            gathered = v[starts[sel][:, None] + np.arange(size)]
            out[sel] = fn(gathered, axis=1)
    return uniq, out


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
