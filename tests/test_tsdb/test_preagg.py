"""Property suite for sealed per-chunk pre-aggregates (ISSUE 6).

Two invariants, checked bit-for-bit on arbitrary float series —
including NaN, ±inf, ±0.0, denormals, duplicate timestamps and
last-write-wins rewrites that straddle seal boundaries:

* ``Chunk.seal()`` pre-aggregates always equal the same reductions
  recomputed from ``decode()`` (decode is bit-exact, so the stored
  numbers *are* the decode-time numbers);
* ``window_stats`` answered from pre-aggregates is bit-identical to
  the full-decode answer (the frozen
  ``window_stats_reference(..., use_preagg=False)``) and to a
  materialise-and-reduce pass over the flat list engine, for any
  window placement.

"Bit-identical" throughout means comparing IEEE-754 bit patterns
(``float64.tobytes()``), so NaN==NaN and -0.0!=+0.0.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import TimeSeriesDB, window_stats
from tests.test_tsdb.reference import ListBackedTSDB, window_stats_reference
from repro.tsdb.chunks import Chunk

# adversarial float pool: signed zeros, NaN, infinities, extremes
SPECIALS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    1e308, -1e308, 5e-324, -5e-324, 1.5, -2.75,
]

values_st = st.lists(
    st.one_of(
        st.sampled_from(SPECIALS),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    ),
    min_size=1,
    max_size=120,
)

#: (timestamp, value) writes in arrival order; duplicate timestamps
#: are allowed and later writes win
writes_st = st.lists(
    st.tuples(
        st.integers(0, 400),
        st.one_of(
            st.sampled_from(SPECIALS),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
        ),
    ),
    min_size=1,
    max_size=150,
)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def _recompute(v: np.ndarray):
    cnt = int(np.count_nonzero(~np.isnan(v)))
    s = float(np.nansum(v))
    if cnt:
        with np.errstate(all="ignore"):
            mn, mx = float(np.nanmin(v)), float(np.nanmax(v))
    else:
        mn = mx = float("nan")
    return cnt, s, mn, mx


@given(values_st)
@settings(max_examples=120, deadline=None)
def test_seal_preaggregates_equal_decode_recompute(values):
    v = np.asarray(values, dtype=np.float64)
    t = np.arange(len(v), dtype=np.int64) * 7 + 1000
    chunk = Chunk.seal(t, v)
    dt, dv = chunk.decode()
    assert np.array_equal(dt, t)
    assert np.array_equal(dv.view(np.uint64), v.view(np.uint64))
    cnt, s, mn, mx = _recompute(dv)
    assert chunk.agg_count == cnt
    assert bits(chunk.agg_sum) == bits(s)
    assert bits(chunk.agg_min) == bits(mn)
    assert bits(chunk.agg_max) == bits(mx)
    assert bits(chunk.v_first) == bits(dv[0])
    assert bits(chunk.v_last) == bits(dv[-1])
    assert (chunk.t_min, chunk.t_max) == (int(dt[0]), int(dt[-1]))


@given(values_st, st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_irregular_timestamps_roundtrip(values, gap_mod):
    """Chunks without a constant cadence keep an encoded dod stream."""
    v = np.asarray(values, dtype=np.float64)
    gaps = (np.arange(len(v), dtype=np.int64) % gap_mod) + 1
    t = np.cumsum(gaps) + 12_345
    chunk = Chunk.seal(t, v)
    if len(v) > 2 and len(set(np.diff(t).tolist())) > 1:
        assert chunk.t_step is None
    dt, dv = chunk.decode()
    assert np.array_equal(dt, t)
    assert np.array_equal(dv.view(np.uint64), v.view(np.uint64))


def _stats_key(st_):
    return (
        st_.points, st_.count, st_.first_ts, st_.last_ts,
        bits(st_.sum), bits(st_.min), bits(st_.max),
        bits(st_.first), bits(st_.last),
    )


@given(writes_st, st.integers(0, 420), st.integers(0, 420))
@settings(max_examples=120, deadline=None)
def test_window_stats_preagg_vs_decode_vs_list(writes, w_lo, w_hi):
    """For arbitrary writes (duplicates, LWW across seal boundaries)
    and arbitrary window placement, the three answers are one."""
    lo, hi = min(w_lo, w_hi), max(w_lo, w_hi) + 1
    # tiny chunks force seals mid-stream, so rewrites of an already
    # sealed timestamp exercise last-write-wins across the boundary
    db = TimeSeriesDB(chunk_size=8)
    flat = ListBackedTSDB()
    for ts, val in writes:
        db.put("stats", {"host": "a"}, ts, val)
        flat.put("stats", {"host": "a"}, ts, val)
    db.seal_heads()

    res = window_stats(db, "stats", time_range=(lo, hi))
    decoded = window_stats_reference(
        db, "stats", time_range=(lo, hi), use_preagg=False
    )
    assert len(res) == len(decoded) == 1
    got = _stats_key(res[0])
    assert got == _stats_key(decoded[0])

    t, v = flat.select("stats")[0].arrays((lo, hi))
    if len(t) == 0:
        assert got[0] == 0
        return
    cnt, s, mn, mx = _recompute(v)
    assert got == (
        len(t), cnt, int(t[0]), int(t[-1]),
        bits(s), bits(mn), bits(mx), bits(v[0]), bits(v[-1]),
    )


@given(writes_st)
@settings(max_examples=60, deadline=None)
def test_full_history_summary_uses_preaggs_and_matches(writes):
    """The /fleet page's unwindowed summary: sealed chunks answer from
    pre-aggregates alone, and still match the flat-list recompute."""
    db = TimeSeriesDB(chunk_size=8)
    flat = ListBackedTSDB()
    for ts, val in writes:
        db.put("stats", {"host": "a"}, ts, val)
        flat.put("stats", {"host": "a"}, ts, val)
    db.seal_heads()
    before = db.preagg_chunks_skipped
    res = window_stats(db, "stats")
    # out-of-order/duplicate arrivals drop a series off the ordered fast
    # path; only ordered series answer sealed chunks from pre-aggregates
    n_sealed = sum(len(s.chunks) for s in db.select("stats") if s._ordered)
    assert db.preagg_chunks_skipped - before == n_sealed

    t, v = flat.select("stats")[0].arrays()
    cnt, s, mn, mx = _recompute(v)
    assert _stats_key(res[0]) == (
        len(t), cnt, int(t[0]), int(t[-1]),
        bits(s), bits(mn), bits(mx), bits(v[0]), bits(v[-1]),
    )


@given(writes_st, st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_query_matches_baseline_on_arbitrary_data(writes, n_series):
    """query() vs the frozen baseline path on arbitrary adversarial
    data spread across several series (shared + disjoint grids)."""
    from tests.test_tsdb.reference import baseline_query
    from repro.tsdb.query import query

    db = TimeSeriesDB(chunk_size=8)
    flat = ListBackedTSDB()
    for i, (ts, val) in enumerate(writes):
        tags = {"host": f"h{i % n_series}"}
        db.put("stats", tags, ts, val)
        flat.put("stats", tags, ts, val)
    db.seal_heads()
    for kw in (
        {},
        {"aggregate": "min"},
        {"group_by": ("host",)},
        {"downsample": (16, "max")},
    ):
        ra = query(db, "stats", **kw)
        rb = baseline_query(flat, "stats", **kw)
        assert len(ra) == len(rb), kw
        for sa, sb in zip(ra.series, rb.series):
            assert sa.tags == sb.tags, kw
            assert np.array_equal(sa.times, sb.times), kw
            assert np.array_equal(
                sa.values.view(np.uint64), sb.values.view(np.uint64)
            ), kw


#: the matrices the shared-grid path reduces: NaN-free ones take the
#: dense sum and mean, the others the NaN-skipping forms
_GRID_CELLS = {
    "finite": st.floats(-1e6, 1e6),
    "nan": st.one_of(st.floats(-1e6, 1e6), st.just(float("nan"))),
    "zeros": st.sampled_from([0.0, -0.0]),
    "inf": st.one_of(st.floats(-1e6, 1e6),
                     st.sampled_from([float("inf"), float("-inf")])),
}


@given(kind=st.sampled_from(sorted(_GRID_CELLS)), data=st.data())
@settings(max_examples=16, deadline=None)
def test_shared_grid_reductions_match_baseline(kind, data):
    """Series on one grid, every aggregator under every downsample
    aggregator, whole and windowed: bit-identical to the frozen
    baseline, warning nothing it does not."""
    from tests.test_tsdb.reference import baseline_query
    from repro.tsdb.query import query

    n_series, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 30))
    cells = data.draw(st.lists(_GRID_CELLS[kind], min_size=n_series * n,
                               max_size=n_series * n))
    t = np.arange(n, dtype=np.int64) * 60
    db, flat = TimeSeriesDB(chunk_size=8), ListBackedTSDB()
    for i, row in enumerate(np.array(cells).reshape(n_series, n)):
        for store in (db, flat):
            store.put_many("stats", {"host": f"h{i}", "rack": str(i % 2)},
                           t, row)
    db.seal_heads()
    for aggregate in ("sum", "avg", "max", "min"):
        for downsample in (None, (180, "sum"), (180, "avg"), (180, "max"),
                           (180, "min")):
            for time_range in (None, (60, 60 * n - 60)):
                kw = {"aggregate": aggregate, "downsample": downsample,
                      "group_by": ("rack",), "time_range": time_range}
                warned = []
                for run in (lambda: query(db, "stats", **kw),
                            lambda: baseline_query(flat, "stats", **kw)):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        warned.append((run(), {
                            (w.category, str(w.message)) for w in caught
                        }))
                (ra, got), (rb, want) = warned
                assert got <= want, kw
                assert len(ra) == len(rb), kw
                for sa, sb in zip(ra.series, rb.series):
                    assert sa.tags == sb.tags, kw
                    assert np.array_equal(sa.times, sb.times), kw
                    assert np.array_equal(
                        sa.values.view(np.uint64), sb.values.view(np.uint64)
                    ), kw


def test_preagg_skip_counter_and_mean():
    """Deterministic spot-checks: skip accounting and the mean helper."""
    db = TimeSeriesDB(chunk_size=4)
    t = np.arange(16, dtype=np.int64)
    v = np.where(t % 3 == 0, np.nan, t.astype(np.float64))
    db.put_many("stats", {"host": "a"}, t, v)
    db.seal_heads()
    res = window_stats(db, "stats", time_range=(0, 16))
    assert db.preagg_chunks_skipped == 4
    st_ = res[0]
    assert st_.points == 16
    assert st_.count == int(np.count_nonzero(~np.isnan(v)))
    assert st_.mean == st_.sum / st_.count
    empty = window_stats(db, "stats", time_range=(100, 200))[0]
    assert empty.points == 0 and np.isnan(empty.mean)
    assert empty.first_ts is None and empty.last_ts is None
