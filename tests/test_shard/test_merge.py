"""Partial-aggregate merge: edge cases and the sharding property.

The scatter-gather contract is that merging per-shard partial
aggregates is invisible: ``window_stats`` (and ``query``) on a
:class:`~repro.shard.ShardedTSDB` must be *bit-identical* — IEEE-754
bit patterns, so NaN==NaN and -0.0!=+0.0 — to the same call on one
:class:`~repro.tsdb.store.TimeSeriesDB` holding the same writes, at
**any** shard count.  Deterministic cases pin the awkward corners
(empty shards, all-NaN and ±inf runs, single-point shards); the
hypothesis property then drives arbitrary float series through
arbitrary shard counts and window placements.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ShardedTSDB
from repro.tsdb import TimeSeriesDB, window_stats
from repro.tsdb.query import query
from tests.test_tsdb.reference import window_stats_reference

CHUNK = 8  # tiny: several seals even in small examples

SPECIALS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    1e308, -1e308, 5e-324, -5e-324, 1.5, -2.75,
]


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_stats_identical(got, want, ctx=""):
    assert len(got) == len(want), ctx
    for a, b in zip(got, want):
        assert a.tags == b.tags, ctx
        assert a.points == b.points and a.count == b.count, ctx
        for f in ("sum", "min", "max", "first", "last"):
            assert bits(getattr(a, f)) == bits(getattr(b, f)), (
                f"{ctx}: {f} {getattr(a, f)!r} != {getattr(b, f)!r}"
            )
        assert a.first_ts == b.first_ts and a.last_ts == b.last_ts, ctx


def _pair(shards, writes):
    """The same writes into a single store and a sharded one."""
    single = TimeSeriesDB(chunk_size=CHUNK)
    sharded = ShardedTSDB(shards=shards, chunk_size=CHUNK)
    for tags, t, v in writes:
        single.put_many("stats", tags, t, v)
        sharded.put_many("stats", tags, t, v)
    return single, sharded


def _check(single, sharded, time_range=None):
    want = window_stats_reference(
        single, "stats", time_range=time_range, use_preagg=False
    )
    for name, got in (
        ("single", window_stats(single, "stats", time_range=time_range)),
        ("sharded", sharded.window_stats("stats", time_range=time_range)),
    ):
        assert_stats_identical(got, want, ctx=f"{name} tr={time_range}")


# -- deterministic edge cases -------------------------------------------------

def test_empty_shards_contribute_nothing():
    """2 hosts across 8 shards: most shards hold no series at all."""
    writes = [
        ({"host": f"c00{i}-000"}, [0, 10, 20], [1.0, 2.0, 3.0])
        for i in range(2)
    ]
    single, sharded = _pair(8, writes)
    _check(single, sharded)
    assert len(sharded.window_stats("stats")) == 2


def test_fully_empty_window():
    single, sharded = _pair(4, [
        ({"host": "a"}, [100, 200], [1.0, 2.0]),
        ({"host": "b"}, [100, 200], [3.0, 4.0]),
    ])
    _check(single, sharded, time_range=(1000, 2000))
    got = sharded.window_stats("stats", time_range=(1000, 2000))
    assert all(s.count == 0 and s.first_ts is None for s in got)


def test_all_nan_series_and_nan_runs():
    nan = float("nan")
    writes = [
        ({"host": "a"}, [0, 10, 20], [nan, nan, nan]),
        ({"host": "b"}, [0, 10, 20, 30], [nan, 1.0, nan, nan]),
        ({"host": "c"}, list(range(0, 200, 10)), [nan] * 20),
    ]
    single, sharded = _pair(3, writes)
    _check(single, sharded)
    _check(single, sharded, time_range=(5, 25))


def test_inf_runs_and_signed_zero():
    inf = float("inf")
    writes = [
        ({"host": "a"}, [0, 10, 20, 30], [inf, inf, -inf, 0.0]),
        ({"host": "b"}, [0, 10], [-0.0, 0.0]),
        ({"host": "c"}, [0, 10, 20], [1e308, 1e308, -inf]),
    ]
    single, sharded = _pair(5, writes)
    _check(single, sharded)
    # -0.0 must survive the merge as -0.0
    st_b = next(
        s for s in sharded.window_stats("stats") if s.tags["host"] == "b"
    )
    assert bits(st_b.min) == bits(-0.0)


def test_single_point_shards():
    """Every series one point, every shard at most one series."""
    writes = [
        ({"host": f"h{i:02d}"}, [i * 7], [float(i) - 3.5])
        for i in range(11)
    ]
    single, sharded = _pair(16, writes)
    _check(single, sharded)
    _check(single, sharded, time_range=(10, 50))


def test_multi_series_per_host_stay_on_one_shard():
    """The partition key is (host, metric): every series of a host —
    all its types/devices/events — must land on that host's shard."""
    db = ShardedTSDB(shards=8, chunk_size=CHUNK)
    for ev in ("reqs", "wait_us", "open", "close"):
        db.put_many(
            "stats", {"host": "c001-001", "event": ev}, [0, 10], [1.0, 2.0]
        )
    owners = {h.shard for h in db.select("stats")}
    assert len(owners) == 1
    assert owners == {db.map.place("c001-001", "stats")}


def test_query_merge_edge_cases():
    """Group-by sums with NaN-only groups and misaligned grids."""
    nan = float("nan")
    writes = [
        ({"host": "a", "event": "x"}, [0, 10, 20], [1.0, nan, 3.0]),
        ({"host": "b", "event": "x"}, [5, 10, 25], [nan, 2.0, nan]),
        ({"host": "c", "event": "y"}, [0, 10, 20], [nan, nan, nan]),
    ]
    single, sharded = _pair(4, writes)
    for kw in (
        {},
        {"group_by": ("event",)},
        {"group_by": ("host",), "aggregate": "min"},
        {"rate": True, "group_by": ("event",)},
        {"downsample": (20, "avg")},
    ):
        want = query(single, "stats", **kw)
        got = sharded.query("stats", **kw)
        assert len(got.series) == len(want.series), kw
        for a, b in zip(got.series, want.series):
            assert a.tags == b.tags, kw
            assert np.array_equal(a.times, b.times), kw
            assert np.array_equal(
                np.asarray(a.values).view(np.uint64),
                np.asarray(b.values).view(np.uint64),
            ), kw


# -- the property: sharding is invisible, at any shard count ------------------

series_st = st.lists(
    st.tuples(
        st.integers(0, 9),  # host index
        st.lists(
            st.tuples(
                st.integers(0, 300),
                st.one_of(
                    st.sampled_from(SPECIALS),
                    st.floats(
                        allow_nan=True, allow_infinity=True, width=64
                    ),
                ),
            ),
            min_size=1,
            max_size=60,
        ),
    ),
    min_size=1,
    max_size=8,
)


@given(
    series=series_st,
    shards=st.integers(1, 7),
    window=st.one_of(
        st.none(),
        st.tuples(st.integers(-50, 350), st.integers(0, 200)),
    ),
)
@settings(max_examples=60, deadline=None)
def test_sharded_window_stats_bitwise_equals_unsharded(
    series, shards, window
):
    single = TimeSeriesDB(chunk_size=CHUNK)
    sharded = ShardedTSDB(shards=shards, chunk_size=CHUNK)
    for hi, writes in series:
        tags = {"host": f"h{hi}"}
        for ts, val in writes:
            single.put(
                "stats", tags, ts, val
            )
            sharded.put("stats", tags, ts, val)
    time_range = None
    if window is not None:
        lo, width = window
        time_range = (lo, lo + width)
    _check(single, sharded, time_range=time_range)
    # and the grouped-sum path over the same data
    want = query(
        single, "stats", group_by=("host",), time_range=time_range
    )
    got = sharded.query(
        "stats", group_by=("host",), time_range=time_range
    )
    assert len(got.series) == len(want.series)
    for a, b in zip(got.series, want.series):
        assert a.tags == b.tags
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(
            np.asarray(a.values).view(np.uint64),
            np.asarray(b.values).view(np.uint64),
        )
