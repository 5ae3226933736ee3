"""Sharded vs single-process: bit-identical on a real fleet corpus.

The acceptance bar of the scale-out: every query the portal issues
against a :class:`~repro.shard.ShardedTSDB` — at shard counts 1, 3
and 7, in-process or through spawned worker processes — returns
results bit-identical to one :class:`~repro.tsdb.store.TimeSeriesDB`
loaded with the same archived fleet day.  ``shards=1`` is the
regression pin that makes ``--shards`` safe to ship defaulted off.
"""

import numpy as np
import pytest

from repro.shard import ShardedTSDB, ShardWorkerDied, StoreSource
from repro.tsdb import TimeSeriesDB, ingest_store, window_stats
from repro.tsdb.query import query
from tests.test_tsdb.reference import stats_bytes, window_stats_reference

from .conftest import CHUNK_SIZE, TYPES

#: the query battery: a cross-section of what §VI-A / the portal use
QUERIES = [
    {},
    {"aggregate": "avg"},
    {"group_by": ("host",)},
    {"group_by": ("host", "event")},
    {"tags": {"event": "reqs"}, "group_by": ("host",)},
    {"rate": True},
    {"rate": True, "counter_width": 2.0**32, "group_by": ("event",)},
    {"downsample": (3600, "avg")},
    {"rate": True, "downsample": (3600, "avg"), "group_by": ("host",)},
]


@pytest.fixture(scope="module")
def single(fleet_day):
    db = TimeSeriesDB(chunk_size=CHUNK_SIZE)
    n = ingest_store(db, fleet_day.store, types=TYPES)
    assert n > 0 and db.n_chunks() > 50
    return db


@pytest.fixture(scope="module", params=[1, 3, 7])
def sharded(request, fleet_day):
    db = ShardedTSDB(shards=request.param, chunk_size=CHUNK_SIZE)
    report = db.ingest(StoreSource(fleet_day.store.root), types=TYPES)
    assert report.points > 0
    return db


def assert_bit_identical(ra, rb, ctx=""):
    assert len(ra.series) == len(rb.series), ctx
    for a, b in zip(ra.series, rb.series):
        assert a.tags == b.tags, ctx
        assert np.array_equal(a.times, b.times), ctx
        assert np.array_equal(
            np.asarray(a.values, dtype=np.float64).view(np.uint64),
            np.asarray(b.values, dtype=np.float64).view(np.uint64),
        ), ctx


@pytest.mark.parametrize(
    "kw", QUERIES, ids=[str(sorted(q)) for q in QUERIES]
)
def test_query_battery_bit_identical(single, sharded, kw):
    want = query(single, "stats", **kw)
    assert want.series, f"empty result would prove nothing: {kw}"
    for attempt in ("cold", "warm"):  # warm pass reads the result cache
        got = sharded.query("stats", **kw)
        assert_bit_identical(
            got, want, ctx=f"shards={sharded.n_shards}/{attempt}/{kw}"
        )


def test_windowed_queries_bit_identical(single, sharded):
    t0 = min(s.arrays()[0][0] for s in single.select("stats"))
    t1 = max(s.arrays()[0][-1] for s in single.select("stats"))
    span = int(t1 - t0)
    windows = [
        (int(t0) + span // 3, int(t0) + span // 2 + 17),
        (int(t0) - 10_000, int(t1) + 10_000),
        (int(t1) + 1, int(t1) + 2),  # empty window
    ]
    for window in windows:
        for kw in (
            {"group_by": ("host",)},
            {"rate": True, "downsample": (1800, "avg")},
        ):
            want = query(single, "stats", time_range=window, **kw)
            got = sharded.query("stats", time_range=window, **kw)
            assert_bit_identical(got, want, ctx=f"{window} {kw}")


def test_window_stats_identical(single, sharded):
    t0 = min(s.arrays()[0][0] for s in single.select("stats"))
    t1 = max(s.arrays()[0][-1] for s in single.select("stats"))
    mid = (int(t0) + int(t1)) // 2
    for time_range in (None, (int(t0), mid), (mid, int(t1) + 1)):
        want = window_stats_reference(
            single, "stats", time_range=time_range, use_preagg=False
        )
        for got in (
            window_stats(single, "stats", time_range=time_range),
            sharded.window_stats("stats", time_range=time_range),
        ):
            assert [repr(s) for s in got] == [repr(s) for s in want]
            assert stats_bytes(got) == stats_bytes(want)


def test_point_and_series_counts_match(single, sharded):
    assert sharded.n_points() == single.n_points()
    assert sharded.n_series() == single.n_series()


def test_select_order_matches_single_store(single, sharded):
    want = [(s.metric, tuple(sorted(s.tags.items())))
            for s in single.select("stats")]
    got = [(h.metric, h.key) for h in sharded.select("stats")]
    assert got == want


def test_cache_serves_repeat_queries(sharded):
    sharded.query("stats", group_by=("host",))
    before = sharded.cache.hits
    sharded.query("stats", group_by=("host",))
    assert sharded.cache.hits == before + 1
    # a write invalidates
    sharded.put("stats", {"host": "zz-cache-probe"}, -1000, 1.0)
    sharded.query("stats", group_by=("host",))
    assert sharded.cache.hits == before + 1
    # prune only the (ancient) probe point so the corpus the other
    # tests read stays untouched; its emptied series vanishes with it
    sharded.prune(-999, "stats")
    assert not [
        h for h in sharded.select("stats")
        if h.tags.get("host") == "zz-cache-probe"
    ]


# -- the multi-process pool ---------------------------------------------------

@pytest.fixture(scope="module")
def pooled(fleet_day):
    db = ShardedTSDB(shards=4, workers=2, chunk_size=CHUNK_SIZE)
    report = db.ingest(StoreSource(fleet_day.store.root), types=TYPES)
    assert report.points > 0 and report.workers == 2
    yield db
    db.close()


# the transport acceptance matrix: every shard/worker combination.  The
# ids keep the "-arena" suffix of a deleted third axis (the reply arena,
# then the write window), so the suite's test names stay the same.
POOL_MATRIX = [(s, w) for s in (1, 3, 7) for w in (1, 2)]


@pytest.fixture(
    scope="module",
    params=POOL_MATRIX,
    ids=[f"s{s}-w{w}-arena" for s, w in POOL_MATRIX],
)
def pooled_matrix(request, fleet_day):
    shards, workers = request.param
    db = ShardedTSDB(shards=shards, workers=workers, chunk_size=CHUNK_SIZE)
    report = db.ingest(StoreSource(fleet_day.store.root), types=TYPES)
    assert report.points > 0 and report.workers == workers
    yield db
    db.close()


def test_pool_query_battery_bit_identical(single, pooled_matrix):
    for kw in QUERIES:
        want = query(single, "stats", **kw)
        got = pooled_matrix.query("stats", **kw)
        assert_bit_identical(got, want, ctx=f"pool/{kw}")


def test_pool_window_stats_identical(single, pooled_matrix):
    want = window_stats(single, "stats")
    got = pooled_matrix.window_stats("stats")
    assert [repr(s) for s in got] == [repr(s) for s in want]


def test_pool_scatter_covers_all_workers(pooled):
    stats = pooled.shard_stats()
    assert sorted(stats) == [0, 1, 2, 3]
    assert sum(r["points"] for r in stats.values()) == pooled.n_points()
    # both workers hold data (8 hosts over 4 shards: ring spread)
    per_worker = [
        sum(stats[s]["points"] for s in sids)
        for sids in pooled.backend.assignment
    ]
    assert all(n >= 0 for n in per_worker) and sum(per_worker) > 0


def test_dead_worker_is_detected_and_respawnable(fleet_day):
    db = ShardedTSDB(shards=4, workers=2, chunk_size=CHUNK_SIZE)
    source = StoreSource(fleet_day.store.root)
    db.ingest(source, types=TYPES)
    # cached under the pre-death epoch
    full = db.query("stats", group_by=("host",))
    victim = 0
    lost_shards = db.backend.assignment[victim]
    db.backend._procs[victim].terminate()
    db.backend._procs[victim].join()
    with pytest.raises(ShardWorkerDied) as err:
        db.window_stats("stats")
    assert err.value.worker == victim
    assert sorted(err.value.shards) == sorted(lost_shards)
    # respawn comes back empty, and says so: the cached pre-death
    # result must not be served for series that are no longer there
    assert db.respawn(victim) == sorted(lost_shards)
    survivors = db.query("stats", group_by=("host",))
    assert 0 < len(survivors) < len(full)
    assert all(
        db.map.place(s.tags["host"]) not in lost_shards
        for s in survivors.series
    )
    # re-ingest restores full service
    hosts = [
        h for h in source.hosts()
        if db.map.place(h) in set(lost_shards)
    ]
    db.ingest(source, hosts=hosts, types=TYPES)
    single = TimeSeriesDB(chunk_size=CHUNK_SIZE)
    ingest_store(single, fleet_day.store, types=TYPES)
    want = window_stats(single, "stats")
    got = db.window_stats("stats")
    assert [repr(s) for s in got] == [repr(s) for s in want]
    db.close()
