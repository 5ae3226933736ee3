"""Retention: rollup correctness, data-clock pruning, bounded memory."""

import pytest

from repro import obs
from repro.stream.retention import (
    RetainingWriter,
    RetentionPolicy,
    RetentionTier,
)
from repro.tsdb import TimeSeriesDB

TAGS = {"host": "n1", "type": "mdc", "device": "t", "event": "reqs"}


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def test_tier_validation():
    with pytest.raises(ValueError):
        RetentionTier(interval=0, horizon=3600)
    with pytest.raises(ValueError):
        RetentionTier(interval=600, horizon=3600, aggregate="median")


def test_rollup_metric_naming():
    tier = RetentionTier(interval=3600, horizon=86400, aggregate="avg")
    assert tier.rollup_metric("stats") == "stats.avg3600s"
    assert RetentionTier(600, 3600, "max").rollup_metric("m") == "m.max600s"


def test_raw_points_write_through():
    db = TimeSeriesDB()
    w = RetainingWriter(db, RetentionPolicy(
        raw_horizon=10**9, tiers=(), prune_interval=10**9
    ))
    for i in range(5):
        w.put("stats", TAGS, i * 600, float(i))
    s = db.select("stats")[0]
    t, v = s.arrays()
    assert list(t) == [0, 600, 1200, 1800, 2400]
    assert list(v) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_rollup_bucket_values_per_aggregate():
    db = TimeSeriesDB()
    policy = RetentionPolicy(
        raw_horizon=10**9,
        tiers=(
            RetentionTier(600, 10**9, "avg"),
            RetentionTier(600, 10**9, "max"),
            RetentionTier(600, 10**9, "sum"),
            RetentionTier(600, 10**9, "min"),
        ),
        prune_interval=10**9,
    )
    w = RetainingWriter(db, policy)
    for ts, val in ((0, 2.0), (100, 4.0), (599, 6.0), (600, 10.0)):
        w.put("stats", TAGS, ts, val)
    w.flush()

    def point(metric):
        (s,) = db.select(metric)
        return list(zip(*[a.tolist() for a in s.arrays()]))

    assert point("stats.avg600s") == [(0, 4.0), (600, 10.0)]
    assert point("stats.max600s") == [(0, 6.0), (600, 10.0)]
    assert point("stats.sum600s") == [(0, 12.0), (600, 10.0)]
    assert point("stats.min600s") == [(0, 2.0), (600, 10.0)]
    assert w.rollup_points == 8
    assert obs.counter("repro_stream_rollup_points_total").total() == 8


def test_rollup_buckets_keyed_per_series():
    db = TimeSeriesDB()
    policy = RetentionPolicy(
        raw_horizon=10**9,
        tiers=(RetentionTier(600, 10**9, "avg"),),
        prune_interval=10**9,
    )
    w = RetainingWriter(db, policy)
    other = dict(TAGS, host="n2")
    w.put("stats", TAGS, 0, 1.0)
    w.put("stats", other, 0, 9.0)
    w.flush()
    res = db.select("stats.avg600s")
    assert len(res) == 2
    by_host = {s.tags["host"]: s.arrays()[1][0] for s in res}
    assert by_host == {"n1": 1.0, "n2": 9.0}


def test_pruning_follows_the_data_clock():
    db = TimeSeriesDB()
    policy = RetentionPolicy(
        raw_horizon=3600,
        tiers=(RetentionTier(600, 7200, "avg"),),
        prune_interval=600,
    )
    w = RetainingWriter(db, policy)
    for i in range(40):  # 4h of data at 600s cadence
        w.put("stats", TAGS, i * 600, float(i))
    w.flush()
    now = 39 * 600
    raw_t, _ = db.select("stats")[0].arrays()
    assert raw_t.min() >= now - policy.raw_horizon - policy.prune_interval
    roll_t, _ = db.select("stats.avg600s")[0].arrays()
    assert roll_t.min() >= now - 7200 - policy.prune_interval
    # rollups outlive raw points
    assert roll_t.min() < raw_t.min()
    assert w.pruned > 0
    assert obs.counter(
        "repro_stream_points_pruned_total"
    ).total() == w.pruned


def test_rollups_keep_their_horizon_after_their_raw_metric_is_gone():
    """``a`` stops at 4 h while ``b`` goes on: once ``a``'s raw points
    are pruned (after 6 h) its three hourly rollups are still rollups,
    kept for the tier's 48 h — not pruned at the 2 h raw horizon — and
    no pass is issued for a rollup of a rollup."""
    db = TimeSeriesDB()
    hour = 3600
    policy = RetentionPolicy(
        raw_horizon=2 * hour,
        tiers=(RetentionTier(hour, 48 * hour, "avg"),),
        prune_interval=hour,
    )
    w = RetainingWriter(db, policy)
    pruned_metrics = []
    real_prune = db.prune
    db.prune = lambda before, metric=None: (
        pruned_metrics.append(metric), real_prune(before, metric))[1]

    def rollup_times(metric):
        return [s.arrays()[0].tolist() for s in db.select(metric)]

    for ts in range(0, 51 * hour + 1, 600):
        if ts < 4 * hour:
            w.put("a", TAGS, ts, 1.0)
        w.put("b", TAGS, ts, 2.0)
        if ts in (7 * hour, 48 * hour):
            assert "a" not in db.metrics()
            assert rollup_times("a.avg3600s") == [[0, hour, 2 * hour]], ts
    assert "a.avg3600s" not in db.metrics()
    assert rollup_times("b.avg3600s")[0][0] >= 3 * hour
    assert "a.avg3600s" in pruned_metrics
    assert not [m for m in pruned_metrics if m.endswith(".avg3600s.avg3600s")]


def test_memory_stays_bounded_on_a_long_run():
    db = TimeSeriesDB()
    policy = RetentionPolicy(
        raw_horizon=3600,
        tiers=(RetentionTier(600, 7200, "avg"),),
        prune_interval=600,
    )
    w = RetainingWriter(db, policy)
    sizes = []
    for i in range(500):
        w.put("stats", TAGS, i * 600, float(i))
        sizes.append(db.n_points())
    # after warm-up the point count plateaus instead of growing with i
    assert max(sizes[100:]) <= max(sizes[:100]) + 2


def test_tsdb_prune_removes_empty_series_and_index_entries():
    db = TimeSeriesDB()
    db.put("m", {"host": "old"}, 0, 1.0)
    db.put("m", {"host": "new"}, 5000, 2.0)
    dropped = db.prune(1000)
    assert dropped == 1
    assert db.n_series() == 1
    assert db.tag_values("host") == ["new"]
    assert db.select("m", {"host": "old"}) == []


def test_tsdb_prune_metric_filter():
    db = TimeSeriesDB()
    db.put("a", {"host": "n1"}, 0, 1.0)
    db.put("b", {"host": "n1"}, 0, 1.0)
    assert db.prune(100, metric="a") == 1
    assert db.metrics() == ["b"]
    assert db.tag_values("host") == ["n1"]  # still referenced by "b"
