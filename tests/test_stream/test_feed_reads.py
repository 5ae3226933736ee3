"""Counter feeds are reads over the stores the pipeline writes.

A ``(type, event)`` feed of :class:`FleetAnalytics` holds exactly the
points the live stores hold for it: one value per series and
timestamp (last write wins), nothing pruned past the raw horizon,
windows placed by sample time.  ``feed_view`` sketches them on
demand; the registry's ``repro_stream_feed_sketch`` is rebuilt from
the stores on the first read after a write, and not before.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import monitoring_session, obs
from repro.core.daemon import EXCHANGE
from repro.obs.registry import MetricRegistry
from repro.obs.sketch import QuantileSketch
from repro.shard.stream import ShardedStreamPipeline
from repro.stream import StreamPipeline
from repro.stream.analytics import FleetAnalytics
from repro.stream.retention import RetainingWriter, RetentionPolicy
from repro.tsdb.store import TimeSeriesDB

MIRROR = "repro_stream_feed_sketch"


def tags(host, type_name, device, event):
    return {"host": host, "type": type_name, "device": device,
            "event": event}


def reading(*stores):
    analytics = FleetAnalytics(registry=MetricRegistry())
    analytics.attach(stores, "stats")
    return analytics


def count_reads(analytics, monkeypatch):
    """Count the store reads ``analytics`` makes from now on."""
    calls = []
    read = analytics._read

    def counted(*args, **kw):
        calls.append(args)
        return read(*args, **kw)

    monkeypatch.setattr(analytics, "_read", counted)
    return calls


def test_feed_view_groups_devices_into_feeds():
    tsdb = TimeSeriesDB()
    for host, device, t, v in (("c1", "0", 10, 1.0), ("c1", "1", 10, 3.0),
                               ("c1", "0", 20, 2.0), ("c2", "0", 10, 4.0)):
        tsdb.put("stats", tags(host, "cpu", device, "user"), t, v)
    tsdb.put("stats", tags("c1", "mem", "-", "MemUsed"), 10, 7.0)
    tsdb.put("other", tags("c1", "net", "eth0", "rx"), 10, 9.0)
    analytics = reading(tsdb)
    cpu = analytics.feed_view("cpu", "user")
    assert cpu.count == 4  # both devices of both hosts, one feed
    assert (cpu.min, cpu.max) == (1.0, 4.0)
    assert analytics.feed_view("mem", "MemUsed").count == 1
    assert analytics.feed_view("nope", "x") is None
    assert analytics.feed_view("net", "rx") is None  # another metric
    assert analytics.feeds == [("cpu", "user"), ("mem", "MemUsed")]
    assert analytics.summary()["feeds"] == ["cpu/user", "mem/MemUsed"]
    mirror = analytics.registry.sketch(MIRROR)
    assert mirror.count(type="cpu", event="user") == 4
    assert mirror.get_sketch(type="cpu", event="user").dist_state() == \
        cpu.dist_state()


point = st.tuples(
    st.sampled_from(["c1", "c2", "c3", "c4"]),
    st.sampled_from(["0", "1"]),
    st.sampled_from(["user", "idle"]),
    st.integers(0, 40),
    st.sampled_from([0.0, -1.5, 1.0, 250.0, 1e9, float("nan")]),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(point, min_size=1, max_size=40),
       st.one_of(st.none(), st.tuples(st.integers(0, 40),
                                      st.integers(0, 40))))
def test_feed_view_equals_a_sketch_of_the_stored_points(points, time_range):
    """Whatever order, duplicates or split across stores the points
    were written in, a feed is a sketch of the last value each series
    holds per timestamp inside ``[lo, hi)``."""
    one = TimeSeriesDB()
    shards = {h: TimeSeriesDB() for h in ("c1", "c2", "c3", "c4")}
    last = {}
    for host, device, event, t, v in points:
        for store in (one, shards[host]):
            store.put("stats", tags(host, "cpu", device, event), t, v)
        last[host, device, event, t] = v
    single, split = reading(one), reading(*shards.values())
    for event in ("user", "idle"):
        want = QuantileSketch()
        want.observe_many([
            v for (_, _, e, t), v in sorted(last.items())
            if e == event and (
                time_range is None or time_range[0] <= t < time_range[1])
        ])
        for analytics in (single, split):
            got = analytics.feed_view("cpu", event, time_range)
            if got is None:
                assert not any(e == event for _, _, e, _ in last)
                continue
            assert got.dist_state() == want.dist_state(), event


def test_two_obs_renders_without_a_write_rebuild_once(monkeypatch):
    tsdb = TimeSeriesDB()
    for j, event in enumerate(("user", "idle", "system")):
        tsdb.put("stats", tags("c1", "cpu", "0", event), 10, float(j))
    analytics = reading(tsdb)
    reads = count_reads(analytics, monkeypatch)
    first = analytics.registry.render_text()
    second = analytics.registry.render_text()
    assert first == second and "repro_stream_feed_sketch_count" in first
    mirror = analytics.registry.sketch(MIRROR)
    assert [mirror.count(type="cpu", event=e)
            for e in ("user", "idle", "system")] == [1, 1, 1]
    assert len(reads) == 1  # one rebuild for every read since the write


def test_a_write_after_a_read_shows_on_the_next_read(monkeypatch):
    tsdb = TimeSeriesDB()
    user = tags("c1", "cpu", "0", "user")
    tsdb.put("stats", user, 10, 1.0)
    analytics = reading(tsdb)
    reads = count_reads(analytics, monkeypatch)
    mirror = analytics.registry.sketch(MIRROR)
    assert mirror.count(type="cpu", event="user") == 1
    tsdb.put("stats", user, 20, 2.0)
    assert mirror.count(type="cpu", event="user") == 2
    assert "{event=\"user\",type=\"cpu\"} 2" in \
        analytics.registry.render_text()
    assert analytics.feed_view("cpu", "user").count == 2
    assert len(reads) == 3  # two rebuilds, one view


def test_disabled_registry_keeps_feed_views_and_skips_the_mirror():
    tsdb = TimeSeriesDB()
    analytics = reading(tsdb)
    analytics.registry.enabled = False
    tsdb.put("stats", tags("c1", "cpu", "0", "user"), 10, 3.0)
    assert analytics.feed_view("cpu", "user").count == 1
    mirror = analytics.registry.sketch(MIRROR)
    assert mirror.count(type="cpu", event="user") == 0
    analytics.registry.enabled = True  # the next read catches up
    assert mirror.count(type="cpu", event="user") == 1


def test_points_pruned_past_raw_horizon_leave_the_counts():
    tsdb = TimeSeriesDB()
    writer = RetainingWriter(tsdb, RetentionPolicy(
        raw_horizon=100, tiers=(), prune_interval=10))
    analytics = reading(tsdb)
    mirror = analytics.registry.sketch(MIRROR)
    user = tags("c1", "cpu", "0", "user")
    idle = tags("c1", "cpu", "0", "idle")
    writer.put_many("stats", user, [0, 50, 100], [1.0, 2.0, 3.0])
    writer.put("stats", idle, 0, 5.0)
    assert mirror.count(type="cpu", event="user") == 3
    writer.put("stats", user, 180, 4.0)  # prunes everything before 80
    assert writer.pruned == 3
    assert analytics.feed_view("cpu", "user").count == 2
    assert mirror.count(type="cpu", event="user") == 2
    assert analytics.feed_view("cpu", "idle") is None  # series gone
    assert mirror.count(type="cpu", event="idle") == 0
    assert analytics.feeds == [("cpu", "user")]


@pytest.fixture(scope="module")
def deliveries():
    """Six hours of a small fleet's stats deliveries."""
    obs.reset()
    sess = monitoring_session(nodes=4, seed=61, interval=600)
    out = []
    sess.broker.declare_queue("feed_tap")
    sess.broker.bind("feed_tap", EXCHANGE, "stats.#")
    sess.broker.channel().basic_consume(
        "feed_tap", lambda ch, d: out.append(d), auto_ack=True
    )
    sess.cluster.run_for(6 * 3600)
    obs.reset()
    return sess, out


def test_sharded_and_single_store_pipelines_read_equal_feeds(deliveries):
    sess, ds = deliveries
    pipes = []
    for make in (StreamPipeline,
                 lambda b, **kw: ShardedStreamPipeline(b, shards=3, **kw)):
        analytics = FleetAnalytics(registry=MetricRegistry())
        pipe = make(sess.broker, jobs=sess.cluster.jobs, analytics=analytics)
        for d in ds:
            pipe._on_delivery(None, d)
        pipe.finalize()
        pipes.append(pipe)
    single, sharded = (p.analytics for p in pipes)
    assert sum(1 for s in pipes[1]._stores() if s.n_series()) > 1
    assert single.feeds == sharded.feeds
    assert len(single.feeds) > 10
    mirrors = [a.registry.sketch(MIRROR) for a in (single, sharded)]
    lo = int(min(d.delivered_at for d in ds))
    for type_name, event in single.feeds:
        for window in (None, (lo, lo + 3 * 3600)):
            one = single.feed_view(type_name, event, window)
            three = sharded.feed_view(type_name, event, window)
            assert one.dist_state() == three.dist_state(), (type_name, event)
        samples = [m.get_sketch(type=type_name, event=event) for m in mirrors]
        assert samples[0].dist_state() == samples[1].dist_state()
        assert samples[0].count == single.feed_view(type_name, event).count
