"""Sharded streaming: a writer per shard changes no result.

Three identical fleets run side by side: the plain
:class:`~repro.stream.pipeline.StreamPipeline`, the sharded pipeline
at ``shards=1`` (the regression pin — one store behind the ring) and
at ``shards=3``.  Flags, alert ledgers, sample and point counts, and
every TSDB read must agree — the TSDB reads bit-for-bit — and every
delivery crosses the broker once.
"""

import http.client

import numpy as np
import pytest

from repro import monitoring_session, obs
from repro.cluster import JobSpec, make_app
from repro.db import Database
from repro.portal.app import PortalApp
from repro.portal.server import PortalServer
from repro.shard.stream import ShardedStreamPipeline
from repro.stream import LiveStatus, StreamPipeline
from repro.tsdb.query import query, window_stats

WAVE = (
    ("alice", "wrf", 3),
    ("mduser", "metadata_thrash", 2),
    ("bob", "namd", 2),
)


_TALLIED = (
    "repro_broker_published_total",
    "repro_daemon_published_total",
    "repro_stream_alert_sink_errors_total",
)


def _broken_sink(alert):
    raise RuntimeError("pager down")


def _run(shards):
    before = {name: obs.counter(name).total() for name in _TALLIED}
    sess = monitoring_session(nodes=8, seed=47, interval=600)
    if shards is None:
        pipe = StreamPipeline(
            sess.broker, jobs=sess.cluster.jobs, types=["mdc"]
        )
    else:
        pipe = ShardedStreamPipeline(
            sess.broker, shards=shards, jobs=sess.cluster.jobs,
            types=["mdc"],
        )
    pipe.alerts.add_sink(_broken_sink)
    pipe.start()
    for user, app, nodes in WAVE:
        sess.cluster.submit(JobSpec(
            user=user, app=make_app(app, runtime_mean=6000.0), nodes=nodes
        ))
    sess.cluster.run_for(3600)
    status = LiveStatus(pipe)  # mid-run: the wave is on the machine
    sess.cluster.run_for(11 * 3600)
    completed = pipe.finalize()
    tally = {
        name: obs.counter(name).total() - before[name] for name in _TALLIED
    }
    return pipe, completed, tally, status


@pytest.fixture(scope="module")
def tallied_runs():
    return _run(None), _run(1), _run(3)


@pytest.fixture(scope="module")
def runs(tallied_runs):
    return tuple((pipe, completed) for pipe, completed, *_ in tallied_runs)


def test_sample_and_point_counts_agree(runs):
    (plain, _), (one, _), (three, _) = runs
    assert plain.samples == one.samples == three.samples > 0
    assert plain.points == one.points == three.points > 0
    assert (plain.tsdb.n_points() == one.tsdb.n_points()
            == three.tsdb.n_points())
    assert (plain.tsdb.n_series() == one.tsdb.n_series()
            == three.tsdb.n_series())


def test_flags_and_alerts_agree(runs):
    (plain, c_plain), (one, c_one), (three, c_three) = runs
    assert sorted(c_plain) == sorted(c_one) == sorted(c_three)
    for jid in c_plain:
        want = sorted(c_plain[jid].final_flags)
        assert sorted(c_one[jid].final_flags) == want, jid
        assert sorted(c_three[jid].final_flags) == want, jid
    def ledger(p):
        return sorted((a.rule, a.jobid, a.fired_at) for a in p.alerts.ledger)
    assert ledger(one) == ledger(three) == ledger(plain) != []


def test_tsdb_reads_bit_identical(runs):
    (plain, _), (one, _), (three, _) = runs
    for kw in (
        {"group_by": ("host",)},
        {"rate": True, "group_by": ("host", "event")},
        {"rate": True, "downsample": (1800, "avg")},
    ):
        want = query(plain.tsdb, "stats", **kw)
        assert want.series
        for pipe in (one, three):
            got = pipe.query("stats", **kw)
            assert len(got.series) == len(want.series), kw
            for a, b in zip(got.series, want.series):
                assert a.tags == b.tags, kw
                assert np.array_equal(a.times, b.times), kw
                assert np.array_equal(
                    np.asarray(a.values).view(np.uint64),
                    np.asarray(b.values).view(np.uint64),
                ), kw


def test_window_stats_bit_identical(runs):
    (plain, _), (one, _), (three, _) = runs
    want = [repr(s) for s in window_stats(plain.tsdb, "stats")]
    assert [repr(s) for s in one.window_stats("stats")] == want
    assert [repr(s) for s in three.window_stats("stats")] == want


def test_live_status_reads_the_sharded_store_alike(tallied_runs):
    plain, one, three = (status for *_, status in tallied_runs)
    assert len(plain.hosts) == 8
    assert len(plain.busy_hosts()) == sum(nodes for _, _, nodes in WAVE)
    assert plain.fs_pressure() > 5_000
    assert one.hosts == three.hosts == plain.hosts


def test_partitioning_actually_happened(runs):
    _, _, (three, _) = runs
    spread = three.shard_points()
    assert sorted(spread) == [0, 1, 2]
    assert sum(1 for n in spread.values() if n > 0) >= 2, spread
    # every host's series sit on the ring owner's shard store
    for k, store in three.tsdb.backend.stores.items():
        for s in store.select("stats"):
            assert three.map.place(s.tags["host"]) == k


def test_each_delivery_crosses_the_broker_once(tallied_runs):
    for pipe, _, tally, _ in tallied_runs:
        assert tally["repro_broker_published_total"] > 0
        assert (tally["repro_broker_published_total"]
                == tally["repro_daemon_published_total"])
        # one tap: no partitioned exchange, no per-shard queue
        broker = pipe.broker
        names = list(broker.stats()["queues"]) + list(broker._exchanges)
        assert not [n for n in names if n.startswith("tacc_stats_shard")]


def test_raising_sink_counted_once_per_alert(tallied_runs):
    for pipe, _, tally, _ in tallied_runs:
        assert (tally["repro_stream_alert_sink_errors_total"]
                == len(pipe.alerts.ledger) > 0)


def test_live_cache_invalidation_tracks_feed_writes(runs):
    _, _, (three, _) = runs
    r1 = three.query("stats", group_by=("host",))
    hits_before = three.tsdb.cache.hits
    r2 = three.query("stats", group_by=("host",))
    assert three.tsdb.cache.hits == hits_before + 1
    assert len(r1.series) == len(r2.series)


# -- reads that bypass the pipeline's own methods ------------------------------

def _feed(shards):
    """A small live fleet; ``shards=None`` is the plain pipeline."""
    sess = monitoring_session(nodes=4, seed=29, interval=600)
    kw = dict(jobs=sess.cluster.jobs, types=["mdc"])
    if shards is None:
        pipe = StreamPipeline(sess.broker, **kw)
    else:
        pipe = ShardedStreamPipeline(sess.broker, shards=shards, **kw)
    pipe.start()
    sess.cluster.submit(JobSpec(
        user="alice", app=make_app("wrf", runtime_mean=6000.0), nodes=2
    ))
    return sess, pipe


def _bits(result):
    return [
        (s.tags, s.times.tolist(),
         np.asarray(s.values).view(np.uint64).tolist())
        for s in result.series
    ]


def test_query_over_the_sharded_store_sees_the_newest_rows():
    """``query(pipe.tsdb, ...)`` is how the portal reads a live feed: a
    result cached before a delivery must not answer after it."""
    (plain_sess, plain), (sess, sharded) = _feed(None), _feed(3)
    kw = {"group_by": ("host",), "rate": True}
    for _ in range(2):
        plain_sess.cluster.run_for(3600)
        sess.cluster.run_for(3600)
        want = query(plain.tsdb, "stats", **kw)
        assert want.series
        assert _bits(query(sharded.tsdb, "stats", **kw)) == _bits(want)


def test_portal_over_a_sharded_feed_shows_the_new_epoch():
    sess, pipe = _feed(3)
    sess.cluster.run_for(3600)
    server = PortalServer(PortalApp(Database(), stream=pipe), workers=2)
    host, port = server.start_background()

    def page():
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/tsdb?group_by=host")
            resp = conn.getresponse()
            assert resp.status == 200
            return resp.read()
        finally:
            conn.close()

    try:
        epoch = pipe.tsdb.epoch
        assert f"store epoch {epoch} ".encode() in page()
        sess.cluster.run_for(600)
        assert pipe.tsdb.epoch > epoch
        assert f"store epoch {pipe.tsdb.epoch} ".encode() in page()
    finally:
        server.close()
