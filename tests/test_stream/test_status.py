"""Live status: online monitoring read off the stream's own store."""

import pytest

from repro import monitoring_session
from repro.broker import Broker
from repro.cluster import JobSpec, make_app
from repro.core.daemon import EXCHANGE
from repro.stream import LiveStatus, StreamPipeline


@pytest.fixture(scope="module")
def live_run():
    sess = monitoring_session(nodes=6, seed=41, tick=300)
    stream = StreamPipeline(sess.broker, jobs=sess.cluster.jobs)
    stream.start()
    #: every delivery the stream saw, to feed a second pipeline
    bodies = []
    sess.broker.declare_queue("recorder")
    sess.broker.bind("recorder", EXCHANGE, "stats.#")
    sess.broker.channel().basic_consume(
        "recorder",
        lambda ch, d: bodies.append((d.message.body, d.message.headers)),
        auto_ack=True,
    )
    busy = sess.cluster.submit(JobSpec(
        user="alice",
        app=make_app("namd", runtime_mean=20_000.0, fail_prob=0.0,
                     runtime_sigma=0.02),
        nodes=3, requested_runtime=30_000,
    ))
    storm = sess.cluster.submit(JobSpec(
        user="eve",
        app=make_app("metadata_thrash", runtime_mean=20_000.0,
                     fail_prob=0.0, runtime_sigma=0.02),
        nodes=2, requested_runtime=30_000,
    ))
    sess.cluster.run_for(2 * 3600)
    return sess, stream, LiveStatus(stream), busy, storm, bodies


def test_all_hosts_reporting(live_run):
    sess, stream, status, busy, storm, bodies = live_run
    assert len(status.hosts) == 6
    assert len(bodies) > 6 * 10


def test_busy_hosts_tracked(live_run):
    sess, stream, status, busy, storm, _ = live_run
    expected = sorted(busy.assigned_nodes + storm.assigned_nodes)
    assert status.busy_hosts() == expected


def test_per_host_rates_sane(live_run):
    sess, stream, status, busy, storm, _ = live_run
    h = status.hosts[busy.assigned_nodes[0]]
    assert 0.5 < h.cpu_user_frac <= 1.0
    assert h.gflops > 1.0
    assert h.updated_at > 0
    idle_host = next(
        name for name in status.hosts
        if name not in busy.assigned_nodes + storm.assigned_nodes
    )
    assert status.hosts[idle_host].cpu_user_frac < 0.05


def test_job_rates_aggregate_over_hosts(live_run):
    sess, stream, status, busy, storm, _ = live_run
    rates = status.job_rates(busy.jobid)
    assert rates["hosts"] == 3
    assert rates["cpu_user_frac"] > 0.5
    storm_rates = status.job_rates(storm.jobid)
    assert storm_rates["mdc_reqs_per_s"] > 5_000
    assert status.job_rates("nope") == {}


def test_cluster_views(live_run):
    sess, stream, status, busy, storm, _ = live_run
    assert 0.2 < status.cluster_utilization() < 1.0
    assert status.fs_pressure() > 5_000
    text = status.render_text()
    assert "live status" in text
    assert busy.assigned_nodes[0] in text


def test_status_is_realtime_not_rsync(live_run):
    """The status' freshness equals the broker latency, not hours."""
    sess, stream, status, busy, storm, _ = live_run
    newest = max(h.updated_at for h in status.hosts.values())
    assert sess.cluster.now() - newest < 660  # within one interval


def test_status_holds_no_state_of_its_own(live_run):
    """Mid-run status ≡ the status of a second pipeline fed the same
    deliveries: everything it shows is in the store and the analyzer."""
    sess, stream, status, busy, storm, bodies = live_run
    replay = Broker()
    second = StreamPipeline(replay, jobs=sess.cluster.jobs)
    second.start()
    channel = replay.channel()
    for body, headers in bodies:
        channel.basic_publish(
            EXCHANGE, f"stats.{headers['host']}", body, headers=headers
        )
    assert second.samples == stream.samples
    assert LiveStatus(second).hosts == status.hosts
    # and reading twice is reading the same thing
    assert LiveStatus(stream).hosts == status.hosts
