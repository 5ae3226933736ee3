"""End-to-end self-telemetry: the pipeline watching itself.

Drives small simulated deployments and asserts the obs registry and
tracer fill with the counters/spans ISSUE acceptance requires — and
that the paper's fleet-overhead figure recomputed *from spans* lands
within 2x of the closed-form model.
"""

import pytest

from repro import cron_session, monitoring_session, obs
from repro.cluster import JobSpec, make_app
from repro.core.overhead import measured_fleet_overhead, predicted_overhead
from repro.db import Database
from repro.pipeline import ingest_jobs


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_clock(None)
    yield
    obs.reset()
    obs.set_clock(None)


def run_daemon_day(tmp_path, hours=3, nodes=2):
    sess = monitoring_session(
        nodes=nodes, seed=7, interval=600, store_dir=str(tmp_path / "store")
    )
    obs.set_clock(sess.cluster.clock.now)
    sess.cluster.submit(JobSpec(
        user="alice",
        app=make_app("wrf", runtime_mean=1800.0, fail_prob=0.0),
        nodes=nodes,
    ))
    sess.cluster.run_for(hours * 3600)
    return sess


def test_collector_and_broker_counters_fill(tmp_path):
    sess = run_daemon_day(tmp_path)
    assert obs.counter("repro_collector_collections_total").total() > 0
    assert obs.counter("repro_daemon_published_total").total() > 0
    assert obs.counter("repro_broker_published_total").total() > 0
    assert obs.counter("repro_broker_delivered_total").total() > 0
    # every daemon publish reached the broker; deliveries may lag by
    # whatever was still in flight (broker latency) at sim end
    assert (
        obs.counter("repro_broker_published_total").total()
        == obs.counter("repro_daemon_published_total").total()
    )
    assert (
        obs.counter("repro_broker_delivered_total").total()
        <= obs.counter("repro_daemon_published_total").total()
    )
    # stamps come from the sim clock, inside the simulated window
    c = obs.counter("repro_collector_collections_total")
    assert c.updated_at() is not None
    assert c.updated_at() <= sess.cluster.clock.now()


def test_collector_spans_carry_overhead_attrs(tmp_path):
    run_daemon_day(tmp_path)
    spans = obs.get_tracer().spans("collector.collect")
    assert spans
    for s in spans:
        assert s.attrs["core_seconds"] == pytest.approx(0.09)
        assert isinstance(s.attrs["sim_time"], int)
        assert s.attrs["node"]


def test_measured_overhead_within_2x_of_predicted(tmp_path):
    sess = run_daemon_day(tmp_path, hours=6)
    node = next(iter(sess.cluster.nodes.values()))
    cores = node.tree.arch.cores
    measured = measured_fleet_overhead(cores)
    predicted = predicted_overhead(
        600, cores, sess.collector.overhead.collect_seconds
    )
    assert measured > 0
    # prolog/epilog collections push measured above the periodic-only
    # model; the ISSUE acceptance bound is a factor of two
    assert predicted / 2 <= measured <= predicted * 2
    # and the span-derived figure agrees with the model's own ledger
    elapsed = sess.cluster.clock.now() - sess.cluster.clock.epoch
    ledger = sess.collector.overhead.fleet_overhead_fraction(cores, elapsed)
    assert measured == pytest.approx(ledger, rel=0.5)


def test_ingest_counters_and_stage_timings(tmp_path):
    sess = run_daemon_day(tmp_path, hours=4)
    result = ingest_jobs(sess.store, sess.cluster.jobs, Database())
    assert result.ingested >= 1
    assert obs.counter("repro_ingest_jobs_total").value() >= 1
    assert (
        obs.counter("repro_ingest_rows_committed_total").total()
        == result.ingested
    )
    h = obs.histogram("repro_ingest_stage_seconds")
    for stage in ("parse", "assemble", "accumulate", "metrics", "insert"):
        assert h.count(stage=stage) >= 1, stage
    tracer = obs.get_tracer()
    assert tracer.count("ingest.parse") == 1
    (run_span,) = tracer.spans("ingest.run")
    assert run_span.attrs["ingested"] == result.ingested


def test_cron_counters_fill(tmp_path):
    sess = cron_session(
        nodes=2, seed=3, interval=600, store_dir=str(tmp_path / "cron")
    )
    obs.set_clock(sess.cluster.clock.now)
    sess.cluster.submit(JobSpec(
        user="bob",
        app=make_app("namd", runtime_mean=1800.0, fail_prob=0.0),
        nodes=2,
    ))
    sess.cluster.run_for(30 * 3600)  # crosses a midnight rotation+rsync
    assert obs.counter("repro_cron_rsync_attempts_total").total() > 0
    assert obs.counter("repro_cron_synced_samples_total").total() > 0
    assert (
        obs.counter("repro_cron_synced_samples_total").total()
        == sess.cron.synced_samples
    )


def test_quarantine_counter_tracks_store_ledger(tmp_path):
    sess = run_daemon_day(tmp_path, hours=2)
    victim = sess.store.hosts()[0]
    with open(sess.store.path_for(victim), "a") as fh:
        fh.write("cpu 0 not-a-number x y z\n")
    list(sess.store.samples(victim))  # tolerant parse → quarantine
    counted = obs.counter("repro_ingest_quarantined_lines_total")
    assert counted.value(host=victim) == len(sess.store.quarantined[victim])


def test_render_text_after_sim_is_nonempty(tmp_path):
    run_daemon_day(tmp_path, hours=2)
    text = obs.render_text()
    assert "repro_collector_collections_total" in text
    assert "repro_broker_delivered_total" in text
    assert "repro_obs_span_seconds" in text
