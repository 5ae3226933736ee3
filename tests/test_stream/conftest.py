"""Shared fixture: one multi-day fleet driven through the live path.

``soak_run`` is the expensive one — a 2-day daemon-mode run with the
:class:`~repro.stream.pipeline.StreamPipeline` attached, followed by a
batch ingest of the same store.  Everything trace- or alert-related is
snapshotted into plain structures at fixture time, so later tests (and
other modules calling ``obs.reset()``) cannot disturb it.  Treat every
field as read-only.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import monitoring_session, obs
from repro.cluster import JobSpec, make_app
from repro.core.daemon import EXCHANGE
from repro.db import Database
from repro.pipeline import ingest_jobs
from repro.pipeline.records import JobRecord
from repro.stream import StreamPipeline

#: a mix that trips most of the §V-A flag set, split into two waves so
#: the stream sees jobs start and end across a day boundary
WAVE1 = (
    ("alice", "wrf", 4, "normal"),
    ("mduser", "metadata_thrash", 2, "normal"),
    ("idleuser", "idle_half", 2, "normal"),
    ("erin", "largemem_misuse", 1, "largemem"),
)
WAVE2 = (
    ("ptruser", "hicpi", 2, "normal"),
    ("crashuser", "crasher", 2, "normal"),
    ("bob", "namd", 2, "normal"),
)


def _submit(cluster, wave):
    for user, app, nodes, queue in wave:
        fail = 0.5 if app == "crasher" else 0.0
        cluster.submit(JobSpec(
            user=user,
            app=make_app(app, runtime_mean=4000.0, fail_prob=fail),
            nodes=nodes,
            queue=queue,
        ))


@pytest.fixture(scope="session")
def soak_run():
    """Two simulated days through the live pipeline, then batch ingest."""
    obs.reset()
    sess = monitoring_session(nodes=6, seed=23, largemem_nodes=1)
    obs.set_clock(sess.cluster.clock.now)

    # an extra tap on the stats exchange records every delivery —
    # headers, and (body, delivery time) for replays into an oracle —
    # independently of what the pipeline consumes
    probe_headers = []
    probe_deliveries = []

    def probe(ch, d):
        probe_headers.append(dict(d.message.headers))
        probe_deliveries.append(
            (str(d.message.headers["host"]), d.message.body, d.delivered_at)
        )

    sess.broker.declare_queue("stats_probe")
    sess.broker.bind("stats_probe", EXCHANGE, "stats.#")
    sess.broker.channel().basic_consume("stats_probe", probe, auto_ack=True)

    stream = StreamPipeline(
        sess.broker, jobs=sess.cluster.jobs, types=["mdc"]
    )
    stream.start()

    _submit(sess.cluster, WAVE1)
    sess.cluster.run_for(24 * 3600)
    _submit(sess.cluster, WAVE2)
    sess.cluster.run_for(24 * 3600)

    ledger_before_finalize = list(stream.alerts.ledger)
    completed = stream.finalize()

    # snapshots that must survive other modules' obs.reset()
    spans = obs.get_tracer().spans()
    hist = obs.get_registry().get("repro_stream_flag_latency_sim_seconds")
    metrics = {
        "samples": obs.counter("repro_stream_samples_total").total(),
        "points": obs.counter("repro_stream_points_total").total(),
        "alerts": obs.counter("repro_stream_alerts_total").total(),
        "inflight": obs.gauge("repro_stream_jobs_inflight").value(),
        "latency_count": sum(
            hist.count(**dict(k)) for k in hist.label_keys()
        ) if hist is not None else 0,
    }

    db = Database()
    result = ingest_jobs(sess.store, sess.cluster.jobs, db)
    JobRecord.bind(db)
    batch_flags = {
        r.jobid: sorted(r.flags or []) for r in JobRecord.objects.all()
    }
    return SimpleNamespace(
        sess=sess,
        stream=stream,
        completed=completed,
        ledger_before_finalize=ledger_before_finalize,
        spans=spans,
        headers=probe_headers,
        deliveries=probe_deliveries,
        metrics=metrics,
        result=result,
        batch_flags=batch_flags,
    )
