"""E7 — §VI-B: automated real-time identification and suspension.

Paper: problem jobs are *"quickly identified and suspended before
they create system-wide slowdowns or crashes ... a system
administrator notified immediately upon identification"*.

Measured here: detection latency in sampling intervals, the
administrator notification, and the benefit — bystander MDS wait with
the guardian armed vs without.
"""

import pytest

from benchmarks._support import once, report
from repro import monitoring_session
from repro.cluster import JobSpec, make_app
from repro.metrics.flags import Thresholds
from repro.stream import StreamPipeline, suspend_sink

STORM = "high_metadata_rate"


def bystander_wait_per_req(sess, users=("alice", "bob")):
    total_wait = total_reqs = 0.0
    for job in sess.cluster.jobs.values():
        if job.user not in users or not job.assigned_nodes:
            continue
        for host in job.assigned_nodes:
            sess.cluster.catch_up(host)
            node = sess.cluster.nodes[host]
            row = node.tree.read_all()["mdc"]["scratch-MDT0000-mdc"]
            idx = node.tree.devices["mdc"].schema.index
            total_wait += row[idx["wait_us"]]
            total_reqs += row[idx["reqs"]]
    return total_wait / max(total_reqs, 1.0)


def run(guardian: bool):
    sess = monitoring_session(
        nodes=10, seed=71, tick=300,
        shared_filesystem=True, mds_capacity=40_000,
    )
    c = sess.cluster
    #: (alert, the storm job's status when the administrator is paged)
    notifications = []
    if guardian:
        stream = StreamPipeline(
            sess.broker, jobs=c.jobs,
            thresholds=Thresholds(metadata_rate=50_000),
        )
        stream.alerts.add_sink(suspend_sink(c))
        stream.alerts.add_sink(
            lambda a: a.rule == STORM
            and notifications.append((a, c.jobs[a.jobid].status))
        )
        stream.start()
    storm = c.submit(JobSpec(
        user="eve",
        app=make_app("wrf_pathological", runtime_mean=9000.0,
                     fail_prob=0.0, runtime_sigma=0.02),
        nodes=4,
    ))
    for u, app in (("alice", "openfoam"), ("bob", "io_heavy")):
        c.submit(JobSpec(
            user=u, app=make_app(app, runtime_mean=9000.0, fail_prob=0.0,
                                 runtime_sigma=0.02),
            nodes=2,
        ))
    c.run_for(5 * 3600)
    return sess, storm, notifications


def test_e7_realtime_guardian(benchmark):
    (sess_off, storm_off, _), (sess_on, storm_on, notes) = once(
        benchmark, lambda: (run(False), run(True))
    )
    wait_off = bystander_wait_per_req(sess_off)
    wait_on = bystander_wait_per_req(sess_on)
    latency = notes[0][0].fired_at - storm_on.start_time
    rows = [
        ("storm outcome (no guardian)", storm_off.status, "runs to end"),
        ("storm outcome (guardian)", storm_on.status, "SUSPENDED"),
        ("detection latency", f"{latency}s "
         f"({latency / 600:.1f} intervals)", "quickly identified"),
        ("admin notified", len(notes), "immediately upon identification"),
        ("bystander MDC wait, unguarded", f"{wait_off:,.0f} us/req", "-"),
        ("bystander MDC wait, guarded", f"{wait_on:,.0f} us/req",
         "slowdown prevented"),
        ("wait reduction", f"{wait_off / max(wait_on, 1):.1f}x", ">1"),
    ]
    report("E7 — real-time detection and suspension", rows,
           ["quantity", "measured", "paper expectation"])

    assert storm_off.status == "COMPLETED"  # nobody stopped it
    assert storm_on.status == "SUSPENDED"
    assert latency <= 3 * 600 + 60
    assert [(a.jobid, status) for a, status in notes] == [
        (storm_on.jobid, "SUSPENDED")
    ]
    assert wait_off > 2.0 * wait_on  # the slowdown was prevented
