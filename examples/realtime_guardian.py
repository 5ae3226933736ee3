#!/usr/bin/env python
"""§VI-A/§VI-B: interference forensics and the real-time guardian.

Scenario: a metadata storm erupts on a shared Lustre filesystem.

* Without intervention, every other job's MDS wait times inflate —
  the time-series database pins the blame on the storm user
  (paper §VI-A: "a particular user's metadata requests ... could be
  related to other users' increased Lustre operation wait times").
* With the guardian armed — the stream pipeline's metadata-storm
  alert wired to a suspend sink — the offending job is identified
  from the live daemon stream and suspended within a couple of
  sampling intervals, protecting the bystanders (paper §VI-B).

Run:  python examples/realtime_guardian.py
"""

from repro import monitoring_session
from repro.analysis.timeseries import interference_report
from repro.cluster import JobSpec, make_app
from repro.metrics.flags import Thresholds
from repro.stream import StreamPipeline, suspend_sink
from repro.tsdb import TimeSeriesDB, ingest_store

STORM = "high_metadata_rate"  # the §V-A flag the guardian acts on


def build(guardian: bool, seed: int = 99):
    sess = monitoring_session(
        nodes=10, seed=seed, shared_filesystem=True, mds_capacity=40_000
    )
    c = sess.cluster
    stream = None
    if guardian:
        stream = StreamPipeline(
            sess.broker, jobs=c.jobs,
            thresholds=Thresholds(metadata_rate=50_000),
        )
        stream.alerts.add_sink(suspend_sink(c))
        # the administrator's page: after the suspend sink, so it can
        # say what was done
        stream.alerts.add_sink(
            lambda a: a.rule == STORM and print(
                f"  [guardian] t+{a.fired_at - c.clock.epoch}s: "
                f"job {a.jobid} at {a.value:,.0f} req/s -> "
                f"{c.jobs[a.jobid].status or 'notified only'}"
            )
        )
        stream.start()
    storm = c.submit(JobSpec(
        user="eve",
        app=make_app("wrf_pathological", runtime_mean=8000.0,
                     fail_prob=0.0, runtime_sigma=0.02),
        nodes=4,
    ))
    bystanders = [
        c.submit(JobSpec(
            user=u,
            app=make_app(app, runtime_mean=9000.0, fail_prob=0.0,
                         runtime_sigma=0.02),
            nodes=2,
        ))
        for u, app in (("alice", "openfoam"), ("bob", "io_heavy"),
                       ("carol", "namd"))
    ]
    c.run_for(5 * 3600)
    return sess, storm, bystanders, stream


def bystander_wait(sess, bystanders):
    """Average MDC wait (us/req) observed across bystander nodes."""
    total_wait = total_reqs = 0.0
    for job in bystanders:
        for host in job.assigned_nodes:
            node = sess.cluster.nodes[host]
            sess.cluster.catch_up(host)
            row = node.tree.read_all()["mdc"]["scratch-MDT0000-mdc"]
            idx = node.tree.devices["mdc"].schema.index
            total_wait += row[idx["wait_us"]]
            total_reqs += row[idx["reqs"]]
    return total_wait / max(total_reqs, 1.0)


def main() -> None:
    print("--- run 1: no guardian (the §VI-A forensics case) ---")
    sess, storm, bystanders, _ = build(guardian=False)
    wait_unprotected = bystander_wait(sess, bystanders)
    print(f"storm job ran to completion: {storm.status}")
    print(f"bystander MDC wait: {wait_unprotected:,.0f} us/req")

    tsdb = TimeSeriesDB()
    ingest_store(tsdb, sess.store, types=["mdc"])
    rep = interference_report(tsdb, sess.cluster.jobs, "eve")
    print(
        f"TSDB forensics for user eve: corr={rep.correlation:.2f}, "
        f"bystander wait inflation={rep.wait_inflation:.1f}x, "
        f"load share={rep.load_share:.0%} -> implicated={rep.implicated}"
    )
    for innocent in ("alice", "carol"):
        r = interference_report(tsdb, sess.cluster.jobs, innocent)
        print(f"  control ({innocent}): load share={r.load_share:.1%} "
              f"-> implicated={r.implicated}")

    print("\n--- run 2: guardian armed (the §VI-B automation) ---")
    sess2, storm2, bystanders2, stream = build(guardian=True)
    wait_protected = bystander_wait(sess2, bystanders2)
    d = next(a for a in stream.alerts.ledger if a.rule == STORM)
    print(f"storm job final state: {storm2.status}")
    print(f"detection latency: {d.fired_at - storm2.start_time}s "
          f"({(d.fired_at - storm2.start_time) / 600:.1f} sampling intervals)")
    print(f"bystander MDC wait: {wait_protected:,.0f} us/req")
    print(f"\n=> suspension cut bystander wait by "
          f"{wait_unprotected / max(wait_protected, 1):,.1f}x")


if __name__ == "__main__":
    main()
