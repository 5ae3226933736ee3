"""§VI-B guardian: the suspend sink on a live pipeline's alerts.

Detection is the stream's ``high_metadata_rate`` flag at the §VI-B
threshold; suspension is :func:`~repro.stream.alerts.suspend_sink`;
the administrator's page is one more sink, registered after it.
"""

import pytest

from repro import monitoring_session
from repro.cluster import JobSpec, make_app
from repro.cluster.jobs import JobState
from repro.metrics.flags import Thresholds
from repro.stream import StreamPipeline, suspend_sink

RULE = "high_metadata_rate"


def run_with_guardian(suspend=True, storm=True, seed=13):
    sess = monitoring_session(nodes=6, seed=seed, tick=300)
    c = sess.cluster
    stream = StreamPipeline(
        sess.broker, jobs=c.jobs,
        thresholds=Thresholds(metadata_rate=50_000),
    )
    if suspend:
        stream.alerts.add_sink(suspend_sink(c))
    #: (alert, was its job suspended when the administrator is paged)
    notified = []
    stream.alerts.add_sink(
        lambda a: a.rule == RULE
        and notified.append((a, c.jobs[a.jobid].status == "SUSPENDED"))
    )
    stream.start()
    app = "wrf_pathological" if storm else "wrf"
    job = c.submit(JobSpec(
        user="eve",
        app=make_app(app, runtime_mean=5000.0, fail_prob=0.0,
                     runtime_sigma=0.02),
        nodes=3,
    ))
    c.submit(JobSpec(
        user="alice",
        app=make_app("namd", runtime_mean=5000.0, fail_prob=0.0),
        nodes=2,
    ))
    c.run_for(4 * 3600)
    return sess, stream, job, notified


@pytest.fixture(scope="module")
def guarded():
    return run_with_guardian()


def storms(stream):
    return [a for a in stream.alerts.ledger if a.rule == RULE]


def test_storm_detected_and_suspended(guarded):
    sess, stream, job, notified = guarded
    detections = storms(stream)
    assert len(detections) == 1
    d = detections[0]
    assert d.jobid == job.jobid
    assert d.severity == "critical"
    assert job.state is JobState.CANCELLED
    assert job.status == "SUSPENDED"
    assert notified == [(d, True)]


def test_detection_latency_within_three_intervals(guarded):
    sess, stream, job, _ = guarded
    d = storms(stream)[0]
    # a rate needs 2 aligned samples, and a timestamp is consumed once
    # every host of the job has reported past it: ≤ ~3 intervals
    assert d.fired_at - job.start_time <= 3 * 600 + 60


def test_quiet_workload_not_flagged():
    sess, stream, job, notified = run_with_guardian(storm=False)
    assert storms(stream) == []
    assert notified == []
    assert job.state is JobState.COMPLETED


def test_notify_only_mode():
    sess, stream, job, notified = run_with_guardian(suspend=False)
    assert len(storms(stream)) == 1
    assert [suspended for _, suspended in notified] == [False]
    assert job.state is JobState.COMPLETED  # nobody killed it


def test_each_job_acted_on_once(guarded):
    sess, stream, job, notified = guarded
    # the storm outlives the first detection by hours of samples (the
    # suspended job's hosts keep reporting); one alert, one suspension
    assert [a.jobid for a, _ in notified] == [job.jobid]
    assert stream.alerts.suppressed == 0


def test_innocent_bystander_untouched(guarded):
    sess, _, _, _ = guarded
    others = [
        j for j in sess.cluster.jobs.values() if j.user == "alice"
    ]
    assert others
    assert all(j.state is not JobState.CANCELLED for j in others)
