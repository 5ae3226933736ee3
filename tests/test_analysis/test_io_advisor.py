"""I/O advisor: pattern classification and targeted advice."""

import numpy as np
import pytest

from repro.analysis.io_advisor import diagnose_io
from tests.test_metrics.test_table1 import make_accum


def metrics(**over):
    base = {
        "MDCReqs": 1.0, "OSCReqs": 0.5, "LLiteOpenClose": 0.05,
        "LnetAveBW": 0.5, "MDCWait": 400.0, "OSCWait": 1500.0,
    }
    base.update(over)
    return base


def patterns(d):
    return {f.pattern for f in d.findings}


def test_healthy_job_no_findings():
    d = diagnose_io("1", metrics())
    assert d.healthy
    assert d.findings == []
    assert "no I/O issues" in d.render_text()


def test_open_close_cycling_detected():
    d = diagnose_io("1", metrics(LLiteOpenClose=30_000.0))
    assert "redundant open/close cycling" in patterns(d)
    f = d.findings[0]
    assert f.severity == "critical"
    assert "once" in f.advice


def test_metadata_bound_detected():
    d = diagnose_io("1", metrics(MDCReqs=50_000.0, LnetAveBW=1.0))
    assert "metadata-bound access" in patterns(d)
    assert not d.healthy


def test_metadata_with_matching_bandwidth_ok():
    # lots of metadata but also lots of data: not metadata-*bound*
    d = diagnose_io("1", metrics(MDCReqs=3_000.0, LnetAveBW=400.0))
    assert "metadata-bound access" not in patterns(d)


def test_small_transfer_detected():
    d = diagnose_io(
        "1", metrics(OSCReqs=2_000.0, LnetAveBW=10.0)  # ~5 KiB/req
    )
    assert "small-transfer I/O" in patterns(d)
    advice = next(f for f in d.findings
                  if f.pattern == "small-transfer I/O").advice
    assert "collective" in advice and "stripe size" in advice


def test_funnel_detected_from_series():
    lnet = np.zeros((4, 3))
    lnet[0, :] = 60e9  # all traffic on node 0
    accum = make_accum(n_hosts=4, lnet_bytes=lnet)
    m = metrics(LnetAveBW=25.0)
    d = diagnose_io("1", m, accum)
    assert "I/O funnelled through one node" in patterns(d)


def test_balanced_series_not_funnel():
    lnet = np.full((4, 3), 20e9)
    accum = make_accum(n_hosts=4, lnet_bytes=lnet)
    d = diagnose_io("1", metrics(LnetAveBW=25.0), accum)
    assert "I/O funnelled through one node" not in patterns(d)


def test_bandwidth_heavy_info_only():
    d = diagnose_io("1", metrics(OSCReqs=600.0, LnetAveBW=800.0))
    assert d.healthy  # info finding does not mark unhealthy
    assert "bandwidth-heavy (well-formed)" in patterns(d)


def test_io_time_fraction_estimate():
    d = diagnose_io("1", metrics(MDCReqs=35_000.0, MDCWait=90.0))
    assert 0.1 < d.io_time_fraction <= 1.0


def test_end_to_end_on_pathological_wrf(monitored_run):
    """The §V-B offender gets the exact advice the paper prescribes."""
    from repro.pipeline import assemble_jobs, parse_blocks
    from repro.metrics import compute_metrics
    from repro import monitoring_session
    from repro.cluster import JobSpec, make_app

    sess = monitoring_session(nodes=6, seed=19, tick=300)
    job = sess.cluster.submit(JobSpec(
        user="baduser01",
        app=make_app("wrf_pathological", runtime_mean=4000.0,
                     fail_prob=0.0),
        nodes=4,
    ))
    sess.cluster.run_for(3 * 3600)
    jd, _ = assemble_jobs(parse_blocks(sess.store), sess.cluster.jobs)
    accum = jd[job.jobid].accumulate()
    d = diagnose_io(job.jobid, compute_metrics(accum), accum)
    assert "redundant open/close cycling" in patterns(d)
    assert "metadata-bound access" in patterns(d)
    assert not d.healthy
