"""T1 — Table I: the full metric set computed for every job.

Regenerates Table I over a mixed workload: every metric name, its
category, unit and a measured value for a representative WRF job,
proving the complete set is computed through the real pipeline
(raw counters → job mapping → ARC/max semantics).
"""

import pytest

from benchmarks._support import once, report, standard_session
from repro.metrics.table1 import METRIC_REGISTRY
from repro.pipeline import assemble_jobs, parse_blocks
from repro.metrics import compute_metrics


@pytest.fixture(scope="module")
def session():
    return standard_session()


def test_table1_full_metric_set(benchmark, session):
    jobdata, _ = assemble_jobs(
        parse_blocks(session.store), session.cluster.jobs)
    wrf_jd = next(
        jd for jd in jobdata.values()
        if jd.job and jd.job.executable == "wrf.exe"
    )

    def compute():
        return compute_metrics(wrf_jd.accumulate())

    metrics = once(benchmark, compute)

    rows = [
        (d.category, name, f"{metrics[name]:,.4g}", d.unit, d.description)
        for name, d in METRIC_REGISTRY.items()
    ]
    report(
        "Table I — metrics computed for every job (WRF sample values)",
        rows,
        ["category", "metric", "value", "unit", "definition"],
    )
    # the full Table I set must be present and finite
    table1 = {
        "MetaDataRate", "MDCReqs", "OSCReqs", "MDCWait", "OSCWait",
        "LLiteOpenClose", "LnetAveBW", "LnetMaxBW", "InternodeIBAveBW",
        "InternodeIBMaxBW", "Packetsize", "Packetrate", "GigEBW",
        "Load_All", "Load_L1Hits", "Load_L2Hits", "Load_LLCHits",
        "cpi", "cpld", "flops", "VecPercent", "mbw",
        "MemUsage", "CPU_Usage", "idle", "catastrophe", "MIC_Usage",
    }
    assert table1 <= set(metrics)
    for name in table1:
        assert metrics[name] == metrics[name]  # not NaN
    # a healthy WRF job's signature
    assert metrics["CPU_Usage"] > 0.5
    assert metrics["VecPercent"] > 10
    assert metrics["MDCReqs"] > 1
