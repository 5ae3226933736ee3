"""Load generator: report math, gating contract, a small live run."""

import math
import random

import pytest

from repro.analysis.popgen import generate_population
from repro.db import Database
from repro.pipeline.records import JobRecord
from repro.portal.app import PortalApp
from repro.portal.loadgen import LoadGenerator, LoadReport, default_paths
from repro.portal.server import PortalServer


def test_report_percentiles_and_dict():
    rep = LoadReport(users=4, duration_s=2.0, requests=100, ok=100)
    for i in range(1, 101):
        rep.record(float(i))
    assert rep.percentile(50) == pytest.approx(50.0, abs=1)
    assert rep.percentile(99) == pytest.approx(99.0, abs=1)
    assert rep.throughput_rps == 50.0
    d = rep.to_dict()
    assert d["http_2xx"] == 100
    assert d["p99_ms"] >= d["p50_ms"]


def test_empty_report_percentile_is_zero():
    rep = LoadReport(users=1, duration_s=1.0)
    assert rep.percentile(99) == 0.0


def test_record_feeds_the_sketch():
    rep = LoadReport(users=1, duration_s=1.0)
    for v in (3.0, 7.0, 11.0):
        rep.record(v)
    assert rep.sketch.count == 3
    assert rep.percentile(0) == pytest.approx(3.0, rel=0.01)
    assert rep.percentile(100) == pytest.approx(11.0, rel=0.01)


def test_sketch_percentiles_within_one_percent_rank_of_exact():
    """The satellite contract: replacing nearest-rank percentiles
    with the sketch costs at most 1 % rank error on a realistic
    latency sample (lognormal — long-tailed like real page loads)."""
    rep = LoadReport(users=1, duration_s=1.0)
    rng = random.Random(7)
    xs = [rng.lognormvariate(3.0, 0.6) for _ in range(5000)]
    for x in xs:
        rep.record(x)
    xs.sort()
    n = len(xs)
    for q in (50, 95, 99):
        est = rep.percentile(q)
        lo = xs[max(0, math.floor((q / 100 - 0.01) * (n - 1)))]
        hi = xs[min(n - 1, math.ceil((q / 100 + 0.01) * (n - 1)))]
        # value tolerance covers the sketch's own 0.5 % bucket width
        assert lo * 0.99 <= est <= hi * 1.01, (q, est, lo, hi)


def test_reports_merge_through_the_sketch():
    """Two generators' reports combine without re-sorting raw lists."""
    a, b = (LoadReport(users=1, duration_s=1.0) for _ in range(2))
    for i in range(1, 101):
        (a if i % 2 else b).record(float(i))
    a.sketch.merge(b.sketch)
    assert a.sketch.count == 100
    assert a.sketch.quantile(0.5) == pytest.approx(50.0, rel=0.02)


def test_report_gate_contract():
    rep = LoadReport(users=1, duration_s=1.0, requests=10, ok=10)
    for _ in range(10):
        rep.record(5.0)
    assert rep.gate(p99_ms=100.0) == []
    # shed 503s are fine; 5xx and exceptions are not
    rep.shed = 3
    assert rep.gate(p99_ms=100.0) == []
    rep.server_errors = 1
    assert any("5xx" in p for p in rep.gate(p99_ms=100.0))
    rep.server_errors = 0
    rep.exceptions = 2
    assert any("exception" in p for p in rep.gate(p99_ms=100.0))
    rep.exceptions = 0
    slow = LoadReport(users=1, duration_s=1.0, requests=10, ok=10)
    for _ in range(10):
        slow.record(500.0)
    assert any("p99" in p for p in slow.gate(p99_ms=100.0))


def test_gate_requires_some_success():
    rep = LoadReport(users=1, duration_s=1.0, requests=10, shed=10)
    assert any("no successful" in p for p in rep.gate(p99_ms=100.0))


def test_default_paths_mix():
    paths = default_paths(jobids=["a", "b"], with_tsdb=True, metric="stats")
    assert "/" in paths
    assert "/job/a" in paths and "/job/b" in paths
    assert any(p.startswith("/tsdb") for p in paths)
    assert any("metric=stats" in p for p in paths)
    lean = default_paths()
    assert not any(p.startswith("/tsdb") for p in lean)


def test_generator_rejects_empty_paths():
    with pytest.raises(ValueError):
        LoadGenerator("h", 1, paths=[])


def test_small_closed_loop_run():
    db = Database()
    generate_population(db, 100, seed=33)
    JobRecord.bind(db)
    jobids = [r.jobid for r in JobRecord.objects.all()[:2]]
    server = PortalServer(PortalApp(db), workers=4, queue_cap=32)
    host, port = server.start_background()
    try:
        gen = LoadGenerator(
            host, port, default_paths(jobids=jobids),
            users=10, requests_per_user=4, think_time=0.002, seed=1,
        )
        report = gen.run()
    finally:
        server.close()
    assert report.requests == 40
    assert report.exceptions == 0
    assert report.server_errors == 0
    assert report.ok == 40
    assert report.gate(p99_ms=10_000.0) == []
    assert "p99" in report.render_text()


def test_run_counts_shed_separately():
    """queue_cap=0 sheds everything: all 503, zero errors."""
    db = Database()
    generate_population(db, 50, seed=33)
    JobRecord.bind(db)
    server = PortalServer(PortalApp(db), workers=2, queue_cap=0)
    host, port = server.start_background()
    try:
        gen = LoadGenerator(
            host, port, ["/"], users=5, requests_per_user=3,
            think_time=0.0, seed=2,
        )
        report = gen.run()
    finally:
        server.close()
    assert report.shed == 15
    assert report.server_errors == 0
    assert report.ok == 0
