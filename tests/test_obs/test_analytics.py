"""Continuous fleet analytics: scoring, classes, anomalies.

Unit-level pins for the PerSyst-style scoring plane: property scoring
orientation (1 = no concern), leader-clustering determinism,
idempotent per-job scoring, and test-before-observe anomaly
detection.  Counter feeds are reads over the live stores:
``tests/test_stream/test_feed_reads.py``.
"""

import math

import pytest

from repro.obs.registry import MetricRegistry
from repro.stream.analytics import (
    ANALYTICS_METRICS,
    Anomaly,
    ContinuousScorer,
    FleetAnalytics,
)

GOOD = {"MetaDataRate": 5.0, "GigEBW": 0.01, "MemUsage": 4.0,
        "idle": 0.97, "catastrophe": 0.95, "cpi": 0.8}
MD_THRASH = dict(GOOD, MetaDataRate=40_000.0)
HICPI = dict(GOOD, cpi=9.0)


# -- ContinuousScorer --------------------------------------------------------


def test_good_job_scores_near_one():
    scorer = ContinuousScorer()
    props = scorer.properties(GOOD)
    assert set(props) == {"balance", "steadiness", "compute",
                          "metadata", "ethernet", "memory"}
    assert all(0.0 <= v <= 1.0 for v in props.values())
    assert scorer.efficiency(props) > 0.85


def test_each_pathology_drags_its_own_property():
    scorer = ContinuousScorer()
    assert scorer.properties(MD_THRASH)["metadata"] < 0.05
    assert scorer.properties(HICPI)["compute"] < 0.15
    assert scorer.properties(dict(GOOD, idle=0.2))["balance"] == 0.2
    assert scorer.properties(dict(GOOD, GigEBW=50.0))["ethernet"] < 0.2


def test_nan_metrics_drop_out_instead_of_poisoning():
    scorer = ContinuousScorer()
    props = scorer.properties({"cpi": 1.0})
    assert set(props) == {"compute"}
    assert scorer.efficiency(props) == 1.0
    assert math.isnan(scorer.efficiency({}))


def test_signature_is_bounded_and_nan_safe():
    scorer = ContinuousScorer()
    sig = scorer.signature({"cpi": 1e12, "idle": float("nan")})
    assert len(sig) == len(ANALYTICS_METRICS)
    assert all(-1.0 < v < 1.0 for v in sig)


def test_leader_clustering_reuses_near_classes():
    scorer = ContinuousScorer()
    a = scorer.classify(scorer.signature(GOOD))
    b = scorer.classify(scorer.signature(dict(GOOD, cpi=0.82)))
    # an idle-half job is far away in signature space (idle 0.97 vs
    # 0.05 moves that coordinate by ~0.45 > radius)
    c = scorer.classify(scorer.signature(dict(GOOD, idle=0.05)))
    assert a == b  # near-identical signature joins the class
    assert c != a  # the pathological job founds its own
    assert scorer.classes[a].count == 2


# -- FleetAnalytics ----------------------------------------------------------


@pytest.fixture
def analytics():
    return FleetAnalytics(registry=MetricRegistry(), min_jobs=4)


def test_score_job_is_idempotent(analytics):
    s1, _ = analytics.score_job("j1", GOOD, user="u", app="a")
    assert s1 is not None and analytics.is_scored("j1")
    s2, anomalies = analytics.score_job("j1", MD_THRASH, user="u", app="a")
    assert s2 is None and anomalies == []
    assert analytics.jobs_scored == 1
    assert len(analytics.scorer.classes) == 1
    assert analytics.registry.counter(
        "repro_analytics_jobs_scored_total"
    ).total() == 1.0


def test_anomaly_needs_min_jobs_then_fires(analytics):
    for i in range(4):
        _, anomalies = analytics.score_job(f"g{i}", GOOD)
        assert anomalies == []  # fleet too small to judge
    _, anomalies = analytics.score_job("bad", MD_THRASH)
    rules = [a.rule for a in anomalies]
    assert "fleet_outlier_MetaDataRate" in rules
    a = next(x for x in anomalies if x.rule == "fleet_outlier_MetaDataRate")
    assert isinstance(a, Anomaly)
    assert a.value == pytest.approx(40_000.0)
    assert a.value > a.threshold
    assert analytics.registry.counter(
        "repro_analytics_anomalies_total"
    ).value(rule="fleet_outlier_MetaDataRate") == 1.0


def test_verdict_tested_before_the_job_joins_the_fleet(analytics):
    """Job N is judged against jobs 1..N-1, never against itself."""
    for i in range(6):
        analytics.score_job(f"g{i}", GOOD)
    _, first = analytics.score_job("b0", HICPI)
    a = next(x for x in first if x.rule == "fleet_outlier_cpi")
    # judged against the six good jobs only: the threshold is their
    # p99 (cpi 0.8), untouched by b0's own 9.0
    assert a.threshold == pytest.approx(0.8, rel=0.01)
    assert "6 scored jobs" in a.detail
    # ...and only then does b0's value join the fleet distribution
    sk = analytics.registry.sketch("repro_analytics_metric_sketch")
    assert sk.get_sketch(metric="cpi").count == 7


def test_low_efficiency_anomaly_fires_low_side(analytics):
    for i in range(8):
        analytics.score_job(f"g{i}", GOOD)
    terrible = {"MetaDataRate": 90_000.0, "GigEBW": 80.0,
                "MemUsage": 31.0, "idle": 0.05, "catastrophe": 0.1,
                "cpi": 12.0}
    _, anomalies = analytics.score_job("bad", terrible)
    assert any(a.rule == "fleet_low_efficiency" for a in anomalies)


def test_summary_shape(analytics):
    analytics.score_job("j1", GOOD, user="alice", app="wrf")
    analytics.score_job("j2", HICPI, user="bob", app="vasp")
    s = analytics.summary()
    assert s["jobs_scored"] == 2
    assert 0.0 < s["fleet_efficiency_mean"] < 1.0
    assert {c["id"] for c in s["classes"]} == {0, 1}
    assert set(s["users"]) == {"alice", "bob"}
    assert s["apps"]["wrf"]["jobs"] == 1
    assert s["users"]["alice"]["mean"] == pytest.approx(
        s["users"]["alice"]["min"]
    )
