"""Continuous fleet analytics: tiers, scoring, classes, anomalies.

Unit-level pins for the PerSyst-style analytics plane: tiered-sketch
rotation under a sim clock, property scoring orientation (1 = no
concern), leader-clustering determinism, idempotent per-job scoring,
and test-before-observe anomaly detection.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import analytics as analytics_module
from repro.obs.analytics import (
    ANALYTICS_METRICS,
    Anomaly,
    ContinuousScorer,
    FleetAnalytics,
    TieredSketch,
)
from repro.obs.registry import MetricRegistry

GOOD = {"MetaDataRate": 5.0, "GigEBW": 0.01, "MemUsage": 4.0,
        "idle": 0.97, "catastrophe": 0.95, "cpi": 0.8}
MD_THRASH = dict(GOOD, MetaDataRate=40_000.0)
HICPI = dict(GOOD, cpi=9.0)


# -- TieredSketch ------------------------------------------------------------


def test_tiered_sketch_alltime_vs_window_views():
    ts = TieredSketch(windows=(100,))
    ts.observe_many([1.0, 2.0], now=10)
    ts.observe_many([100.0], now=250)  # two rotations later
    assert ts.all.count == 3
    # the 100 s view only covers the current + previous panes
    view = ts.view(100)
    assert view.count == 1 and view.quantile(0.5) == pytest.approx(
        100.0, rel=0.01
    )
    assert ts.view(None).count == 3


def test_tiered_sketch_previous_pane_survives_one_rotation():
    ts = TieredSketch(windows=(100,))
    ts.observe(1.0, now=10)
    ts.observe(2.0, now=110)  # adjacent window: pane rolls, not drops
    assert ts.view(100).count == 2
    ts.observe(3.0, now=210)
    assert ts.view(100).count == 2  # the now=10 sample aged out


def test_tiered_sketch_view_is_a_copy():
    ts = TieredSketch(windows=(100,))
    ts.observe(1.0, now=0)
    view = ts.view(100)
    view.observe(99.0)
    assert ts.view(100).count == 1


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


def test_observe_batch_groups_devices_into_feeds(analytics):
    blocks = [
        # two samples of a host with two cpu devices, one column each
        ((("cpu", "user"), ("cpu", "user")),
         np.array([[1.0, 3.0], [2.0, 4.0]])),
        ((("mem", "MemUsed"),), np.array([[7.0]])),
    ]
    analytics.observe_batch(blocks, now=10)
    cpu = analytics.feed_view("cpu", "user")
    assert cpu.count == 4  # both devices, one feed
    assert analytics.feed_view("mem", "MemUsed").count == 1
    assert analytics.feed_view("nope", "x") is None
    sk = analytics.registry.sketch("repro_stream_feed_sketch")
    assert sk.count(type="cpu", event="user") == 4


# two layouts sharing the ("cpu", "user") feed; the first has two cpu devices
LAYOUTS = (
    (("cpu", "user"), ("cpu", "idle"), ("cpu", "user"), ("mem", "MemUsed")),
    (("cpu", "user"), ("net", "rx")),
)


def reference_feeds(deliveries, windows):
    """What the staged fold must equal: every block folded into its
    feeds' tiers the moment it arrives."""
    feeds = {}
    for layout, rows, now in deliveries:
        for j, key in enumerate(LAYOUTS[layout]):
            ts = feeds.get(key)
            if ts is None:
                ts = feeds[key] = TieredSketch(windows)
            ts.observe_many([row[j] for row in rows], now)
    return feeds


value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1.0, 1.0, 250.0, 1e9]),
)


@st.composite
def deliveries_strategy(draw):
    out, now = [], draw(st.integers(0, 500))
    for _ in range(draw(st.integers(1, 25))):
        # mostly forwards, across pane and window boundaries, with the
        # odd gap of several windows and the odd step back
        now = max(0, now + draw(st.sampled_from(
            [0, 7, 7, 40, 40, 100, 130, 450, 1000, 2600, -35, -300])))
        layout = draw(st.integers(0, len(LAYOUTS) - 1))
        rows = draw(st.lists(
            st.lists(value, min_size=len(LAYOUTS[layout]),
                     max_size=len(LAYOUTS[layout])),
            min_size=1, max_size=4))
        out.append((layout, rows, now))
    return out


# summing 1e308-sized values overflows, in the staged fold as on arrival
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(deliveries_strategy(), st.sampled_from([1 << 17, 24, 7]),
       st.sampled_from([(100, 1000), (100,), (1000, 100, 100)]))
def test_staged_fold_equals_folding_every_block_on_arrival(
    deliveries, limit, windows
):
    """Staging across pane rotations, buffer-full folds mid-stream and
    blocks larger than the buffer change nothing: every tier of every
    feed ends as if each block had been folded when it arrived."""
    saved = analytics_module.FEED_FLUSH_LIMIT
    analytics_module.FEED_FLUSH_LIMIT = limit
    try:
        a = FleetAnalytics(registry=MetricRegistry(), windows=windows)
        for layout, rows, now in deliveries:
            a.observe_batch([(LAYOUTS[layout], np.array(rows))], now)
        a.flush_feeds()
    finally:
        analytics_module.FEED_FLUSH_LIMIT = saved
    want = reference_feeds(deliveries, windows)
    assert set(a.feeds) == set(want)
    mirror = a.registry.sketch("repro_stream_feed_sketch")
    for key, ref in want.items():
        got = a.feeds[key]
        assert got.all.dist_state() == ref.all.dist_state(), key
        for w in ref.windows:
            assert got._panes[w][0] == ref._panes[w][0], (key, w)
            for pane in (1, 2):
                assert got._panes[w][pane].dist_state() == \
                    ref._panes[w][pane].dist_state(), (key, w, pane)
        assert mirror.get_sketch(type=key[0], event=key[1]).dist_state() \
            == ref.all.dist_state()


def test_observe_batch_copies_the_rows_it_stages(analytics):
    block = np.array([[1.0, 2.0]])
    feeds = (("cpu", "user"), ("cpu", "idle"))
    analytics.observe_batch([(feeds, block)], now=0)
    block[:] = 1e9  # the caller reuses its buffer
    assert analytics.feed_view("cpu", "user").max == 1.0
    with pytest.raises(ValueError, match="feed columns"):
        analytics.observe_batch([(feeds, np.array([[1.0, 2.0, 3.0]]))], 0)
    with pytest.raises(ValueError, match="feed columns"):
        analytics.observe_batch([(feeds, np.array([1.0, 2.0]))], 0)
    analytics.observe_batch([(feeds, np.empty((0, 2)))], now=0)  # no rows
    assert analytics.feed_view("cpu", "idle").count == 1


def test_reading_the_mirror_sketch_folds_what_is_staged(analytics):
    feeds = (("cpu", "user"),)
    analytics.observe_batch([(feeds, np.array([[1.0], [2.0]]))], now=0)
    assert not analytics.feeds  # staged, not folded
    mirror = analytics.registry.sketch("repro_stream_feed_sketch")
    assert mirror.count(type="cpu", event="user") == 2
    analytics.observe_batch([(feeds, np.array([[3.0]]))], now=10_000)
    assert "repro_stream_feed_sketch_count" in analytics.registry.render_text()
    assert [sk.count for _, sk in mirror.samples()] == [3]
    assert analytics.feeds[("cpu", "user")].view(3600).count == 1


def test_disabled_registry_keeps_the_tiers_and_skips_the_mirror():
    registry = MetricRegistry()
    a = FleetAnalytics(registry=registry)
    registry.enabled = False
    a.observe_batch([((("cpu", "user"),), np.array([[3.0]]))], now=0)
    assert a.feed_view("cpu", "user").count == 1
    registry.enabled = True
    assert registry.sketch("repro_stream_feed_sketch").count(
        type="cpu", event="user") == 0


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
