"""AlertRouter: severity, dedup/cooldown, sinks, counters."""

import io

import pytest

from repro import obs
from repro.metrics.flags import FlagResult
from repro.stream.alerts import (
    Alert,
    AlertRouter,
    DEFAULT_SEVERITY,
    SEVERITY_BY_RULE,
    log_sink,
    suspend_sink,
)


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def flag(name="high_metadata_rate", value=25000.0, threshold=10000.0):
    return FlagResult(name=name, value=value, threshold=threshold,
                      detail=f"{name} tripped")


def test_severity_mapping():
    router = AlertRouter()
    a = router.route(flag("high_metadata_rate"), "1", 1000, 400)
    b = router.route(flag("idle_nodes"), "1", 1000, 400)
    c = router.route(flag("made_up_rule"), "1", 1000, 400)
    assert a.severity == "critical"
    assert b.severity == "warning"
    assert c.severity == DEFAULT_SEVERITY


def test_every_known_rule_has_a_severity():
    from repro.metrics.flags import FLAG_REGISTRY

    assert set(SEVERITY_BY_RULE) == set(FLAG_REGISTRY)


def test_cooldown_suppresses_same_rule_and_job():
    router = AlertRouter(cooldown=3600)
    assert router.route(flag(), "1", 1000, 400) is not None
    assert router.route(flag(), "1", 2000, 1400) is None  # within window
    assert router.suppressed == 1
    # other job or other rule: not deduped
    assert router.route(flag(), "2", 2000, 1400) is not None
    assert router.route(flag("idle_nodes"), "1", 2000, 1400) is not None
    # window elapsed: fires again
    assert router.route(flag(), "1", 1000 + 3600, 4000) is not None
    assert len(router.ledger) == 4
    assert obs.counter(
        "repro_stream_alerts_suppressed_total"
    ).value(rule="high_metadata_rate") == 1


def test_dedup_state_is_bounded_by_the_cooldown_not_the_job_count():
    router = AlertRouter(cooldown=3600)
    for i in range(10_000):
        # a new job every cooldown, each alerting twice inside its own
        at = 1000 + i * 3600
        assert router.route(flag(), str(i), at, at) is not None
        assert router.route(flag(), str(i), at + 600, at) is None
        assert router.route(flag("idle_nodes"), str(i), at + 900, at)
        assert len(router._last_fired) <= 4
    assert router.suppressed == 10_000
    assert len(router.ledger) == 20_000
    # a key that refires after its cooldown is remembered from then on
    assert router.route(flag(), "0", at + 1000, at) is not None
    assert router.route(flag(), "0", at + 1001, at) is None


def test_alert_counter_labelled_by_rule_and_severity():
    router = AlertRouter()
    router.route(flag(), "1", 1000, 400)
    assert obs.counter("repro_stream_alerts_total").value(
        rule="high_metadata_rate", severity="critical"
    ) == 1


def test_latency_property_never_negative():
    a = Alert(rule="r", severity="info", jobid="1", value=1.0,
              threshold=1.0, detail="", fired_at=100, data_time=700)
    assert a.latency == 0
    b = Alert(rule="r", severity="info", jobid="1", value=1.0,
              threshold=1.0, detail="", fired_at=1300, data_time=700)
    assert b.latency == 600


def test_feed_is_bounded_ledger_is_not():
    router = AlertRouter(cooldown=0, max_feed=5)
    for i in range(12):
        router.route(flag(), "1", 1000 + i, 1000 + i)
    assert len(router.ledger) == 12
    assert len(router.feed) == 5
    recent = router.recent(3)
    assert [a.fired_at for a in recent] == [1011, 1010, 1009]  # newest first


def test_sinks_fan_out_and_errors_are_contained():
    router = AlertRouter()
    seen = []
    router.add_sink(seen.append)

    def broken(alert):
        raise RuntimeError("sink down")

    router.add_sink(broken)
    a = router.route(flag(), "1", 1000, 400)  # must not raise
    assert seen == [a]
    assert obs.counter("repro_stream_alert_sink_errors_total").value(
        rule="high_metadata_rate"
    ) == 1


def test_suspend_sink_acts_on_metadata_storms_only():
    class FakeCluster:
        suspended = []

        def suspend_job(self, jobid):
            self.suspended.append(jobid)
            return True

    cluster = FakeCluster()
    router = AlertRouter()
    router.add_sink(suspend_sink(cluster))
    router.route(flag("idle_nodes"), "1", 1000, 400)
    router.route(flag("sudden_drop"), "2", 1000, 400)
    assert cluster.suspended == []
    router.route(flag("high_metadata_rate"), "3", 1000, 400)
    router.route(flag("high_metadata_rate"), "3", 1600, 1000)  # deduped
    assert cluster.suspended == ["3"]


def test_log_sink_line_format():
    buf = io.StringIO()
    router = AlertRouter()
    router.add_sink(log_sink(buf))
    router.route(flag(), "42", 1000, 400)
    line = buf.getvalue()
    assert line.startswith("ALERT [critical] high_metadata_rate job=42 ")
    assert "threshold=1e+04" in line
    assert line.endswith("high_metadata_rate tripped\n")


def test_to_dict_round_trip():
    router = AlertRouter()
    a = router.route(flag(), "1", 1000, 400, trace_id=77)
    d = a.to_dict()
    assert d["rule"] == "high_metadata_rate"
    assert d["fired_at"] == 1000 and d["data_time"] == 400
    assert d["trace_id"] == 77
