"""Portal /analytics page: continuous-scoring rollup, HTML and JSON."""

import json
import types

import pytest

from repro.obs.registry import MetricRegistry
from repro.portal.app import PortalApp
from repro.stream.analytics import FleetAnalytics
from repro.tsdb.store import TimeSeriesDB

GOOD = {"MetaDataRate": 5.0, "GigEBW": 0.01, "MemUsage": 4.0,
        "idle": 0.97, "catastrophe": 0.95, "cpi": 0.8}


@pytest.fixture
def analytics():
    a = FleetAnalytics(registry=MetricRegistry(), min_jobs=4)
    a.score_job("j1", GOOD, user="alice", app="wrf")
    a.score_job("j2", dict(GOOD, idle=0.1), user="bob", app="idlebench")
    tsdb = TimeSeriesDB()
    tsdb.put("stats", {"host": "c1", "type": "cpu", "device": "0",
                       "event": "user"}, 0, 1.0)
    a.attach([tsdb], "stats")
    return a


@pytest.fixture
def app(fresh_db, analytics):
    stream = types.SimpleNamespace(analytics=analytics)
    return PortalApp(fresh_db, stream=stream)


def test_analytics_page_renders(app):
    resp = app.get("/analytics")
    assert resp.ok
    assert "Fleet analytics" in resp.body
    assert "2 jobs scored" in resp.body
    assert "alice" in resp.body and "bob" in resp.body
    assert "wrf" in resp.body and "idlebench" in resp.body
    assert "Job classes" in resp.body


def test_analytics_page_json(app, analytics):
    resp = app.get("/analytics", {"format": "json"})
    assert resp.ok
    assert resp.content_type == "application/json"
    data = json.loads(resp.body)
    assert data["enabled"] is True
    assert data["jobs_scored"] == 2
    assert set(data["users"]) == {"alice", "bob"}
    assert data["feeds"] == ["cpu/user"]
    # stable output: serialising twice is byte-identical
    assert resp.body == app.get("/analytics", {"format": "json"}).body


def test_analytics_page_without_analytics_attached(fresh_db):
    app = PortalApp(fresh_db)
    resp = app.get("/analytics")
    assert resp.ok
    assert "No analytics attached" in resp.body
    data = json.loads(app.get("/analytics", {"format": "json"}).body)
    assert data == {"enabled": False}
