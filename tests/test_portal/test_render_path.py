"""What one page miss costs and shows: SQL statements and spans."""

import http.client

import numpy as np
import pytest

from repro import obs
from repro.analysis.popgen import generate_population
from repro.db import Database
from repro.pipeline.records import JobRecord
from repro.portal.app import PortalApp
from repro.portal.search import JobSearch, browse_date
from repro.portal.server import PortalServer
from repro.tsdb import TimeSeriesDB


class CountingDatabase(Database):
    """Records the text of every statement executed."""

    def __init__(self) -> None:
        super().__init__()
        self.statements = []

    def execute(self, sql, params=()):
        self.statements.append(sql)
        return super().execute(sql, params)


class _Stream:
    """The stream surface ``/tsdb`` reads."""

    metric = "stats"

    def __init__(self) -> None:
        self.tsdb = TimeSeriesDB()
        t = (np.arange(60) * 60).tolist()
        for h in range(3):
            self.tsdb.put_many("stats", {"host": f"n{h}"}, t,
                               (np.arange(60.0) * (h + 1)).tolist())


@pytest.fixture()
def portal():
    db = CountingDatabase()
    generate_population(db, 120, seed=9)
    JobRecord.bind(db)
    db.statements.clear()
    return PortalApp(db, stream=_Stream()), db


def _statements(db, fn):
    db.statements.clear()
    out = fn()
    return out, list(db.statements)


def test_a_db_backed_page_is_one_statement(portal):
    app, db = portal
    jobid, user, end_time = JobRecord.objects.all().values_list(
        "jobid", "user", "end_time")[0]
    day = end_time - end_time % 86_400
    for url in ("/", f"/search?user={user}", f"/job/{jobid}"):
        page, statements = _statements(db, lambda: app.get_url(url))
        assert page.status == 200
        assert len(statements) == 1, statements
    for read in (
        lambda: browse_date(day),
        lambda: JobSearch(user=user).run(),
        lambda: JobRecord.objects.get(jobid=jobid),
        lambda: JobRecord.objects.all().order_by("-end_time")[3],
    ):
        out, statements = _statements(db, read)
        assert len(statements) == 1, statements
        assert statements[0].startswith("SELECT * FROM job")
        assert out


def test_explicit_len_and_count_still_count(portal):
    _app, db = portal
    qs = JobRecord.objects.filter(nodes__gte=1)
    (n, m), statements = _statements(db, lambda: (len(qs), qs.count()))
    assert n == m == JobRecord.objects.count() > 0
    assert [s.split(" FROM")[0] for s in statements] == [
        "SELECT COUNT(*) AS n"] * 2


def _span_tree(route):
    """``{name: [child names]}`` of the last trace rooted at a
    ``portal.render`` span with this route."""
    spans = obs.get_tracer().spans()
    root = [s for s in spans
            if s.name == "portal.render" and s.attrs["route"] == route][-1]
    assert root.parent_id is None
    mine = [s for s in spans if s.trace_id == root.trace_id]
    names = {s.span_id: s.name for s in mine}
    tree = {}
    for s in mine:
        tree.setdefault(names.get(s.parent_id), []).append(s.name)
    return tree, {s.name: s for s in mine}


def test_a_miss_is_traced_and_a_hit_is_not(portal):
    app, _db = portal
    obs.reset()
    server = PortalServer(app, workers=2)
    host, port = server.start_background()
    conn = http.client.HTTPConnection(host, port, timeout=10)

    def get(path):
        conn.request("GET", path)
        resp = conn.getresponse()
        assert resp.status == 200
        return resp.read()

    try:
        get("/search?exe=a")
        tree, by_name = _span_tree("search")
        assert tree[None] == ["portal.render"]
        assert sorted(tree["portal.render"]) == ["db.select", "portal.table"]
        assert by_name["db.select"].attrs["rows"] > 0
        # the key, the 12 listed columns, the two histogram fields not listed
        assert by_name["db.select"].attrs["columns"] == 15

        get("/tsdb?group_by=host")
        tree, _ = _span_tree("tsdb")
        assert sorted(tree["portal.render"]) == ["portal.chart", "tsdb.query"]

        # the same two pages again: page-cache hits open nothing
        before = obs.get_tracer().count()
        get("/search?exe=a")
        get("/tsdb?group_by=host")
        assert obs.get_tracer().count() == before
        assert server.page_cache.hits == 2

        # /obs is never cached: every request renders, and shows the split
        page = get("/obs").decode()
        for name in ("portal.render", "db.select", "portal.table",
                     "tsdb.query", "portal.chart"):
            assert f"<td>{name}</td>" in page
        assert obs.get_tracer().count("portal.render") == 3
    finally:
        conn.close()
        server.close()
        obs.reset()
