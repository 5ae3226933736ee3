"""Portal search: metadata filters + ≤3 metric search fields."""

import datetime as dt

import pytest

from repro.analysis.popgen import generate_population
from repro.db import Database
from repro.pipeline.records import JobRecord
from repro.portal.app import PortalApp
from repro.portal.search import JobSearch, SearchField, browse_date


@pytest.fixture
def db(fresh_db):
    rows = [
        dict(jobid="1", user="alice", executable="wrf.exe", queue="normal",
             status="COMPLETED", nodes=4, start_time=1000, end_time=5000,
             run_time=4000, MetaDataRate=100.0, CPU_Usage=0.8, flags=[]),
        dict(jobid="2", user="alice", executable="wrf.exe", queue="normal",
             status="COMPLETED", nodes=8, start_time=90000, end_time=95000,
             run_time=5000, MetaDataRate=900_000.0, CPU_Usage=0.6,
             flags=["high_metadata_rate"]),
        dict(jobid="3", user="bob", executable="namd2", queue="normal",
             status="FAILED", nodes=2, start_time=2000, end_time=2400,
             run_time=400, MetaDataRate=1.0, CPU_Usage=0.9, flags=[]),
        dict(jobid="4", user="carol", executable="wrf_test.exe",
             queue="largemem", status="COMPLETED", nodes=1,
             start_time=3000, end_time=9000, run_time=6000,
             MetaDataRate=50.0, CPU_Usage=0.5, flags=[]),
    ]
    JobRecord.objects.bulk_create([JobRecord(**r) for r in rows])
    return fresh_db


def ids(records):
    return sorted(r.jobid for r in records)


def test_search_field_parse():
    f = SearchField.parse("MetaDataRate__gt", 1000)
    assert f.metric == "MetaDataRate" and f.op == "gt" and f.value == 1000.0
    assert SearchField.parse("cpi", 2).op == "exact"


def test_search_field_validates_metric_and_op():
    with pytest.raises(ValueError):
        SearchField("NotAMetric", "gt", 1)
    with pytest.raises(ValueError):
        SearchField("cpi", "regex", 1)


def test_executable_substring_match(db):
    got = JobSearch(executable="wrf").run()
    assert ids(got) == ["1", "2", "4"]


def test_user_and_queue_filters(db):
    assert ids(JobSearch(user="alice").run()) == ["1", "2"]
    assert ids(JobSearch(queue="largemem").run()) == ["4"]
    assert ids(JobSearch(status="FAILED").run()) == ["3"]


def test_date_window_and_runtime(db):
    got = JobSearch(start_after=0, start_before=10_000,
                    min_run_time=600).run()
    assert ids(got) == ["1", "4"]


def test_metric_search_fields(db):
    got = JobSearch(
        executable="wrf",
        fields=[SearchField.parse("MetaDataRate__gt", 10_000)],
    ).run()
    assert ids(got) == ["2"]


def test_three_field_limit_enforced(db):
    fields = [SearchField.parse("cpi__gt", 0)] * 4
    with pytest.raises(ValueError):
        JobSearch(fields=fields).run()
    # exactly three is fine
    JobSearch(fields=fields[:3]).run()


def test_results_newest_first(db):
    got = JobSearch(executable="wrf").run()
    assert [r.jobid for r in got] == ["2", "4", "1"]


def test_flagged_sublist(db):
    got = JobSearch(executable="wrf").flagged_sublist()
    assert ids(got) == ["2"]


def test_browse_date(db):
    got = browse_date(0, 10_000)
    assert sorted(r.jobid for r in got) == ["1", "3", "4"]


def test_jobid_lookup(db):
    got = JobSearch(jobid="3").run()
    assert ids(got) == ["3"]


class _RecordingDatabase(Database):
    """Keeps every statement with its parameters."""

    def __init__(self) -> None:
        super().__init__()
        self.executed = []

    def execute(self, sql, params=()):
        self.executed.append((sql, tuple(params)))
        return super().execute(sql, params)


def _plans(urls):
    """``{kind: EXPLAIN QUERY PLAN details}`` of the one statement each
    page issues.  Without ``ANALYZE`` statistics SQLite plans from the
    schema alone, so a small population plans as the portal's does."""
    db = _RecordingDatabase()
    generate_population(db, 60, seed=2)
    JobRecord.bind(db)
    rows = JobRecord.objects.all().values_list("user", "executable",
                                               "end_time")
    user, exe, end_time = rows[0]
    day = end_time - end_time % 86_400
    app = PortalApp(db)
    out = {}
    for kind, url in urls(user, exe, day).items():
        db.executed.clear()
        assert app.get_url(url).status == 200
        ((sql, params),) = db.executed
        cur = db.execute("EXPLAIN QUERY PLAN " + sql, params)
        out[kind] = " | ".join(str(r[3]) for r in cur.fetchall())
    return out


def test_the_job_list_pages_plan_as_intended():
    plans = _plans(lambda user, exe, day: {
        "search_wide": f"/search?exe={exe[:3]}&min_runtime=60",
        "by_exe": f"/search?exe={exe[:3]}&status=COMPLETED",
        "status": "/search?status=COMPLETED",
        "front": "/",
        "search": f"/search?user={user}&min_runtime=60",
        "date": "/date/" + dt.datetime.fromtimestamp(
            day, dt.timezone.utc).strftime("%Y-%m-%d"),
    })
    # filters no index serves: scan the table and sort the matches, not
    # a walk of every row in start-time order
    for kind in ("search_wide", "by_exe", "status"):
        assert "idx_job_start_time" not in plans[kind], plans
        assert "TEMP B-TREE FOR ORDER BY" in plans[kind], plans
    assert "USING INDEX idx_job_end_time" in plans["front"], plans
    assert "TEMP B-TREE" not in plans["front"], plans
    assert "SEARCH" in plans["search"], plans
    assert "USING INDEX idx_job_user (user=?)" in plans["search"], plans
    assert "SEARCH" in plans["date"], plans
    assert "USING INDEX idx_job_end_time (end_time>? AND end_time<?)" in \
        plans["date"], plans


def test_a_sorted_search_breaks_ties_as_the_start_time_walk_did(fresh_db):
    """Newest first, and among jobs that started in the same second the
    later row first — the order a walk of ``idx_job_start_time`` gives."""
    JobRecord.objects.bulk_create([
        JobRecord(jobid=str(i), user="u", executable=exe, start_time=t,
                  run_time=600)
        for i, (exe, t) in enumerate([
            ("wrf", 50), ("wrf", 70), ("namd", 70), ("wrf", 70),
            ("wrf", 10), ("wrf", 50), ("wrf", 90),
        ])
    ])
    walked = JobRecord.objects.filter(executable__contains="wrf").order_by(
        "-start_time").values_list("jobid", flat=True)
    assert walked == ["6", "3", "1", "5", "0", "4"]
    for search in (JobSearch(executable="wrf"),
                   JobSearch(executable="wrf", min_run_time=60)):
        assert [r.jobid for r in search.run()] == walked
        assert [j for j, in search.rows("jobid")] == walked
