"""Portal render path: Python calls and SQL statements per page miss.

A machine-independent gate beside the wall-clock claim of
``BENCHMARK.json``'s ``portal_cold``: each of that workload's six route
shapes, and ``/date/<day>``, is rendered once, cold, on a fixed fixture
under ``cProfile``, and what is recorded is *counts* — Python-level
function calls, SQL statements and selected columns per render.  They
repeat exactly from run to run on one interpreter + NumPy, so they need
no repetitions, no quiet machine and no second checkout.  Calls are
summed over ``Profile.getstats()``: ``pstats`` keys a function by
``(file, line, name)``, so it keeps one of the generated dataclass
``__init__`` entries (``<string>:2``) and drops the others' calls.

The fixture mirrors ``bench/wl_portal.py``: a 5000-job generated
population, a TSDB prefilled with 64 hosts x 33 series x 1080 one-minute
samples and sealed, a started ``StreamPipeline`` on it, ``PortalApp`` on
both.  ``HEAD_CALLS`` are this file's counts at commit ``b5a580a`` (the
parent of the commit that rewrote the render path), counted with
``b5a580a``'s ``src/`` on the path (Python 3.11.7, NumPy 2.4); the call
gates are ratios to them.

Gates: exactly one SQL statement per job-table-backed render (it was
two: ``list(queryset)`` asked ``len()`` first); that statement names
its columns — no ``SELECT *``, at most 16 — on ``/``, ``/search`` and
``/date`` (PR 22: a page selects what it shows; ``/job`` shows the whole
record); calls per render at most ``MAX_RATIO`` of ``b5a580a``'s, which
is the last measured ratio plus at most 10 % — while the gates had 35 %
of headroom, the charts grew by 10 % unseen.
Each job-list page's ``EXPLAIN QUERY PLAN`` is recorded beside its
counts (``tests/test_portal/test_search.py`` pins the plans).

A second gate reloads ``portal_hot_rw``'s 10-URL dashboard shape after
one write that lands after every window it plots: every TSDB query is
a result-cache hit and no series is scanned.  Under a cache that drops
every result on any write it reads 0 hits of 6 and 6 scans.
"""

import cProfile
from pathlib import Path

import numpy as np

from benchmarks._support import record_bench, report
from repro.analysis.popgen import generate_population
from repro.broker import Broker
from repro.pipeline.records import JobRecord
from repro.portal.app import PortalApp
from repro.stream import StreamPipeline
from repro.tsdb import TimeSeriesDB
from tests.test_portal.test_render_path import CountingDatabase

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_portal.json"

SEED = 3
JOBS = 5000
HOSTS, SAMPLES, INTERVAL = 64, 1080, 60
T0 = 1_443_657_600
#: jobs the wide search matches, of the commonest executable's ~1450
WIDE_MATCHES = 400

#: events per device type; one host reports 4 cpu cores + 3 devices
EVENTS = {
    "cpu": ("user", "nice", "system", "idle", "iowait", "irq", "softirq"),
    "lnet": ("rx_bytes", "tx_bytes"),
    "mdc": ("reqs", "wait_us"),
    "mem": ("MemUsed",),
}
DEVICES = tuple(
    [("cpu", str(core)) for core in range(4)]
    + [("lnet", "0"), ("mdc", "t"), ("mem", "0")]
)

#: Python function calls per cold render at commit ``b5a580a``
HEAD_CALLS = {
    "front": 13_154,
    "search": 19_042,
    "search_wide": 85_161,
    "job": 345,
    "tsdb_host": 4_764,
    "tsdb_fleet": 22_050,
    "date": 13_055,
}
#: measured ratios plus at most 10 %, all counted the same way at
#: ``0d17284`` (front 0.176, search 0.048, search_wide 0.022, job 0.762,
#: date 0.125) except the two charts, whose gates are those measured
#: after they read series in runs and format points from a table
#: (0.310, 0.246; 0.361 and 0.330 at ``0d17284``)
MAX_RATIO = {
    "front": 0.193, "search": 0.053, "search_wide": 0.024, "job": 0.839,
    "tsdb_host": 0.340, "tsdb_fleet": 0.270, "date": 0.138,
}
#: SQL statements one render may issue: one per job-table page
SQL_STATEMENTS = {
    "front": 1, "search": 1, "search_wide": 1, "job": 1,
    "tsdb_host": 0, "tsdb_fleet": 0, "date": 1,
}
#: columns the one statement of a job-list page may select (12 shown,
#: the primary key, ``flags`` or the two histogram fields not shown)
MAX_COLUMNS = {"front": 16, "search": 16, "search_wide": 16, "date": 16}


def prefill(tsdb: TimeSeriesDB) -> None:
    """Monotone counters (``mem`` a gauge) per device, every host the
    same columns offset by its index, sealed."""
    rng = np.random.default_rng(SEED)
    times = T0 + INTERVAL * np.arange(SAMPLES, dtype=np.int64)
    columns = {}
    for type_name, device in DEVICES:
        width = len(EVENTS[type_name])
        if type_name == "mem":
            cols = rng.integers(1 << 33, 1 << 36, size=(SAMPLES, width))
        else:
            step = 1 << (20 if type_name == "cpu" else 30)
            cols = rng.integers(0, 1 << 30, size=width) + np.cumsum(
                rng.integers(0, step, size=(SAMPLES, width)), axis=0
            )
        columns[type_name, device] = cols.astype(np.float64)
    for h in range(HOSTS):
        for (type_name, device), cols in columns.items():
            for j, event in enumerate(EVENTS[type_name]):
                tsdb.put_many(
                    "stats",
                    {"host": f"c{h:03d}-{100 + h:03d}", "type": type_name,
                     "device": device, "event": event},
                    times, cols[:, j] + float(h),
                )
    tsdb.seal_heads()


def route_urls(n: int):
    """The six ``portal_cold`` route shapes and a day's job list; ``n``
    moves every window and threshold so that no two calls share a cache
    entry."""
    rows = JobRecord.objects.all().values_list(
        "jobid", "user", "executable", "run_time", "end_time")
    by_exe = {}
    for _, _, exe, run_time, _ in rows:
        by_exe.setdefault(exe, []).append(run_time)
    wide_exe, times = max(by_exe.items(), key=lambda kv: len(kv[1]))
    threshold = sorted(times, reverse=True)[WIDE_MATCHES - 1 - n]
    lo = T0 + 3600 * (2 + n)
    return {
        "front": f"/?v={n}",
        "search": f"/search?user={rows[n][1]}&min_runtime={60 + n}",
        "search_wide": f"/search?exe={wide_exe}&min_runtime={threshold}",
        "job": f"/job/{rows[n][0]}?v={n}",
        "tsdb_host": (f"/tsdb?tag.host=c{n:03d}-{100 + n:03d}&tag.type=cpu"
                      f"&group_by=event&rate=1&range={lo}:{lo + 7200}"),
        "tsdb_fleet": ("/tsdb?tag.type=mdc&group_by=host&downsample=600:avg"
                       f"&range={lo}:{lo + 21600}"),
        "date": (f"/date/{np.datetime64(rows[n][4], 's').astype('M8[D]')}"
                 f"?v={n}"),
    }


def selected_columns(statement: str):
    """The column list of a ``SELECT <columns> FROM ...`` statement."""
    return statement[len("SELECT "):statement.index(" FROM ")].split(", ")


class PlanningDatabase(CountingDatabase):
    """Also keeps each statement's parameters, for its query plan."""

    def __init__(self) -> None:
        super().__init__()
        self.params = []

    def execute(self, sql, params=()):
        self.params.append(tuple(params))
        return super().execute(sql, params)

    def plans(self):
        """``EXPLAIN QUERY PLAN`` details of each recorded statement."""
        return [
            [row[3] for row in self.conn.execute(
                "EXPLAIN QUERY PLAN " + sql, params).fetchall()]
            for sql, params in zip(self.statements, self.params)
        ]


def test_render_counts_gate():
    db = PlanningDatabase()
    generate_population(db, JOBS, seed=SEED)
    JobRecord.bind(db)
    tsdb = TimeSeriesDB()
    prefill(tsdb)
    pipeline = StreamPipeline(Broker(), tsdb=tsdb)
    pipeline.start()
    app = PortalApp(db, stream=pipeline)

    for url in route_urls(0).values():  # lazy imports, first-use plans
        assert app.get_url(url).status == 200
    measured = {}
    for kind, url in route_urls(1).items():
        db.statements.clear()
        db.params.clear()
        profile = cProfile.Profile()
        profile.enable()
        page = app.get_url(url)
        profile.disable()
        assert page.status == 200
        calls = sum(entry.callcount for entry in profile.getstats())
        measured[kind] = {
            "calls": calls,
            "head_calls": HEAD_CALLS[kind],
            "ratio": round(calls / HEAD_CALLS[kind], 3),
            "sql_statements": len(db.statements),
            "sql_columns": [
                "*" if "*" in cols else len(cols)
                for cols in map(selected_columns, db.statements)
            ],
            "body_bytes": len(page.body.encode()),
        }
        if kind in MAX_COLUMNS:
            measured[kind]["query_plan"] = db.plans()

    record_bench(BENCH_JSON, "render", {
        "fixture": (f"{JOBS} jobs seed {SEED}; tsdb {HOSTS} hosts x 33 "
                    f"series x {SAMPLES} samples, sealed"),
        "head_commit": "b5a580a",
        "routes": measured,
    })
    report(
        "Portal render path — Python calls, SQL statements and columns "
        "per miss",
        [(kind, m["head_calls"], m["calls"], m["ratio"],
          MAX_RATIO.get(kind, "-"), m["sql_statements"],
          ",".join(map(str, m["sql_columns"])) or "-")
         for kind, m in measured.items()],
        ["route", "calls @b5a580a", "calls", "ratio", "gate", "SQL",
         "columns"],
    )

    for kind, statements in SQL_STATEMENTS.items():
        assert measured[kind]["sql_statements"] == statements, measured[kind]
    for kind, limit in MAX_COLUMNS.items():
        (columns,) = measured[kind]["sql_columns"]
        assert columns != "*" and columns <= limit, (kind, measured[kind])
    for kind, limit in MAX_RATIO.items():
        assert measured[kind]["ratio"] <= limit, (kind, measured[kind])


# -- the dashboard reload: a live write that misses every window ----------------

#: what one dashboard reload is allowed to recompute after a write that
#: lands outside every plotted window: nothing
RELOAD_HIT_RATIO = 1.0
RELOAD_SCANS = 0


def dashboard_urls():
    """``portal_hot_rw``'s shape: the front page, three searches, five
    host charts and one fleet chart, every window inside the prefill."""
    users = sorted({u for (u,) in JobRecord.objects.all().values_list(
        "user")})[:3]
    urls = ["/"] + [f"/search?user={u}" for u in users]
    for h in range(5):
        lo = T0 + 3600 * (2 + h)
        urls.append(f"/tsdb?tag.host=c{h:03d}-{100 + h:03d}&tag.type=cpu"
                    f"&group_by=event&rate=1&range={lo}:{lo + 7200}")
    urls.append("/tsdb?tag.type=mdc&group_by=host&downsample=600:avg"
                f"&range={T0 + 3600}:{T0 + 7 * 3600}")
    return urls


def test_reload_after_a_write_outside_every_window_gate():
    """A 10-URL dashboard is rendered, one live write lands after every
    window it plots, and the dashboard is rendered again: every TSDB
    query of the second pass is a result-cache hit, no series is
    scanned, and each page equals its render with the caches dropped
    (up to the footer's epoch and hit counts)."""
    import re

    db = CountingDatabase()
    generate_population(db, 500, seed=SEED)
    JobRecord.bind(db)
    tsdb = TimeSeriesDB()
    prefill(tsdb)
    pipeline = StreamPipeline(Broker(), tsdb=tsdb)
    pipeline.start()
    app = PortalApp(db, stream=pipeline)
    urls = dashboard_urls()
    scans = []
    scan = tsdb.scan
    tsdb.scan = lambda *a, **kw: scans.append(1) or scan(*a, **kw)

    def render_all():
        bodies = []
        for url in urls:
            page = app.get_url(url)
            assert page.status == 200, url
            bodies.append(re.sub(r"store epoch \d+ &middot; cache \d+/\d+",
                                 "", page.body))
        return bodies

    render_all()
    tsdb.put("stats", {"host": "c000-100", "type": "cpu", "device": "0",
                       "event": "user"}, T0 + SAMPLES * INTERVAL, 1.0)
    hits, misses, scans[:] = tsdb.cache.hits, tsdb.cache.misses, []
    got = render_all()
    hits, misses = tsdb.cache.hits - hits, tsdb.cache.misses - misses
    reloaded_scans = len(scans)
    tsdb.drop_read_caches()
    assert render_all() == got

    ratio = hits / (hits + misses)
    record_bench(BENCH_JSON, "reload", {
        "fixture": (f"500 jobs seed {SEED}; tsdb {HOSTS} hosts x 33 series "
                    f"x {SAMPLES} samples, sealed; one write after every "
                    "window"),
        "dashboard_urls": len(urls),
        "result_cache_hits": hits,
        "result_cache_misses": misses,
        "result_cache_hit_ratio": ratio,
        "scan_calls": reloaded_scans,
    })
    report(
        "Dashboard reload after a write outside every window",
        [(len(urls), hits, misses, ratio, RELOAD_HIT_RATIO, reloaded_scans,
          RELOAD_SCANS)],
        ["urls", "result hits", "misses", "hit ratio", "gate", "scans",
         "gate"],
    )
    assert hits > 0 and ratio >= RELOAD_HIT_RATIO
    assert reloaded_scans <= RELOAD_SCANS
