"""The rewritten render path against its frozen oracle, byte for byte.

``tests/test_portal/reference.py`` holds the code PR 17 replaced; every
property here renders the same input through it and through production
and requires equal characters — and that production raises no warning
category the oracle does not raise too.  The oracle reads full records
(``SELECT *``); production's job-table pages read the columns they show
(``QuerySet.only``), so the whole-page tests also hold that a page from
partial records is the page from full ones.
"""

from __future__ import annotations

import json
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.popgen import generate_population
from repro.broker import Broker
from repro.cli import main as cli_main
from repro.db import (
    BooleanField,
    Database,
    FieldNotLoaded,
    FloatField,
    IntegerField,
    Model,
    TextField,
)
from repro.db.fields import JSONField
from repro.db.models import ModelMeta
from repro.pipeline.records import JobRecord
from repro.portal import histograms, plots, render, views
from repro.portal.app import PortalApp
from repro.portal.views import LIST_COLUMNS, JobListView
from repro.stream import StreamPipeline
from repro.tsdb import TimeSeriesDB
from repro.tsdb.query import QueryResult, ResultSeries

from tests.test_portal import reference
from tests.test_portal.test_render_path import CountingDatabase

#: what HTML escapes, a quote of each kind, and text outside ASCII
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("<&\"'> ab/"),
        st.characters(blacklist_categories=("Cs",),
                      blacklist_characters="\x00"),
    ),
    max_size=12,
)
_EDGE_FLOATS = (
    0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300,
    float("nan"), float("inf"), float("-inf"),
)
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e6, 1e6),
)


def _both(new, old, *args, **kwargs):
    """Call both; return their results after checking the warnings."""
    outcomes = []
    for fn in (new, old):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(*args, **kwargs)
        outcomes.append((out, {w.category for w in caught}))
    (got, got_warned), (want, want_warned) = outcomes
    assert got_warned <= want_warned
    return got, want


# -- row hydration ------------------------------------------------------------------
class Rec(Model):
    table_name = "rec"
    user = TextField(default="")
    exe = TextField(null=True)
    nodes = IntegerField(default=1)
    ratio = FloatField(null=True)
    active = BooleanField(null=True, default=True)
    flags = JSONField(null=True, default="[]")


_REC_COLUMNS = ("id",) + tuple(n for n in Rec._fields if n != "id")
_REC_ROW = st.tuples(
    st.none() | _TEXT,
    st.none() | _TEXT,
    st.none() | st.integers(-2**63, 2**63 - 1),
    st.none() | st.floats(allow_nan=False),
    st.none() | st.integers(0, 2),
    st.none() | st.just("[]")
    | st.lists(_TEXT, max_size=3).map(json.dumps),
)
#: result shapes: ``*``, reordered subsets, an extra column, one name
#: selected twice (``sqlite3.Row`` reads the first)
_REC_SELECT = st.one_of(
    st.just("*"),
    st.lists(st.sampled_from(_REC_COLUMNS), min_size=1, unique=True).flatmap(
        lambda cols: st.sampled_from([
            ", ".join(cols),
            ", ".join(cols + ["42 AS extra"]),
            ", ".join(["nodes + 1 AS bonus"] + cols),
            ", ".join(cols + ["ratio AS nodes"]),
        ])
    ),
)


def _state(obj):
    """Attribute names in order, with each value's type and repr."""
    return [(k, type(v), repr(v)) for k, v in vars(obj).items()]


def _rec_db(ddl_columns: str, rows) -> Database:
    db = Database()
    db.execute(f"CREATE TABLE rec (id INTEGER PRIMARY KEY, {ddl_columns})")
    names = [c.split()[0] for c in ddl_columns.split(", ")]
    db.executemany(
        f"INSERT INTO rec ({', '.join(names)}) "
        f"VALUES ({', '.join('?' for _ in names)})",
        [row[:len(names)] for row in rows],
    )
    db.commit()
    return db


@given(rows=st.lists(_REC_ROW, max_size=5), select=_REC_SELECT)
def test_hydrator_matches_from_row(rows, select):
    db = _rec_db(
        "user TEXT, exe TEXT, nodes INTEGER, ratio REAL, active INTEGER, "
        "flags TEXT", rows,
    )
    cur = db.execute(f"SELECT {select} FROM rec ORDER BY id")
    fetched = cur.fetchall()
    columns = tuple(d[0] for d in cur.description)
    got = Rec._hydrator(columns)([tuple(r) for r in fetched])
    want = [reference.from_row(Rec, r) for r in fetched]
    assert [_state(o) for o in got] == [_state(o) for o in want]


@given(rows=st.lists(_REC_ROW, max_size=5))
def test_queryset_read_matches_oracle_on_a_table_missing_columns(rows):
    """A database written before ``sync_table`` added ``ratio`` and
    ``flags``: both read as ``from_db(None)``."""
    Rec.bind(_rec_db("user TEXT, exe TEXT, nodes INTEGER, active INTEGER",
                     [r[:3] + r[4:5] for r in rows]))
    qs = Rec.objects.all().order_by("id")
    got, want = list(iter(qs)), reference.fetch(qs)
    assert [_state(o) for o in got] == [_state(o) for o in want]
    assert all(o.ratio is None and o.flags is None for o in got)
    assert [_state(o) for o in qs[1:3]] == [_state(o) for o in want[1:3]]


def test_hydrator_stores_names_that_are_not_attribute_syntax():
    """A field called ``pass`` is legal through the metaclass; the
    compiled plan must not trip over it."""
    Odd = ModelMeta("Odd", (Model,), {
        "table_name": "odd", "pass": IntegerField(default=0),
        "ok": BooleanField(default=False),
    })
    db = Database()
    Odd.bind(db)
    Odd.create_table()
    db.execute("INSERT INTO odd (pass, ok) VALUES (7, 1)")
    (got,) = list(iter(Odd.objects.all()))
    (want,) = reference.fetch(Odd.objects.all())
    assert _state(got) == _state(want)
    assert getattr(got, "pass") == 7 and got.ok is True


# -- the job table ----------------------------------------------------------------------
_CELL = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT,
    _FLOATS.map(np.float64), st.integers(-9, 9).map(np.int64),
    st.lists(_TEXT, max_size=2),
)
#: arbitrary records: any cell type, any subset of the columns present
_LOOSE_RECORD = st.dictionaries(
    st.sampled_from(LIST_COLUMNS), _CELL
).map(lambda attrs: SimpleNamespace(**attrs))


@given(records=st.lists(_LOOSE_RECORD, max_size=4))
def test_job_table_matches_oracle_on_any_cells(records):
    assert PortalApp._job_table(records) == reference.job_table(records)
    assert JobListView(records).rows() == reference.list_rows(records)


@given(
    rows=st.lists(
        st.tuples(_TEXT, _TEXT, _TEXT, _TEXT,
                  st.integers(0, 2**40), _FLOATS.filter(lambda x: x == x),
                  st.none() | st.just("[]")
                  | st.lists(_TEXT, min_size=1, max_size=3).map(json.dumps)),
        max_size=4,
    )
)
def test_job_table_matches_oracle_on_stored_records(rows):
    """Text with ``<&"'>`` and non-ASCII through SQLite and back, flags
    NULL / ``[]`` / non-empty."""
    db = Database()
    JobRecord.bind(db)
    JobRecord.create_table()
    db.executemany(
        "INSERT INTO job (jobid, user, executable, job_name, start_time, "
        "node_hours, flags) VALUES (?, ?, ?, ?, ?, ?, ?)", rows,
    )
    qs = JobRecord.objects.all().order_by("id")
    got, want = list(iter(qs)), reference.fetch(qs)
    assert [_state(o) for o in got] == [_state(o) for o in want]
    assert PortalApp._job_table(got) == reference.job_table(want)


# -- sparklines and panels --------------------------------------------------------------
@st.composite
def _matrices(draw, max_rows=20, max_cols=12):
    n = draw(st.integers(1, max_rows))
    width = draw(st.integers(1, max_cols))
    kind = draw(st.sampled_from(("mixed", "mixed", "constant", "all_nan")))
    if kind == "constant":
        return np.full((n, width), draw(_FLOATS))
    if kind == "all_nan":
        return np.full((n, width), np.nan)
    cells = draw(st.lists(_FLOATS, min_size=n * width, max_size=n * width))
    return np.array(cells, dtype=float).reshape(n, width)


@given(
    values=st.lists(_FLOATS, max_size=40),
    bounds=st.none() | st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9)),
)
def test_sparkline_matches_oracle(values, bounds):
    lo, hi = bounds or (None, None)
    got, want = _both(plots.sparkline, reference.sparkline,
                      np.array(values), lo, hi)
    assert got == want


@given(
    series=_matrices(),
    max_hosts=st.integers(0, 22),
    t0=st.floats(-1e9, 2e9),
    steps=st.lists(st.floats(0.0, 1e4), min_size=12, max_size=12),
    label=_TEXT,
)
def test_render_panel_svg_matches_oracle(series, max_hosts, t0, steps, label):
    times = t0 + np.cumsum(steps)[:series.shape[1]]
    panel = plots.Panel(key="k", label=label, times=times, series=series,
                        hosts=["h"] * len(series))
    got, want = _both(plots.render_panel_svg, reference.render_panel_svg,
                      panel, max_hosts=max_hosts)
    assert got == want


def test_render_panel_svg_all_nan_is_the_oracles_bytes():
    """Empty polylines and ``nan`` axis labels, as before."""
    panel = plots.Panel(key="k", label="x", times=np.arange(4.0),
                        series=np.full((2, 4), np.nan), hosts=["a", "b"])
    got, want = _both(plots.render_panel_svg, reference.render_panel_svg,
                      panel)
    assert got == want
    assert got.count('<polyline points=""') == 2 and ">nan</text>" in got


def test_a_flat_series_past_2_53_draws_its_points():
    """``lo + 1.0 == lo`` from 2**53 up: the flat line is drawn on the
    axis, not at ``nan``, and nothing warns."""
    panel = plots.Panel(key="k", label="x", times=np.arange(3.0),
                        series=np.full((1, 3), 2.0**60), hosts=["a"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = plots.render_panel_svg(panel)
    assert 'points="48.0,106.0 341.0,106.0 634.0,106.0"' in svg


def _beside(x: float):
    """``x`` and the doubles either side of it."""
    return st.sampled_from([np.nextafter(x, -np.inf), x,
                            np.nextafter(x, np.inf)])


#: exact ``k / 20`` ties (where binary has them) and every other
#: twentieth up past the 640-wide table, with their neighbours; signed
#: zeros, subnormals, the table's end, non-finite values, negatives
_COORDS = st.one_of(
    st.integers(0, 12_900).map(lambda k: k / 20).flatmap(_beside),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 640.0,
        640.04, 640.05, 640.1, 1638.4, 1e300, float("nan"),
        float("inf"), float("-inf"), -0.04, -0.05, -1.25,
    ]).flatmap(_beside),
    st.floats(-10.0, 700.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _percent_words(coords):
    return [("%.1f " if i & 1 else "%.1f,") % c for i, c in enumerate(coords)]


@given(coords=st.integers(0, 20).flatmap(
    lambda n: st.lists(_COORDS, min_size=2 * n, max_size=2 * n)))
def test_point_words_print_what_percent_prints(coords):
    xy = np.array(coords, dtype=float).reshape(-1, 2)
    assert plots._point_words(xy, 640) == _percent_words(coords)


def test_point_words_on_every_tenth_of_the_canvas():
    """Every tenth of a 640 x 160 canvas and the doubles beside it."""
    tenths = np.arange(6401) / 10
    x = np.concatenate([np.nextafter(tenths, -np.inf), tenths,
                        np.nextafter(tenths, np.inf)])
    xy = np.stack([x, x % 160.1], axis=1)
    assert plots._point_words(xy, 640) == _percent_words(xy.ravel().tolist())


# -- TSDB result charts -----------------------------------------------------------------
_TAGS = st.dictionaries(st.sampled_from(("host", "event", "x<y")), _TEXT,
                        max_size=2)


@st.composite
def _results(draw):
    """Shared grids (one array object, equal copies, or a grid with a
    repeated timestamp) and ragged ones, down to empty series."""
    n = draw(st.integers(0, 6))
    grid = draw(st.sampled_from(("same", "equal", "repeated", "ragged")))
    width = draw(st.integers(0, 10))
    base = np.cumsum(draw(st.lists(
        st.integers(0 if grid == "repeated" else 1, 600),
        min_size=width, max_size=width,
    ))).astype(np.int64)
    # all-finite results are what takes the row-reduction form
    cell = _FLOATS.filter(np.isfinite) if draw(st.booleans()) else _FLOATS
    out = []
    for _ in range(n):
        if grid == "ragged":
            keep = draw(st.lists(st.booleans(), min_size=width,
                                 max_size=width))
            times = base[np.array(keep, dtype=bool)]
        else:
            times = base if grid != "equal" else base.copy()
        values = np.array(
            draw(st.lists(cell, min_size=len(times), max_size=len(times))),
            dtype=float,
        )
        out.append(ResultSeries(tags=draw(_TAGS), times=times, values=values))
    return QueryResult(series=out)


@given(result=_results(), label=st.sampled_from(("", "stats", "a<b")))
def test_result_renderers_match_oracle(result, label):
    for new, old in (
        (render.render_result_ascii, reference.render_result_ascii),
        (render.render_result_svg, reference.render_result_svg),
        (render.render_result_html, reference.render_result_html),
    ):
        got, want = _both(new, old, result, label=label)
        assert got == want


def test_row_reductions_keep_the_sign_of_zero():
    """The shared-grid form reduces rows of one matrix where the oracle
    reduced each series alone; NumPy's SIMD min/max may pick either
    signed zero depending on how a reduction is blocked, and ``-0``
    would show in the chart's scale line.  Rows of ±0.0 at every length
    the vector loops treat differently must render alike."""
    rng = np.random.default_rng(17)
    for width in list(range(1, 70)) + [127, 128, 129, 300]:
        times = np.arange(width, dtype=np.int64) * 60
        zeros = np.where(rng.random((5, width)) < 0.5, 0.0, -0.0)
        result = QueryResult(series=[
            ResultSeries(tags={"host": str(i)}, times=times, values=row)
            for i, row in enumerate(zeros)
        ])
        assert (render.render_result_html(result)
                == reference.render_result_html(result)), width


# -- whole pages ------------------------------------------------------------------------
_EVENTS = {"cpu": ("user", "system", "idle"), "mdc": ("reqs", "wait_us")}


@pytest.fixture(scope="module")
def cold_portal():
    """The ``portal_cold`` fixture in small: a generated population, a
    prefilled sealed TSDB and a started stream pipeline on it."""
    db = CountingDatabase()
    generate_population(db, 300, seed=5)
    tsdb = TimeSeriesDB()
    rng = np.random.default_rng(5)
    times = 1_443_657_600 + 60 * np.arange(240, dtype=np.int64)
    for h in range(6):
        for type_name, events in _EVENTS.items():
            for event in events:
                tsdb.put_many(
                    "stats",
                    {"host": f"c{h:03d}", "type": type_name, "device": "0",
                     "event": event},
                    times,
                    np.cumsum(rng.integers(0, 1 << 20, size=240)) + float(h),
                )
    tsdb.seal_heads()
    pipeline = StreamPipeline(Broker(), tsdb=tsdb)
    pipeline.start()
    return PortalApp(db, stream=pipeline), db, int(times[0])


def test_six_route_shapes_render_the_oracles_bytes(cold_portal):
    app, db, t0 = cold_portal
    JobRecord.bind(db)
    rows = JobRecord.objects.all().values_list("jobid", "user", "executable")
    jobid, user, _ = rows[0]
    executables = [exe for _, _, exe in rows]
    wide = max(set(executables), key=executables.count)
    urls = {
        "front": "/",
        "search": f"/search?user={user}&min_runtime=60",
        "search_wide": f"/search?exe={wide}&min_runtime=1",
        "job": f"/job/{jobid}",
        "tsdb_host": ("/tsdb?tag.host=c002&tag.type=cpu&group_by=event"
                      f"&rate=1&range={t0 + 600}:{t0 + 7800}"),
        "tsdb_fleet": ("/tsdb?tag.type=mdc&group_by=host"
                       f"&downsample=600:avg&range={t0}:{t0 + 14400}"),
    }

    def render_all():
        pages = {}
        for kind, url in urls.items():
            resp = app.get_url(url)
            assert resp.status == 200, (kind, resp.body[:200])
            # the footer's live query-cache tally moves between renders
            pages[kind] = re.sub(r"cache \d+/\d+ hits", "cache N hits",
                                 resp.body)
        return pages

    got = render_all()
    with reference.reference_portal():
        want = render_all()
    assert got == want
    assert got["search_wide"].count("<tr>") > 50
    assert got["tsdb_fleet"].count("<polyline") == 6
    assert got["tsdb_host"].count("<polyline") == 3


def _job_table_urls(db):
    JobRecord.bind(db)
    rows = JobRecord.objects.all().values_list(
        "user", "executable", "queue", "status", "end_time", "MetaDataRate")
    user, exe, queue, status, end_time, _ = rows[0]
    day = np.datetime64(int(end_time), "s").astype("datetime64[D]")
    rate = sorted(r[-1] for r in rows if r[-1] is not None)[len(rows) // 2]
    return {
        "front": "/",
        "narrow": f"/search?user={user}&min_runtime=60",
        "wide": "/search?min_runtime=1",
        "none": "/search?user=nobody",
        "by_exe": f"/search?exe={exe[:4]}",
        "by_queue": f"/search?queue={queue}",
        "by_status": f"/search?status={status}",
        "three_fields": (f"/search?f1=MetaDataRate__gte&v1={rate}"
                         "&f2=CPU_Usage__gt&v2=0.05&f3=MemUsage__lte&v3=1e12"),
        "date": f"/date/{day}",
    }


def test_job_table_pages_from_partial_records_are_the_full_record_pages(
    cold_portal,
):
    app, db, _ = cold_portal
    urls = _job_table_urls(db)

    def render_all():
        db.statements.clear()
        pages = {}
        for kind, url in urls.items():
            resp = app.get_url(url)
            assert resp.status == 200, (kind, resp.body[:200])
            pages[kind] = resp.body
        return pages, list(db.statements)

    got, statements = render_all()
    with reference.reference_portal():
        want, full_statements = render_all()
    assert got == want
    # one statement a page on both sides: production's names the columns
    # the page shows, the oracle's reads every column
    assert len(statements) == len(full_statements) == len(urls)
    assert all(s.startswith("SELECT id, jobid, user, ") for s in statements)
    assert all(s.startswith("SELECT * FROM job") for s in full_statements)
    assert "<h2>0 jobs</h2>" in got["none"]
    assert got["wide"].count("<tr>") == 201 < int(
        re.search(r"<h2>(\d+) jobs</h2>", got["wide"]).group(1))
    for kind in ("narrow", "by_exe", "by_queue", "by_status", "three_fields",
                 "date", "front"):
        assert got[kind].count("<tr>") > 1, kind
    assert "<h2>Flagged (0)</h2>" not in got["front"]


def test_repro_search_prints_the_same_from_partial_records(tmp_path, capsys):
    path = str(tmp_path / "jobs.db")
    with Database(path) as db:
        generate_population(db, 300, seed=5)
    argv = ["search", "--db", path, "--min-runtime", "1", "--histograms",
            "--limit", "25"]

    def run():
        assert cli_main(argv) == 0
        return capsys.readouterr().out

    got = run()
    with reference.reference_portal():
        want = run()
    assert got == want
    assert "flagged (" in got and "Metadata Reqs" in got


def test_the_selected_columns_follow_the_constants_the_readers_use(
    cold_portal, monkeypatch,
):
    """No page types its column list: a column added to the job list or
    a panel added to the quartet is selected because it is shown."""
    app, db, _ = cold_portal
    urls = _job_table_urls(db)
    before = {k: app.get_url(urls[k]).body for k in ("front", "wide", "date")}
    monkeypatch.setattr(views, "LIST_COLUMNS", LIST_COLUMNS + ("account",))
    monkeypatch.setattr(
        histograms, "DEFAULT_PANELS",
        histograms.DEFAULT_PANELS + (("CPU_Usage", "CPU usage"),))
    db.statements.clear()
    after = {k: app.get_url(urls[k]).body for k in before}
    assert all(" account" in s for s in db.statements)
    assert " CPU_Usage" in db.statements[1]
    # the row template is fixed at import, so the tables are unchanged;
    # the search page grew its fifth panel
    assert after["front"] == before["front"]
    assert after["date"] == before["date"]
    assert after["wide"].startswith(before["wide"].split("</pre>")[0])
    assert "CPU usage  (n=" in after["wide"]
    assert "CPU usage  (n=" not in before["wide"]


def test_a_page_handed_records_lacking_a_shown_column_raises(cold_portal):
    """... instead of printing ``None`` in the cell or a histogram of
    zeros, which is what ``getattr(r, col, None)`` would make of an
    ``AttributeError``."""
    _app, db, _ = cold_portal
    JobRecord.bind(db)
    short = JobRecord.objects.all().only(*LIST_COLUMNS[:-1])[:3]
    with pytest.raises(FieldNotLoaded, match=LIST_COLUMNS[-1]):
        PortalApp._job_table(short)
    with pytest.raises(FieldNotLoaded, match=LIST_COLUMNS[-1]):
        JobListView(short).rows()
    with pytest.raises(FieldNotLoaded, match="queue_wait"):
        histograms.job_histograms(short)
    shown = JobRecord.objects.all().only(*LIST_COLUMNS)[:3]
    assert "None" not in PortalApp._job_table(shown)
