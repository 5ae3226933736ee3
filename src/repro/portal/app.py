"""The portal application: routed pages over the job database.

The paper's portal is a Django site (Fig. 3).  This module provides
the equivalent request→page layer without an HTTP server: a small
router dispatching path patterns to view functions that render HTML.
Wire it to any WSGI shim if serving is desired; tests and the
examples drive :meth:`PortalApp.get` directly.

Routes
------
``/``                     front page: recent jobs + flagged sublist
``/search``               query params: user, exe, queue, status,
                          f1..f3 (``Metric__op``), v1..v3 (thresholds)
``/job/<jobid>``          detail page (metrics, flags, processes,
                          XALT environment when the plugin is wired)
``/date/<YYYY-MM-DD>``    all jobs that ended on a day (Fig. 3 calendar)
``/fleet``                XDMOD-style rollup; with a live stream
                          attached, fleet health, the alert feed and a
                          cached live-TSDB activity chart
``/tsdb``                 ad-hoc plot endpoint over the live TSDB:
                          ``metric``, ``tag.<name>=v`` filters,
                          ``group_by`` (comma list), ``agg``, ``rate``,
                          ``downsample=<s>:<agg>``, ``range=<lo>:<hi>``
                          — served through the TSDB's query-result
                          cache
``/obs``                  the monitor's own metrics + span stats
``/analytics``            continuous fleet analytics: job classes,
                          per-user/app efficiency, feed sketches
                          (``format=json`` for the raw summary)
"""

from __future__ import annotations

import datetime as _dt
import html
import re
from urllib.parse import parse_qsl, urlsplit
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.core.store import CentralStore
from repro.db.connection import Database
from repro.pipeline.records import JobRecord
from repro.portal import histograms, views
from repro.portal.reports import _PAGE, render_detail_html, render_job_table
from repro.portal.search import JobSearch, SearchField, browse_date
from repro.portal.views import JobDetailView, JobListView


def _int_param(name: str, raw: str) -> int:
    """Parse a user-supplied integer param; ValueError → a 400 page."""
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _float_param(name: str, raw) -> float:
    """Parse a user-supplied float param; ValueError → a 400 page."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if value != value:  # NaN poisons thresholds and axis scaling
        raise ValueError(f"{name} must not be NaN")
    return value


@dataclass
class Response:
    """What a route handler returns."""

    status: int = 200
    content_type: str = "text/html"
    body: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200


class PortalApp:
    """Router + view functions over one job database."""

    def __init__(
        self,
        db: Database,
        store: Optional[CentralStore] = None,
        jobs: Optional[Mapping] = None,
        xalt=None,
        stream=None,
    ) -> None:
        self.db = db
        self.store = store
        self.jobs = jobs
        self.xalt = xalt
        #: optional live StreamPipeline: /fleet gains a live-health
        #: section with the alert feed when one is attached
        self.stream = stream
        self._routes: List[Tuple[re.Pattern, Callable]] = [
            (re.compile(r"^/$"), self.front_page),
            (re.compile(r"^/search$"), self.search),
            (re.compile(r"^/job/(?P<jobid>[^/]+)$"), self.job_detail),
            (re.compile(r"^/date/(?P<day>\d{4}-\d{2}-\d{2})$"),
             self.by_date),
            (re.compile(r"^/fleet$"), self.fleet),
            (re.compile(r"^/tsdb$"), self.tsdb_plot),
            (re.compile(r"^/obs$"), self.obs_page),
            (re.compile(r"^/analytics$"), self.analytics_page),
        ]

    # -- dispatch ----------------------------------------------------------
    def get_url(self, url: str) -> Response:
        """Handle a full URL with a query string, e.g.
        ``/search?exe=wrf&f1=MetaDataRate__gt&v1=10000``.

        Duplicate query parameters are **first-wins**: repeating a key
        with the same value is accepted (and collapsed), repeating it
        with a *different* value is a 400 — silently keeping one of two
        conflicting filters would report results for a query the user
        did not ask.
        """
        parts = urlsplit(url)
        params: Dict[str, str] = {}
        for key, value in parse_qsl(parts.query):
            if key in params and params[key] != value:
                return Response(status=400, body=self._error(
                    f"conflicting values for query parameter {key!r}: "
                    f"{params[key]!r} vs {value!r}"
                ))
            params.setdefault(key, value)
        return self.get(parts.path, params)

    def get(self, path: str, params: Optional[Dict[str, str]] = None) -> Response:
        """Handle one request path; returns a Response."""
        JobRecord.bind(self.db)
        params = params or {}
        for pattern, handler in self._routes:
            m = pattern.match(path)
            if m:
                try:
                    return handler(params, **m.groupdict())
                except ValueError as exc:
                    return Response(status=400, body=self._error(str(exc)))
        return Response(status=404, body=self._error(f"no route: {path}"))

    @staticmethod
    def _error(msg: str) -> str:
        return _PAGE.format(title="Error", body=f"<p>{html.escape(msg)}</p>")

    # -- pages -------------------------------------------------------------
    def front_page(self, params: Dict[str, str]) -> Response:
        # a job-table page selects what it shows: the table's columns
        # (read where ``JobListView.cells`` reads them) and ``flags``
        records = JobRecord.objects.all().order_by("-end_time").only(
            *views.LIST_COLUMNS, "flags"
        )[:50]
        flagged = [r for r in records if r.flags]
        body = [self._search_form()]
        body.append(f"<h2>Recent jobs ({len(records)})</h2>")
        body.append(self._job_table(records))
        body.append(f"<h2>Flagged ({len(flagged)})</h2><ul>")
        for r in flagged:
            body.append(
                f'<li><a href="/job/{r.jobid}">{r.jobid}</a> '
                f"{html.escape(r.user)} {html.escape(r.executable)}: "
                f"{html.escape(', '.join(r.flags))}</li>"
            )
        body.append("</ul>")
        return Response(body=_PAGE.format(
            title="TACC Stats", body="".join(body)
        ))

    def search(self, params: Dict[str, str]) -> Response:
        fields = []
        for i in (1, 2, 3):
            spec = params.get(f"f{i}")
            value = params.get(f"v{i}")
            if spec and value is not None:
                fields.append(
                    SearchField.parse(spec, _float_param(f"v{i}", value))
                )
        search = JobSearch(
            user=params.get("user") or None,
            executable=params.get("exe") or None,
            queue=params.get("queue") or None,
            status=params.get("status") or None,
            min_run_time=_int_param("min_runtime", params["min_runtime"])
            if params.get("min_runtime") else None,
            fields=fields,
        )
        return Response(body=_PAGE.format(
            title="Search results",
            body=self._search_form(params) + self._search_results(search),
        ))

    def job_detail(self, params: Dict[str, str], jobid: str) -> Response:
        record = JobRecord.objects.filter(jobid=jobid).first()
        if record is None:
            return Response(status=404,
                            body=self._error(f"job {jobid} not found"))
        if self.store is not None:
            try:
                view = JobDetailView.load(
                    jobid, self.store, self.jobs, record=record
                )
                page = render_detail_html(view)
            except (KeyError, ValueError):
                page = self._record_only_page(record)
        else:
            page = self._record_only_page(record)
        if self.xalt is not None:
            page = page.replace(
                "</body>", self._xalt_section(jobid) + "</body>"
            )
        return Response(body=page)

    def by_date(self, params: Dict[str, str], day: str) -> Response:
        try:
            start = int(_dt.datetime.strptime(day, "%Y-%m-%d")
                        .replace(tzinfo=_dt.timezone.utc).timestamp())
        except (OverflowError, OSError) as exc:
            # strptime already raises ValueError (→ 400) for nonsense
            # like month 13; .timestamp() can instead overflow on
            # platform-edge dates, which must be a 400 too.
            raise ValueError(f"date out of range: {day}") from exc
        records = browse_date(start, only=views.LIST_COLUMNS)
        body = [f"<h2>Jobs completed on {day} ({len(records)})</h2>",
                self._job_table(records)]
        return Response(body=_PAGE.format(
            title=f"Jobs on {day}", body="".join(body)
        ))

    def fleet(self, params: Dict[str, str]) -> Response:
        """The XDMOD-style rollup page (§I reporting), plus — when a
        live :class:`~repro.stream.pipeline.StreamPipeline` is attached
        — the current fleet health: in-flight jobs and the alert feed."""
        from repro.analysis.fleet import fleet_report

        sections: List[str] = []
        try:
            rep = fleet_report(top=_int_param("top", params.get("top", "10")))
            sections.append(
                "<pre>" + html.escape(rep.render_text()) + "</pre>"
            )
        except LookupError:
            if self.stream is None:
                return Response(status=404,
                                body=self._error("job table is empty"))
            sections.append("<p>job table is empty</p>")
        if self.stream is not None:
            sections.append(self._live_section())
        return Response(body=_PAGE.format(
            title="Fleet report", body="".join(sections)
        ))

    @staticmethod
    def _read_path_line(tsdb) -> str:
        """Render :meth:`TimeSeriesDB.read_stats` — the result cache,
        the decoded-buffer cache and pre-aggregate skips are distinct
        accelerators and report separately."""
        read_stats = getattr(tsdb, "read_stats", None)
        if read_stats is None:
            return ""
        stats = read_stats()

        def _cache(label: str, c) -> str:
            return (
                f" &middot; {label}: {c['hits']} hits / "
                f"{c['misses']} misses "
                f"({100.0 * c['hit_ratio']:.0f}% hit, "
                f"{c['entries']} entries)"
            )

        pre = stats["preagg"]
        return (
            _cache("result cache", stats["result_cache"])
            + _cache("buffer cache", stats["buffer_cache"])
            + f" &middot; preagg: {pre['chunks_skipped']} chunk decodes "
            f"skipped over {pre['windows']} windows"
        )

    def _live_section(self) -> str:
        s = self.stream
        cache_line = self._read_path_line(s.tsdb)
        parts = [
            "<h2>Live health</h2>",
            f"<p>in-flight jobs: {s.analyzer.inflight} &middot; "
            f"samples streamed: {s.samples} &middot; "
            f"tsdb: {s.tsdb.n_series()} series / "
            f"{s.tsdb.n_points()} points in "
            f"{s.tsdb.n_chunks()} sealed chunks "
            f"({s.tsdb.storage_bytes():,} B at rest) &middot; "
            f"alerts: {len(s.alerts.ledger)} "
            f"(suppressed {s.alerts.suppressed})"
            f"{cache_line}</p>",
            self._live_activity_chart(),
            "<h3>Alert feed</h3>",
        ]
        recent = s.alerts.recent(20)
        if not recent:
            parts.append("<p>no alerts</p>")
            return "".join(parts)
        parts.append(
            "<table><tr><th>fired at</th><th>severity</th><th>rule</th>"
            "<th>job</th><th>value</th><th>threshold</th>"
            "<th>detail</th></tr>"
        )
        for a in recent:
            parts.append(
                f"<tr><td>{a.fired_at}</td>"
                f"<td>{html.escape(a.severity)}</td>"
                f"<td>{html.escape(a.rule)}</td>"
                f'<td><a href="/job/{html.escape(a.jobid)}">'
                f"{html.escape(a.jobid)}</a></td>"
                f"<td>{a.value:,.3g}</td><td>{a.threshold:,.3g}</td>"
                f"<td>{html.escape(a.detail)}</td></tr>"
            )
        parts.append("</table>")
        return "".join(parts)

    def _live_activity_chart(self) -> str:
        """Fleet-wide per-host activity off the live TSDB, rendered
        through the cached query path (repeat page loads hit)."""
        from repro.tsdb.query import query
        from repro.portal.render import render_result_ascii

        s = self.stream
        try:
            with obs.span("tsdb.query"):
                res = query(
                    s.tsdb, s.metric, group_by=("host",), aggregate="sum",
                    rate=True, downsample=(600, "avg"),
                )
        except ValueError:
            return ""
        if not res.series:
            return ""
        with obs.span("portal.chart"):
            chart = render_result_ascii(
                res, label=f"{s.metric} rate by host (600 s avg)"
            )
        return (
            "<h3>Live activity</h3><pre>" + html.escape(chart) + "</pre>"
        )

    def tsdb_plot(self, params: Dict[str, str]) -> Response:
        """Ad-hoc aggregation plots over the live TSDB (§VI-A graphs).

        Query parameters mirror :func:`repro.tsdb.query.query`; every
        request is served through the store's query-result cache, so a
        reload costs one lookup while no write touched the window.
        """
        if self.stream is None:
            return Response(
                status=404, body=self._error("no live TSDB attached")
            )
        from repro.tsdb.query import query
        from repro.portal.render import render_result_html

        tsdb = self.stream.tsdb
        metric = params.get("metric", self.stream.metric)
        tags = {
            k[len("tag."):]: v for k, v in params.items()
            if k.startswith("tag.") and v
        }
        group_by = tuple(
            g for g in params.get("group_by", "").split(",") if g
        )
        downsample = None
        if params.get("downsample"):
            interval_s, _, agg = params["downsample"].partition(":")
            interval = _int_param("downsample interval", interval_s)
            if interval <= 0:
                raise ValueError(
                    f"downsample interval must be positive, got {interval}"
                )
            downsample = (interval, agg or "avg")
        time_range = None
        if params.get("range"):
            lo, _, hi = params["range"].partition(":")
            time_range = (
                _int_param("range start", lo), _int_param("range end", hi)
            )
        width = _float_param("width", params.get("width", 2.0**64))
        if width <= 0:
            raise ValueError(f"counter width must be positive, got {width}")
        with obs.span("tsdb.query"):
            res = query(
                tsdb, metric,
                tags=tags or None,
                group_by=group_by,
                aggregate=params.get("agg", "sum"),
                rate=params.get("rate", "") in ("1", "true", "yes"),
                counter_width=width,
                downsample=downsample,
                time_range=time_range,
            )
        label = metric + (f" {tags}" if tags else "")
        cache = tsdb.cache
        footer = (
            f"<p>{len(res)} series &middot; store epoch {tsdb.epoch}"
            f" &middot; cache {cache.hits}/{cache.hits + cache.misses}"
            f" hits</p>"
        )
        with obs.span("portal.chart"):
            chart = render_result_html(res, label=label)
        body = f"<h2>tsdb: {html.escape(label)}</h2>" + chart + footer
        return Response(body=_PAGE.format(title="TSDB query", body=body))

    def obs_page(self, params: Dict[str, str]) -> Response:
        """The monitor's own telemetry: metrics registry + span stats."""
        if params.get("format") == "json":
            return Response(
                content_type="application/json", body=obs.render_json()
            )
        tracer = obs.get_tracer()
        span_rows = ["<table><tr><th>span</th><th>count</th>"
                     "<th>total s</th></tr>"]
        names = sorted({s.name for s in tracer.spans()})
        for name in names:
            span_rows.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{tracer.count(name)}</td>"
                f"<td>{tracer.total_seconds(name):.4f}</td></tr>"
            )
        span_rows.append("</table>")
        body = (
            "<h2>Spans</h2>" + "".join(span_rows)
            + "<h2>Metrics</h2><pre>"
            + html.escape(obs.render_text())
            + "</pre>"
        )
        return Response(body=_PAGE.format(title="Self-observability",
                                          body=body))

    def analytics_page(self, params: Dict[str, str]) -> Response:
        """Continuous fleet analytics: scores, classes, distributions.

        Backed by the :class:`~repro.stream.analytics.FleetAnalytics`
        attached to the live stream pipeline; without one the page
        says so rather than 404ing (the route exists whenever the
        portal does).
        """
        import json as _json

        analytics = getattr(self.stream, "analytics", None)
        if analytics is None:
            if params.get("format") == "json":
                return Response(
                    content_type="application/json",
                    body=_json.dumps({"enabled": False}),
                )
            return Response(body=_PAGE.format(
                title="Fleet analytics",
                body="<h2>Fleet analytics</h2>"
                     "<p>No analytics attached — run the stream "
                     "pipeline with a FleetAnalytics instance.</p>",
            ))
        summary = analytics.summary()
        if params.get("format") == "json":
            return Response(
                content_type="application/json",
                body=_json.dumps(
                    {"enabled": True, **summary}, sort_keys=True
                ),
            )
        mean = summary["fleet_efficiency_mean"]
        parts = [
            "<h2>Fleet analytics</h2>",
            f"<p>{summary['jobs_scored']} jobs scored &middot; fleet "
            f"efficiency "
            + (f"{mean:.3f}" if mean is not None else "n/a")
            + f" &middot; {len(summary['classes'])} job classes</p>",
        ]
        parts.append("<h3>Job classes</h3><table><tr><th>class</th>"
                     "<th>jobs</th><th>centroid</th></tr>")
        for cls in summary["classes"]:
            centroid = ", ".join(f"{v:+.2f}" for v in cls["centroid"])
            parts.append(
                f"<tr><td>{cls['id']}</td><td>{cls['jobs']}</td>"
                f"<td>{html.escape(centroid)}</td></tr>"
            )
        parts.append("</table>")
        for title, key in (("Users", "users"), ("Applications", "apps")):
            parts.append(
                f"<h3>{title}</h3><table><tr><th>{title.lower()[:-1]}"
                "</th><th>jobs</th><th>mean eff</th><th>min eff</th>"
                "</tr>"
            )
            groups = summary[key]
            for name in sorted(groups):
                g = groups[name]
                parts.append(
                    f"<tr><td>{html.escape(name)}</td>"
                    f"<td>{g['jobs']}</td><td>{g['mean']:.3f}</td>"
                    f"<td>{g['min']:.3f}</td></tr>"
                )
            parts.append("</table>")
        feeds = summary["feeds"]
        parts.append(
            f"<h3>Counter feeds</h3><p>{len(feeds)} feeds, read from "
            "the live TSDB: each holds what the store holds (the raw "
            "horizon, one value per series and timestamp); quantiles on "
            '<a href="/obs">/obs</a> as repro_stream_feed_sketch</p>'
        )
        return Response(body=_PAGE.format(title="Fleet analytics",
                                          body="".join(parts)))

    # -- fragments ----------------------------------------------------------
    @staticmethod
    def _job_table(records) -> str:
        return render_job_table(list(zip(*JobListView(records).cells())))

    @staticmethod
    def _search_results(search: JobSearch) -> str:
        """The match count, the first 200 matches as the job table and
        the Fig. 4 quartet over all of them, from the rows of one
        statement: the key, the listed columns, the panel fields."""
        panels = histograms.DEFAULT_PANELS
        names = tuple(dict.fromkeys(
            ("id", *views.LIST_COLUMNS, *(f for f, _ in panels))
        ))
        rows = search.rows(*names)
        columns = list(zip(*rows)) or [()] * len(names)
        hists = histograms.column_histograms(
            [columns[names.index(f)] for f, _ in panels], panels
        )
        body = [
            f"<h2>{len(rows)} jobs</h2>",
            render_job_table([c[:200] for c in columns[1:]]),
            "<h2>Histograms</h2><pre>",
        ]
        for h in hists.values():
            body.append(html.escape(histograms.render_ascii(h)))
            body.append("\n")
        body.append("</pre>")
        return "".join(body)

    @staticmethod
    def _search_form(params: Optional[Dict[str, str]] = None) -> str:
        params = params or {}

        def v(name: str) -> str:
            return html.escape(params.get(name, ""))

        return (
            '<form action="/search" method="get">'
            f'user <input name="user" value="{v("user")}"> '
            f'exe <input name="exe" value="{v("exe")}"> '
            f'queue <input name="queue" value="{v("queue")}"> '
            f'field <input name="f1" value="{v("f1")}" '
            'placeholder="MetaDataRate__gt"> '
            f'value <input name="v1" value="{v("v1")}"> '
            "<button>Search</button></form>"
        )

    def _record_only_page(self, record) -> str:
        from repro.metrics.table1 import METRIC_REGISTRY

        rows = ["<table><tr><th>metric</th><th>value</th><th>unit</th></tr>"]
        for name, mdef in METRIC_REGISTRY.items():
            value = getattr(record, name, None)
            shown = "-" if value is None else f"{value:,.4g}"
            rows.append(
                f"<tr><td>{name}</td><td>{shown}</td>"
                f"<td>{mdef.unit}</td></tr>"
            )
        rows.append("</table>")
        flags = ", ".join(record.flags or []) or "none"
        body = (
            f"<p>user={html.escape(record.user)} "
            f"exe={html.escape(record.executable)} "
            f"status={html.escape(record.status)} flags={html.escape(flags)}"
            f"</p>" + "".join(rows)
        )
        return _PAGE.format(title=f"Job {record.jobid}", body=body)

    def _xalt_section(self, jobid: str) -> str:
        rec = self.xalt.record_for(jobid)
        if rec is None:
            return "<h2>Environment</h2><p>no XALT record</p>"
        mods = ", ".join(rec.modules or []) or "-"
        libs = ", ".join(rec.libraries or []) or "-"
        return (
            "<h2>Environment (XALT)</h2>"
            f"<p>executable: {html.escape(rec.exec_path)}<br>"
            f"work dir: {html.escape(rec.work_dir)}<br>"
            f"compiler: {html.escape(rec.compiler)}<br>"
            f"modules: {html.escape(mods)}<br>"
            f"libraries: {html.escape(libs)}</p>"
        )
