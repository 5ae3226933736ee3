"""Frozen references for the portal render-path equivalence tests.

The pre-PR-17 production code of every function that PR rewrote, kept
verbatim so the replacements in ``src/`` have an oracle that must match
character for character:

* :func:`from_row` — ``Model._from_row``: one ``row.keys()`` list per
  field, ``setattr`` in field order, ``from_db(None)`` for a column the
  result set lacks;
* :func:`job_table` — ``PortalApp._job_table`` over
  ``JobListView.rows()``: one dict per record, ``html.escape(str(...))``
  on every cell;
* :func:`job_histograms`, :func:`render_ascii` — the Fig. 4 quartet
  as of commit ``2aeb500``: one ``np.histogram`` per panel over
  ``getattr`` values, one f-string per bin;
* :func:`search_results` — the results half of ``PortalApp.search`` as
  of ``2aeb500``: full records read newest first by ``start_time
  DESC``, the quartet over them, the first 200 as the job table;
* :func:`sparkline`, :func:`render_panel_svg` — the per-point glyph
  generator and the ``xy()`` closure of ``repro.portal.plots``;
* :func:`render_result_ascii`, :func:`render_result_svg` — the
  per-series ``nanmean`` / ``nanmax`` / ``sparkline`` loop and the
  union-grid scatter of ``repro.portal.render``;
* :func:`reference_portal` — a context manager that routes a
  ``PortalApp`` through all of the above (and through the old
  ``list(queryset)`` reads), for whole-page comparisons.

Do not "fix" or speed these up: they are the specification.
"""

from __future__ import annotations

import html
from contextlib import contextmanager
from typing import Dict, Iterator, List
from unittest import mock

import numpy as np

from repro.portal.histograms import DEFAULT_PANELS, Histogram
from repro.portal.plots import _COLOURS, Panel
from repro.portal.views import LIST_COLUMNS
from repro.tsdb.query import QueryResult


# -- repro.db.models ----------------------------------------------------------
def from_row(cls, row):
    """``Model._from_row``; ``row`` is a ``sqlite3.Row``."""
    obj = cls.__new__(cls)
    for name, field in cls._fields.items():
        raw = row[name] if name in row.keys() else None
        setattr(obj, name, field.from_db(raw))
    return obj


def fetch(queryset) -> List:
    """``list(QuerySet.__iter__())`` as it was: Row factory, per-row
    :func:`from_row`."""
    sql, params = queryset._select()
    cur = queryset.model._db().execute(sql, params)
    return [from_row(queryset.model, row) for row in cur.fetchall()]


# -- repro.portal.app / repro.portal.views -------------------------------------
def list_rows(records):
    """``JobListView.rows``."""
    return [
        {col: getattr(r, col, None) for col in LIST_COLUMNS}
        for r in records
    ]


def job_table(records) -> str:
    """``PortalApp._job_table``."""
    header = list(LIST_COLUMNS)
    cells = ["<table><tr>"]
    cells.extend(f"<th>{c}</th>" for c in header)
    cells.append("</tr>")
    for row in list_rows(records):
        cells.append("<tr>")
        for col in header:
            val = html.escape(str(row[col]))
            if col == "jobid":
                val = f'<a href="/job/{val}">{val}</a>'
            cells.append(f"<td>{val}</td>")
        cells.append("</tr>")
    cells.append("</table>")
    return "".join(cells)


# -- repro.portal.histograms ----------------------------------------------------
def job_histograms(records, panels=DEFAULT_PANELS, bins=20) -> Dict:
    """``repro.portal.histograms.job_histograms``."""
    out = {}
    for field, label in panels:
        vals = np.array(
            [float(getattr(r, field, 0) or 0) for r in records], dtype=float
        )
        if field in {"run_time", "queue_wait"}:
            vals = vals / 3600.0
        if vals.size == 0:
            counts, edges = np.zeros(bins), np.linspace(0, 1, bins + 1)
        else:
            lo, hi = float(vals.min()), float(vals.max())
            if lo == hi:
                hi = lo + 1.0
            counts, edges = np.histogram(vals, bins=bins, range=(lo, hi))
        out[field] = Histogram(
            field=field, label=label, counts=counts, edges=edges
        )
    return out


def render_ascii(h, width: int = 40) -> str:
    """``repro.portal.histograms.render_ascii``."""
    lines = [f"{h.label}  (n={h.total})"]
    peak = max(1, int(h.counts.max()) if h.counts.size else 1)
    for i, c in enumerate(h.counts):
        bar = "#" * int(round(width * c / peak))
        lines.append(
            f"  {h.edges[i]:>12.2f} – {h.edges[i + 1]:>12.2f} |{bar} {int(c)}"
        )
    return "\n".join(lines)


def search_results(search) -> str:
    """The results half of ``PortalApp.search``: ``search.run()`` read
    every column, newest first by a plain ``ORDER BY start_time DESC``."""
    from repro.portal import histograms

    panels = histograms.DEFAULT_PANELS
    matches = fetch(search.queryset().order_by("-start_time"))
    hists = job_histograms(matches, panels)
    body = [f"<h2>{len(matches)} jobs</h2>"]
    body.append(job_table(matches[:200]))
    body.append("<h2>Histograms</h2><pre>")
    for h in hists.values():
        body.append(html.escape(render_ascii(h)))
        body.append("\n")
    body.append("</pre>")
    return "".join(body)


# -- repro.portal.plots ---------------------------------------------------------
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: np.ndarray, lo: float = None, hi: float = None) -> str:
    """Compact one-line rendering of a series."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return ""
    lo = float(v.min()) if lo is None else lo
    hi = float(v.max()) if hi is None else hi
    if hi <= lo:
        return _SPARK[0] * v.size
    idx = np.clip(((v - lo) / (hi - lo) * (len(_SPARK) - 1)).astype(int),
                  0, len(_SPARK) - 1)
    return "".join(_SPARK[i] for i in idx)


def render_panel_svg(
    panel: Panel, width: int = 640, height: int = 120,
    max_hosts: int = 16,
) -> str:
    """One Fig. 5 panel as an inline SVG: one polyline per node."""
    pad_l, pad_b, pad_t = 48, 14, 16
    plot_w, plot_h = width - pad_l - 6, height - pad_b - pad_t
    s = np.asarray(panel.series, dtype=float)
    t = np.asarray(panel.times, dtype=float)
    parts = [
        f'<svg width="{width}" height="{height}" '
        f'xmlns="http://www.w3.org/2000/svg">',
        f'<text x="{pad_l}" y="12" font-size="11" '
        f'font-family="sans-serif">{html.escape(panel.label)}</text>',
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#999"/>',
    ]
    if s.size and len(t) >= 2:
        lo = float(np.nanmin(s))
        hi = float(np.nanmax(s))
        scale = hi - lo
        if hi <= lo:
            hi, scale = lo + 1.0, 1.0  # lo + 1.0 == lo from 2**53 up
        t0, t1 = float(t.min()), float(t.max())
        span = max(t1 - t0, 1.0)

        def xy(ti: float, vi: float) -> str:
            x = pad_l + (ti - t0) / span * plot_w
            y = pad_t + (1.0 - (vi - lo) / scale) * plot_h
            return f"{x:.1f},{y:.1f}"

        for i in range(min(s.shape[0], max_hosts)):
            pts = " ".join(
                xy(ti, vi) for ti, vi in zip(t, s[i])
                if np.isfinite(vi)
            )
            colour = _COLOURS[i % len(_COLOURS)]
            parts.append(
                f'<polyline points="{pts}" fill="none" '
                f'stroke="{colour}" stroke-width="1"/>'
            )
        for value, anchor_y in ((hi, pad_t + 9), (lo, pad_t + plot_h)):
            parts.append(
                f'<text x="2" y="{anchor_y}" font-size="9" '
                f'font-family="sans-serif">{value:.3g}</text>'
            )
    parts.append("</svg>")
    return "".join(parts)


# -- repro.portal.render --------------------------------------------------------
def render_result_ascii(
    result: QueryResult, label: str = "", width: int = 48
) -> str:
    """One sparkline per group, on a shared scale."""
    if not result.series:
        return f"{label}: (no series)"
    finite = [
        s.values[np.isfinite(s.values)] for s in result.series
    ]
    finite = [v for v in finite if v.size]
    lo = min((float(v.min()) for v in finite), default=0.0)
    hi = max((float(v.max()) for v in finite), default=1.0)
    lines = [f"{label or 'query'}  [{lo:.3g} .. {hi:.3g}]"]
    for s in result.series:
        tag = ",".join(f"{k}={v}" for k, v in sorted(s.tags.items())) or "*"
        lines.append(
            f"  {tag:<24} {sparkline(np.nan_to_num(s.values, nan=lo), lo, hi)}"
            f"  mean={s.mean():.3g} max={s.max():.3g}"
        )
    return "\n".join(lines)


def render_result_svg(
    result: QueryResult, label: str = "",
    width: int = 640, height: int = 160,
) -> str:
    """All groups as one SVG chart (one polyline per group)."""
    if not result.series:
        return f'<svg width="{width}" height="{height}" ' \
               f'xmlns="http://www.w3.org/2000/svg"></svg>'
    # align the groups on the union grid so the panel renderer applies
    union = np.unique(np.concatenate([s.times for s in result.series]))
    mat = np.full((len(result.series), len(union)), np.nan)
    hosts: List[str] = []
    for i, s in enumerate(result.series):
        mat[i, np.searchsorted(union, s.times)] = s.values
        hosts.append(
            ",".join(f"{k}={v}" for k, v in sorted(s.tags.items())) or "*"
        )
    panel = Panel(
        key="tsdb", label=label or "tsdb query",
        times=union.astype(float), series=mat, hosts=hosts,
    )
    return render_panel_svg(panel, width=width, height=height,
                            max_hosts=len(hosts))


def render_result_html(result: QueryResult, label: str = "") -> str:
    """The chart fragment ``PortalApp.tsdb_plot`` used to assemble
    inline: the SVG, then the escaped sparkline table in a ``<pre>``."""
    return (
        render_result_svg(result, label=label)
        + "<pre>" + html.escape(render_result_ascii(result, label=label))
        + "</pre>"
    )


# -- whole pages --------------------------------------------------------------------
@contextmanager
def reference_portal() -> Iterator[None]:
    """Inside the block every ``PortalApp`` renders through the frozen
    functions above: rows are read and hydrated the old way, the job
    table, the search results, the chart fragment and the Fig. 5 panels
    are the old code."""
    from repro.db.queryset import QuerySet

    with mock.patch.object(QuerySet, "_fetch", fetch), \
            mock.patch("repro.portal.app.PortalApp._job_table",
                       staticmethod(job_table)), \
            mock.patch("repro.portal.app.PortalApp._search_results",
                       staticmethod(search_results)), \
            mock.patch("repro.portal.render.render_result_html",
                       render_result_html), \
            mock.patch("repro.portal.plots.render_panel_svg",
                       render_panel_svg):
        yield
