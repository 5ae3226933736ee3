"""Rendering TSDB query results for terminals and HTML dashboards.

The §VI-A workflow ends with a human looking at aggregated series; the
portal-side counterpart of OpenTSDB's graphs.  Reuses the sparkline
and SVG machinery of the Fig. 5 panels.

Both renderers read the groups through one ``(groups, T)`` matrix on
the union of their time grids (:func:`_align`), built once per chart.
"""

from __future__ import annotations

import html
from typing import List, NamedTuple

import numpy as np

from repro.portal.plots import Panel, render_panel_svg, sparkline
from repro.tsdb.query import QueryResult, ResultSeries


class _Aligned(NamedTuple):
    """The groups of one result on the union of their time grids."""

    times: np.ndarray  # (T,) sorted, unique
    values: np.ndarray  # (groups, T); NaN where a group has no point
    #: every group sits on ``times`` itself, so ``values[i]`` *is* group
    #: i's series and a row reduction equals the per-series one
    shared: bool
    labels: List[str]  # one per group: its tags as ``k=v,...``


def _align(series: List[ResultSeries]) -> _Aligned:
    labels = [
        ",".join(f"{k}={v}" for k, v in sorted(s.tags.items())) or "*"
        for s in series
    ]
    if not series:
        return _Aligned(np.empty(0), np.empty((0, 0)), False, labels)
    first = series[0].times
    if all(
        s.times is first or np.array_equal(s.times, first) for s in series
    ) and bool((first[1:] > first[:-1]).all()):
        # what the query engine returns for cadenced data: no scatter
        mat = np.array([s.values for s in series], dtype=float)
        return _Aligned(first, mat, True, labels)
    union = np.unique(np.concatenate([s.times for s in series]))
    mat = np.full((len(series), len(union)), np.nan)
    for i, s in enumerate(series):
        mat[i, np.searchsorted(union, s.times)] = s.values
    return _Aligned(union, mat, False, labels)


def _ascii(series: List[ResultSeries], grid: _Aligned, label: str) -> str:
    if not series:
        return f"{label}: (no series)"
    mat = grid.values
    if grid.shared and mat.size and bool(np.isfinite(mat).all()):
        # row reductions over the matrix: the same reduction over the
        # same doubles as the per-series form below, one call each
        lo = min(mat.min(axis=1).tolist())
        hi = max(mat.max(axis=1).tolist())
        # no NaN, so the plain mean is the NaN-skipping one bit for bit
        means = np.mean(mat, axis=1).tolist()
        peaks = np.nanmax(mat, axis=1).tolist()
    else:
        finite = [s.values[np.isfinite(s.values)] for s in series]
        finite = [v for v in finite if v.size]
        lo = min((float(v.min()) for v in finite), default=0.0)
        hi = max((float(v.max()) for v in finite), default=1.0)
        means = [s.mean() for s in series]
        peaks = [s.max() for s in series]
    # glyphs are per point, so every group's sparkline is one slice of
    # the sparkline of all their values end to end
    glyphs = sparkline(
        np.nan_to_num(np.concatenate([s.values for s in series]), nan=lo),
        lo, hi,
    )
    cells = []
    end = 0
    for s, tag, mean, peak in zip(series, grid.labels, means, peaks):
        start, end = end, end + len(s.values)
        cells += (tag, glyphs[start:end], mean, peak)
    return (
        f"{label or 'query'}  [{lo:.3g} .. {hi:.3g}]"
        + "\n  %-24s %s  mean=%.3g max=%.3g" * len(series) % tuple(cells)
    )


def _svg(
    series: List[ResultSeries], grid: _Aligned, label: str,
    width: int = 640, height: int = 160,
) -> str:
    if not series:
        return f'<svg width="{width}" height="{height}" ' \
               f'xmlns="http://www.w3.org/2000/svg"></svg>'
    panel = Panel(
        key="tsdb", label=label or "tsdb query",
        times=grid.times.astype(float), series=grid.values,
        hosts=grid.labels,
    )
    return render_panel_svg(panel, width=width, height=height,
                            max_hosts=len(series))


def render_result_ascii(
    result: QueryResult, label: str = "", width: int = 48
) -> str:
    """One sparkline per group, on a shared scale."""
    return _ascii(result.series, _align(result.series), label)


def render_result_svg(
    result: QueryResult, label: str = "",
    width: int = 640, height: int = 160,
) -> str:
    """All groups as one SVG chart (one polyline per group)."""
    return _svg(result.series, _align(result.series), label, width, height)


def render_result_html(result: QueryResult, label: str = "") -> str:
    """The chart a portal page embeds: the SVG, then the sparkline
    table in a ``<pre>``, both off one aligned matrix."""
    grid = _align(result.series)
    return (
        _svg(result.series, grid, label) + "<pre>"
        + html.escape(_ascii(result.series, grid, label)) + "</pre>"
    )
