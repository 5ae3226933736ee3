"""Text and HTML renderers for portal views.

The paper's portal serves Django-templated HTML (Fig. 3); here the
same content renders to a terminal (consulting staff at a shell) or a
static HTML page.  §I: reports *"are available to the consulting staff
of TACC to assist in diagnosing problems"*.
"""

from __future__ import annotations

import datetime as _dt
import html
from itertools import chain
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.portal.histograms import Histogram, render_ascii
from repro.portal.views import LIST_COLUMNS, JobDetailView, JobListView

#: cell types whose ``str()`` holds nothing HTML escapes; ``%s`` prints
#: them as ``str()`` does
_PLAIN_CELLS = frozenset({int, float, type(None)})
_JOB_TABLE_HEAD = "<table><tr>" + "".join(
    f"<th>{c}</th>" for c in LIST_COLUMNS
) + "</tr>"
#: one job-list row, cells in ``LIST_COLUMNS`` order; the jobid cell
#: links to the job, so it takes the jobid twice
_JOB_TABLE_ROW = "<tr>" + "".join(
    '<td><a href="/job/%s">%s</a></td>' if col == "jobid" else "<td>%s</td>"
    for col in LIST_COLUMNS
) + "</tr>"
_JOBID = LIST_COLUMNS.index("jobid")


def _ts(epoch: Optional[int]) -> str:
    if not epoch:
        return "-"
    return _dt.datetime.fromtimestamp(
        int(epoch), tz=_dt.timezone.utc
    ).strftime("%Y-%m-%d %H:%M")


def render_job_list_text(view: JobListView, limit: int = 40) -> str:
    """Fixed-width job list for the terminal."""
    rows = view.rows()
    head = (
        f"{'JobID':>9} {'User':>10} {'Executable':>16} {'Start':>16} "
        f"{'Run(h)':>7} {'Queue':>10} {'Status':>10} {'Nodes':>5} {'NdHrs':>8}"
    )
    lines = [head, "-" * len(head)]
    for r in rows[:limit]:
        lines.append(
            f"{r['jobid']:>9} {r['user']:>10} {str(r['executable'])[:16]:>16} "
            f"{_ts(r['start_time']):>16} "
            f"{(r['run_time'] or 0) / 3600:>7.2f} {r['queue']:>10} "
            f"{str(r['status'])[:10]:>10} {r['nodes']:>5} "
            f"{r['node_hours'] or 0:>8.1f}"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more jobs")
    lines.append(f"{len(rows)} jobs total")
    return "\n".join(lines)


def render_front_page_text(
    matches: Sequence,
    flagged: Sequence,
    histograms: Dict[str, Histogram],
) -> str:
    """The Fig. 3/4 experience: job list + flagged sublist + histograms."""
    parts = ["=== TACC Stats Job Search ===", ""]
    parts.append(render_job_list_text(JobListView(matches)))
    parts.append("")
    parts.append(f"--- Flagged jobs ({len(flagged)}) ---")
    for r in flagged[:20]:
        parts.append(f"  {r.jobid} {r.user} {r.executable}: {', '.join(r.flags)}")
    parts.append("")
    for h in histograms.values():
        parts.append(render_ascii(h))
        parts.append("")
    return "\n".join(parts)


def render_detail_text(view: JobDetailView) -> str:
    """The Fig. 5 detail page for the terminal."""
    from repro.portal.plots import render_panel

    lines = [f"=== Job {view.jobid} detail ==="]
    if view.record is not None:
        r = view.record
        lines.append(
            f"user={r.user} exe={r.executable} queue={r.queue} "
            f"status={r.status} nodes={r.nodes} wayness={r.wayness}"
        )
        lines.append(
            f"start={_ts(r.start_time)} end={_ts(r.end_time)} "
            f"run={r.run_time / 3600:.2f}h wait={r.queue_wait / 3600:.2f}h"
        )
    lines.append("")
    for key in ("gflops", "mem_bw", "mem_usage", "lustre_bw", "ib_bw", "cpu_user"):
        lines.append(render_panel(view.panels[key]))
        lines.append("")
    lines.append("--- Metric report ---")
    for chk in view.metric_report():
        mark = "PASS" if chk.passed else "FAIL"
        lines.append(
            f"  [{mark}] {chk.name:>18} = {chk.value:>12.4g} {chk.unit:<7} {chk.note}"
        )
    if view.energy is not None and view.energy.per_socket:
        lines.append("--- Energy (per component, node-summed) ---")
        power = view.energy.average_power()
        lines.append(
            f"  pkg {power['pkg']:,.0f} W   core {power['core']:,.0f} W   "
            f"dram {power['dram']:,.0f} W   total "
            f"{view.energy.total_joules() / 3.6e6:,.2f} kWh"
        )
        lines.append("")
    lines.append(f"--- Processes ({len(view.processes)}) ---")
    for p in view.process_table()[:16]:
        lines.append(
            f"  pid={p['pid']} {p['name']} rss={p['vmrss_kb']}kB "
            f"hwm={p['vmhwm_kb']}kB thr={p['threads']} "
            f"cpus={list(p['cpu_affinity'])} mem={list(p['mem_affinity'])}"
        )
    return "\n".join(lines)


# -- HTML -----------------------------------------------------------------

_PAGE = """<!doctype html>
<html><head><meta charset="utf-8"><title>{title}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; }}
table {{ border-collapse: collapse; }}
td, th {{ border: 1px solid #999; padding: 2px 8px; font-size: 90%; }}
.fail {{ background: #fdd; }}
.flag {{ color: #a00; }}
</style></head><body>
<h1>{title}</h1>
{body}
</body></html>
"""


def _escaped(column: Sequence, memo: Dict[str, str]) -> Sequence:
    """One table column's cells as ``%s`` prints them: a ``str`` escaped
    through ``memo`` (each distinct string escaped once), an int,
    float or ``None`` as it is, anything else ``html.escape(str(...))``.
    Only exact ``str`` cells meet the memo, so ``True``, ``1`` and
    ``np.int64(1)`` never share an entry."""
    kinds = set(map(type, column))
    if kinds <= _PLAIN_CELLS:
        return column
    strings = kinds == {str}
    new = list((set(column) if strings
                else {c for c in column if type(c) is str}).difference(memo))
    memo.update(zip(new, map(html.escape, new)))
    if strings:
        return list(map(memo.__getitem__, column))
    return [
        memo[c] if type(c) is str
        else c if type(c) in _PLAIN_CELLS else html.escape(str(c))
        for c in column
    ]


def render_job_table(columns: Sequence[Sequence]) -> str:
    """The job list as an HTML table, from its columns: one sequence of
    cells per :data:`~repro.portal.views.LIST_COLUMNS` entry, in that
    order and all of one length (columns past those are ignored).  The
    rows are one ``%`` of the row template repeated."""
    with obs.span("portal.table"):
        memo: Dict[str, str] = {}
        cells = [_escaped(c, memo) for c in columns[:len(LIST_COLUMNS)]]
        if not cells or not len(cells[0]):
            return _JOB_TABLE_HEAD + "</table>"
        cells.insert(_JOBID, cells[_JOBID])
        return (
            _JOB_TABLE_HEAD
            + _JOB_TABLE_ROW * len(cells[0])
            % tuple(chain.from_iterable(zip(*cells)))
            + "</table>"
        )


def render_job_list_html(view: JobListView, title: str = "Job search") -> str:
    cells = list(view.cells())
    body = f"<p>{len(cells)} jobs</p>" + render_job_table(list(zip(*cells)))
    return _PAGE.format(title=html.escape(title), body=body)


def render_detail_html(view: JobDetailView) -> str:
    from repro.portal.plots import PANEL_LABELS, render_panel_svg

    parts = []
    parts.append("<h2>Performance (per node, over time)</h2>")
    for key, _label in PANEL_LABELS:
        parts.append("<div>" + render_panel_svg(view.panels[key]) + "</div>")
    parts.append("<h2>Metric report</h2><table>")
    parts.append("<tr><th>metric</th><th>value</th><th>unit</th><th>status</th></tr>")
    for chk in view.metric_report():
        klass = "" if chk.passed else ' class="fail"'
        status = "pass" if chk.passed else f"FAIL — {html.escape(chk.note)}"
        parts.append(
            f"<tr{klass}><td>{html.escape(chk.name)}</td><td>{chk.value:.4g}</td>"
            f"<td>{html.escape(chk.unit)}</td><td>{status}</td></tr>"
        )
    parts.append("</table>")
    parts.append(f"<h2>Flags</h2><ul>")
    for f in view.flags:
        parts.append(
            f'<li class="flag">{html.escape(f.name)}: {html.escape(f.detail)}</li>'
        )
    parts.append("</ul>")
    parts.append(f"<h2>Processes ({len(view.processes)})</h2>")
    return _PAGE.format(
        title=f"Job {html.escape(view.jobid)}", body="".join(parts)
    )
