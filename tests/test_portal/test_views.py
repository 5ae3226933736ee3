"""Job list and detail views over the shared monitored run."""

import numpy as np
import pytest

from repro.portal.plots import PANEL_LABELS, fig5_series, sparkline
from repro.portal.reports import (
    render_detail_html,
    render_detail_text,
    render_front_page_text,
    render_job_list_html,
    render_job_list_text,
)
from repro.portal.histograms import job_histograms
from repro.portal.views import JobDetailView, JobListView, LIST_COLUMNS


@pytest.fixture(scope="module")
def detail(monitored_run, monitored_records):
    wrf = [r for r in monitored_records.values() if r.executable == "wrf.exe"][0]
    return JobDetailView.load(
        wrf.jobid, monitored_run.store, monitored_run.cluster.jobs,
        record=wrf,
    )


def test_list_view_columns(monitored_records):
    view = JobListView(list(monitored_records.values()))
    rows = view.rows()
    assert len(rows) == len(monitored_records)
    assert set(rows[0]) == set(LIST_COLUMNS)
    # §IV-B: the list shows wayness and node-hours
    assert "wayness" in rows[0] and "node_hours" in rows[0]


def test_detail_unknown_job(monitored_run):
    with pytest.raises(KeyError):
        JobDetailView.load("nope", monitored_run.store)


def test_detail_panels_cover_fig5(detail):
    assert set(detail.panels) == {k for k, _ in PANEL_LABELS}
    p = detail.panels["cpu_user"]
    assert p.series.shape[0] == 4  # one line per node
    assert p.series.max() <= 1.0
    assert detail.panels["gflops"].series.max() > 0


def test_detail_metric_report_pass_fail(detail):
    report = detail.metric_report()
    names = {c.name for c in report}
    assert "MetaDataRate" in names and "cpi" in names
    # healthy WRF job: everything passes
    assert all(c.passed for c in report)


def test_detail_process_table(detail):
    procs = detail.process_table()
    assert len(procs) >= 16
    assert all(p["vmrss_kb"] > 0 for p in procs)
    assert all(len(p["cpu_affinity"]) >= 1 for p in procs)


def test_failing_job_detail_flags(monitored_run, monitored_records):
    hicpi = [r for r in monitored_records.values()
             if r.executable == "graph500"][0]
    view = JobDetailView.load(
        hicpi.jobid, monitored_run.store, monitored_run.cluster.jobs,
        record=hicpi,
    )
    assert any(f.name == "high_cpi" for f in view.flags)
    failed = [c for c in view.metric_report() if not c.passed]
    assert any(c.name == "cpi" for c in failed)


def test_render_job_list_text(monitored_records):
    out = render_job_list_text(JobListView(list(monitored_records.values())))
    assert "JobID" in out and "alice" in out
    assert f"{len(monitored_records)} jobs total" in out


def test_render_front_page(monitored_records):
    recs = list(monitored_records.values())
    flagged = [r for r in recs if r.flags]
    out = render_front_page_text(recs, flagged, job_histograms(recs))
    assert "Flagged jobs" in out
    assert "Metadata Reqs" in out


def test_render_detail_text(detail):
    out = render_detail_text(detail)
    assert "Gigaflops" in out and "CPU User Fraction" in out
    assert "[PASS]" in out
    assert "Processes" in out


def test_render_html(detail, monitored_records):
    html = render_detail_html(detail)
    assert html.startswith("<!doctype html>")
    assert "Metric report" in html
    listing = render_job_list_html(JobListView(list(monitored_records.values())))
    assert "<table>" in listing


def test_sparkline_shapes():
    assert sparkline(np.array([])) == ""
    assert len(sparkline(np.arange(10))) == 10
    flat = sparkline(np.ones(5))
    assert len(set(flat)) == 1


def test_render_panel_svg(detail):
    from repro.portal.plots import render_panel_svg

    svg = render_panel_svg(detail.panels["gflops"])
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 4  # one line per node
    assert "Gigaflops" in svg


def test_render_panel_svg_empty_series():
    import numpy as np
    from repro.portal.plots import Panel, render_panel_svg

    p = Panel(key="x", label="Empty", times=np.array([]),
              series=np.zeros((0, 0)), hosts=[])
    svg = render_panel_svg(p)
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_detail_html_embeds_svg(detail):
    html = render_detail_html(detail)
    assert "<svg" in html
    assert html.count("<polyline") >= 6 * 4  # 6 panels × 4 nodes


# -- the job page reads one job through the block path --------------------------


def test_detail_parses_only_the_jobs_hosts(monitored_run, monitored_records,
                                           monkeypatch):
    """Showing one job costs one parse per node of that job, not one
    per host file in the store (the whole fleet only when the catalogue
    does not know the job)."""
    from repro.core.rawfile import BlockParser

    parsed = []
    real = BlockParser.parse_text

    def counting(self, text):
        block = real(self, text)
        parsed.append(block.host)
        return block

    monkeypatch.setattr(BlockParser, "parse_text", counting)
    store, jobs = monitored_run.store, monitored_run.cluster.jobs
    wrf = [r for r in monitored_records.values()
           if r.executable == "wrf.exe"][0]
    nodes = jobs[wrf.jobid].assigned_nodes
    assert 0 < len(nodes) < len(store.hosts())

    known = JobDetailView.load(wrf.jobid, store, jobs, record=wrf)
    assert sorted(parsed) == sorted(nodes)

    del parsed[:]
    unknown = JobDetailView.load(wrf.jobid, store)
    assert len(parsed) == len(store.hosts())
    assert known.accum.hosts == unknown.accum.hosts
    for key, arr in unknown.accum.deltas.items():
        assert np.array_equal(known.accum.deltas[key], arr), key


def test_a_job_page_builds_the_jobs_samples_once(monitored_run,
                                                monitored_records,
                                                monkeypatch):
    """The process table and the energy report read one build of the
    job's samples: one ``iter_samples`` pass per host a page."""
    from repro.core.rawfile import HostBlock

    passes = []
    real = HostBlock.iter_samples

    def counting(self, records):
        passes.append(self.host)
        return real(self, records)

    monkeypatch.setattr(HostBlock, "iter_samples", counting)
    store, jobs = monitored_run.store, monitored_run.cluster.jobs
    wrf = [r for r in monitored_records.values()
           if r.executable == "wrf.exe"][0]
    view = JobDetailView.load(wrf.jobid, store, jobs, record=wrf)
    assert view.energy.per_socket and view.processes
    assert sorted(passes) == sorted(jobs[wrf.jobid].assigned_nodes)


def test_flagged_job_detail_matches_per_sample_oracle(monitored_run,
                                                      monitored_records):
    """The rendered page of every flagged job is character for character
    what the per-sample path (frozen in tests/test_pipeline/reference.py:
    whole-fleet ``map_jobs``, ``accumulate``, scalar formulas) renders."""
    from repro.analysis.energy import energy_breakdown
    from repro.metrics.flags import evaluate_flags
    from tests.test_pipeline import reference

    store, jobs = monitored_run.store, monitored_run.cluster.jobs
    jobdata, _ = reference.map_jobs(store, jobs)
    flagged = [r for r in monitored_records.values() if r.flags]
    assert flagged
    for rec in flagged:
        jd = jobdata[rec.jobid]
        accum = reference.accumulate(jd)
        metrics = reference.reference_metrics(accum)
        meta = {"queue": jd.job.queue, "nodes": jd.job.nodes}
        procs = []
        for _host, samples in sorted(jd.hosts.items()):
            for s in reversed(samples):
                if s.procs:
                    procs.extend(p for p in s.procs
                                 if p.jobid in (rec.jobid, "-"))
                    break
        want = JobDetailView(
            jobid=rec.jobid, record=rec, accum=accum, metrics=metrics,
            panels=fig5_series(accum),
            flags=evaluate_flags(metrics, accum, meta),
            processes=procs, energy=energy_breakdown(jd.jobid, jd.hosts),
        )
        got = JobDetailView.load(rec.jobid, store, jobs, record=rec)
        assert sorted(f.name for f in got.flags) == sorted(rec.flags)
        assert render_detail_text(got) == render_detail_text(want), rec.jobid
        assert render_detail_html(got) == render_detail_html(want), rec.jobid
