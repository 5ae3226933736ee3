"""The one job-table renderer against the frozen ``reference.job_table``
on the cells the hypothesis battery cannot draw, and on its other
callers."""

from types import SimpleNamespace

import numpy as np

from repro.portal.app import PortalApp
from repro.portal.reports import render_job_list_html, render_job_table
from repro.portal.views import LIST_COLUMNS, JobListView

from tests.test_portal import reference


def _record(**cells):
    return SimpleNamespace(**{c: cells.get(c, c) for c in LIST_COLUMNS})


def test_equal_cells_of_different_types_print_as_their_own_type():
    """``True == 1 == np.int64(1) == 1.0`` and ``"1"`` looks the same:
    one column holding all of them, twice over."""
    ones = [True, 1, np.int64(1), 1.0, "1", np.float64(1.0), None, "<1>"]
    records = [_record(nodes=v, user=v) for v in ones + ones]
    assert PortalApp._job_table(records) == reference.job_table(records)


def test_columns_past_the_listed_ones_are_not_printed():
    records = [_record(jobid="7")]
    columns = list(zip(*JobListView(records).cells()))
    assert (render_job_table(columns + [("extra",)])
            == render_job_table(columns)
            == reference.job_table(records))


def test_the_static_report_lists_through_the_same_table():
    records = [_record(jobid="42", user="<alice>")]
    page = render_job_list_html(JobListView(records), title="a & b")
    assert "<title>a &amp; b</title>" in page
    assert "<p>1 jobs</p>" + reference.job_table(records) in page
