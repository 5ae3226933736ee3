"""Web-portal layer: search, histograms, job views and reports.

The paper's portal is Django templates over the PostgreSQL job table
(§IV-B).  The value reproduced here is the query/report semantics —
what a consultant can ask and what comes back — rendered as plain-text
and HTML, and served over HTTP by :class:`PortalServer` (stdlib
asyncio, thread-pool dispatch, admission control; ``repro serve``):

* :class:`JobSearch` — metadata filters plus up to **three** search
  fields, each a Table I metric name with a comparison-operator
  suffix and a threshold value (exactly the front page of Fig. 3).
* :func:`job_histograms` — the Fig. 4 histogram quartet (runtime,
  nodes, queue wait, max metadata requests) generated for every query.
* :class:`JobDetailView` — the Fig. 5 detail page: metadata, per-node
  time-series panels, process table, metric pass/fail report and the
  flagged sublist.
* :mod:`repro.portal.reports` — text/HTML renderers for all of the
  above.
"""

from repro.portal.app import PortalApp, Response
from repro.portal.daily import DailyReportGenerator
from repro.portal.histograms import job_histograms
from repro.portal.plots import fig5_series
from repro.portal.search import JobSearch, SearchField
from repro.portal.server import PageCache, PortalServer
from repro.portal.views import JobDetailView, JobListView

__all__ = [
    "PortalApp",
    "Response",
    "PortalServer",
    "PageCache",
    "DailyReportGenerator",
    "JobSearch",
    "SearchField",
    "job_histograms",
    "fig5_series",
    "JobListView",
    "JobDetailView",
]
