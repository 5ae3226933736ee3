"""The Fig. 4 histogram quartet.

§V-A: *"A histogram ... of jobs versus runtime, nodes, queue wait
time, and maximum metadata requests is automatically generated for
these searches along with the job list."*  Outliers in the metadata
panel are what led the authors to the pathological WRF user.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Sequence, Tuple

import numpy as np

#: the four panels the portal always draws, with axis labels
DEFAULT_PANELS: Tuple[Tuple[str, str], ...] = (
    ("run_time", "Runtime (hr)"),
    ("nodes", "Nodes"),
    ("queue_wait", "Queue Wait Time (hr)"),
    ("MetaDataRate", "Metadata Reqs (req/s)"),
)

_SECONDS_FIELDS = {"run_time", "queue_wait"}
#: one bin of :func:`render_ascii`: from, to, bar, count
_LINE = "\n  %12.2f – %12.2f |%s %d"


@dataclass
class Histogram:
    """Counts and bin edges for one panel."""

    field: str
    label: str
    counts: np.ndarray
    edges: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def outlier_count(self, sigma: float = 4.0) -> int:
        """Jobs beyond mean + sigma·std of the bin-centre distribution.

        A crude but effective outlier spotter matching how the Fig. 4
        metadata panel reveals the pathological user: a clump of mass
        far to the right of the bulk.
        """
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        if self.total == 0:
            return 0
        mean = float(np.average(centers, weights=np.maximum(self.counts, 0)))
        var = float(
            np.average((centers - mean) ** 2, weights=np.maximum(self.counts, 0))
        )
        cut = mean + sigma * np.sqrt(var)
        return int(self.counts[centers > cut].sum())


def job_histograms(
    records: Sequence,
    panels: Sequence[Tuple[str, str]] = DEFAULT_PANELS,
    bins: int = 20,
) -> Dict[str, Histogram]:
    """Build the histogram set for a job list (every portal query).

    Time fields are converted to hours for display, mirroring the
    portal's axes.  Fields missing from a record count as 0.
    """
    return column_histograms(
        [[getattr(r, field, 0) for r in records] for field, _ in panels],
        panels, bins,
    )


def column_histograms(
    columns: Sequence[Sequence],
    panels: Sequence[Tuple[str, str]] = DEFAULT_PANELS,
    bins: int = 20,
) -> Dict[str, Histogram]:
    """The quartet from one column of values per panel, all of one
    length; what :func:`job_histograms` reads off records and the search
    page off its rows.

    Each panel is, bit for bit, ``np.histogram`` of its column (false
    values as 0) over its ``(min, max)``, one unit wide for a constant
    column.  The panels are binned as one ``(panels, n)`` stack, with
    NumPy's uniform-bin index and its two one-ulp corrections against
    row-wise ``linspace`` edges, and one ``bincount``.  A panel whose
    range gives no 20 finite, distinct edges goes through
    ``np.histogram`` itself, which raises for NaN and ±inf.
    """
    if not len(columns) or not len(columns[0]):
        return {
            field: Histogram(field=field, label=label,
                             counts=np.zeros(bins),
                             edges=np.linspace(0, 1, bins + 1))
            for field, label in panels
        }
    stack = np.array(columns, dtype=float)  # None → NaN: redone below
    for i in np.flatnonzero(np.isnan(stack).any(axis=1)):
        stack[i] = [float(v or 0) for v in columns[i]]
    stack += 0.0  # ``-0.0 or 0`` is 0: no negative zero reaches the edges
    for i, (field, _) in enumerate(panels):
        if field in _SECONDS_FIELDS:
            stack[i] /= 3600.0
    # row by row, as before: a reduction picks the sign of a zero by how
    # it is blocked
    ranges = [(lo, hi if lo != hi else lo + 1.0) for lo, hi in
              ((float(row.min()), float(row.max())) for row in stack)]
    lo, hi = np.array(ranges).T[:, :, None]
    with np.errstate(all="ignore"):
        step = (hi - lo) / bins
        edges = np.arange(bins + 1.0) * step + lo  # np.linspace, row-wise
        edges[:, -1] = hi[:, 0]
        fast = (np.isfinite(step) & (step > 0))[:, 0] & (
            edges[:, :-1] < edges[:, 1:]).all(axis=1)
    out: Dict[str, Histogram] = {}
    for i in np.flatnonzero(~fast):
        counts, e = np.histogram(stack[i], bins=bins, range=ranges[i])
        out[panels[i][0]] = Histogram(*panels[i], counts, e)
    rows = np.flatnonzero(fast)
    if rows.size:
        vals, lo, hi, edges = stack[rows], lo[rows], hi[rows], edges[rows]
        idx = ((vals - lo) / (hi - lo) * bins).astype(np.intp)
        idx[idx == bins] -= 1
        at = np.arange(len(rows))[:, None]
        flat = edges.ravel()
        idx[vals < flat[idx + (bins + 1) * at]] -= 1
        idx[(vals >= flat[idx + (bins + 1) * at + 1])
            & (idx != bins - 1)] += 1
        counts = np.bincount((idx + bins * at).ravel(),
                             minlength=len(rows) * bins)
        for k, i in enumerate(rows):
            out[panels[i][0]] = Histogram(
                *panels[i], counts[k * bins:(k + 1) * bins], edges[k])
    return {field: out[field] for field, _ in panels}


def render_ascii(h: Histogram, width: int = 40) -> str:
    """Terminal rendering of one histogram panel."""
    counts = h.counts
    peak = max(1, int(counts.max()) if counts.size else 1)
    bars = ["#" * b for b in np.rint(width * counts / peak).astype(int)]
    edges = h.edges.tolist()
    cells = chain.from_iterable(zip(edges, edges[1:], bars, counts.tolist()))
    return f"{h.label}  (n={h.total})" + _LINE * len(bars) % tuple(cells)
