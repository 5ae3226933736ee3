"""Per-node time-series panels for the job detail page (Fig. 5).

*"These plots show performance data over time ... Every line on each
plot corresponds to an individual node."*  Panels, top to bottom:

1. Gigaflops
2. Memory bandwidth (GB/s)
3. Memory usage (GB)
4. Lustre filesystem bandwidth (MB/s)
5. Internode Infiniband traffic due to MPI (MB/s)
6. CPU user fraction

Each panel is an ``(n_hosts, T-1)`` rate array (memory usage: (n, T)
gauge) over the job's sample times — ready for any plotting frontend,
and renderable as ASCII sparklines for the terminal portal.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.pipeline.accum import JobAccum

GB2 = float(1 << 30)

#: panel order and labels as in Fig. 5
PANEL_LABELS: Tuple[Tuple[str, str], ...] = (
    ("gflops", "Gigaflops"),
    ("mem_bw", "Memory Bandwidth (GB/s)"),
    ("mem_usage", "Memory Usage (GB)"),
    ("lustre_bw", "Lustre BW (MB/s)"),
    ("ib_bw", "Infiniband MPI (MB/s)"),
    ("cpu_user", "CPU User Fraction"),
)


@dataclass
class Panel:
    """One Fig. 5 panel: a per-node series plus its time axis."""

    key: str
    label: str
    times: np.ndarray  # (T',) interval end times
    series: np.ndarray  # (n_hosts, T')
    hosts: List[str]


def fig5_series(accum: JobAccum) -> Dict[str, Panel]:
    """Build the six Fig. 5 panels from a job's accumulation."""
    dt = np.maximum(accum.dt, 1e-300)
    t_mid = accum.times[1:].astype(float)
    hosts = accum.hosts

    def rate(key: str, scale: float = 1.0) -> np.ndarray:
        return accum.deltas[key] / dt[None, :] * scale

    gflops = (
        accum.deltas["fp_scalar"]
        + accum.vector_width * accum.deltas["fp_vector"]
    ) / dt[None, :] / 1e9
    panels = {
        "gflops": gflops,
        "mem_bw": rate("imc_cas", 64.0 / 1e9),
        "mem_usage": accum.gauges["mem_used"] / GB2,
        "lustre_bw": rate("lnet_bytes", 1e-6),
        "ib_bw": rate("ib_bytes", 1e-6),
        "cpu_user": accum.deltas["cpu_user"]
        / np.maximum(accum.deltas["cpu_total"], 1e-300),
    }
    out: Dict[str, Panel] = {}
    for key, label in PANEL_LABELS:
        series = panels[key]
        times = accum.times.astype(float) if key == "mem_usage" else t_mid
        out[key] = Panel(
            key=key, label=label, times=times, series=series, hosts=hosts
        )
    return out


_SPARK = "▁▂▃▄▅▆▇█"
#: the glyphs' code points: a gather of them is the line's UTF-32 text
_SPARK_CODES = np.array([ord(c) for c in _SPARK], dtype="<u4")


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
    return _SPARK_CODES[idx].tobytes().decode("utf-32-le")


#: a colour cycle for per-node lines (SVG rendering)
_COLOURS = (
    "#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910",
    "#148f77", "#7b241c", "#2c3e50",
)


@lru_cache(maxsize=4)
def _tenths(n: int) -> np.ndarray:
    """The polyline word table of a canvas: ``"%.1f,"`` of ``k / 10``
    for ``k < n``, then ``"%.1f "`` of the same, as one object array
    (built on first use, not at import)."""
    words = ["%d.%d" % divmod(k, 10) for k in range(n)]
    return np.array([w + "," for w in words] + [w + " " for w in words],
                    dtype=object)


def _point_words(xy: np.ndarray, extent: int) -> List[str]:
    """``"%.1f,"`` of every x and ``"%.1f "`` of every y of the ``(n, 2)``
    points ``xy``, in order: one gather over :func:`_tenths`.

    For ``0 <= c`` and ``10·c < 2**14``, ``fl(10·c)`` is within
    ``2**-39`` of the exact product, so wherever its fraction is more
    than ``1e-6`` away from ``.5`` its nearest integer ``k`` is the one
    ``%.1f`` rounds ``c`` to, and the word of ``k`` is what ``%`` would
    print.  A coordinate past the table (sized by the canvas
    ``extent``, which bounds every drawn one), negative, ``-0.0``,
    non-finite or that near a tie is formatted by ``%`` itself.
    """
    table = _tenths(min(10 * extent + 1, 1 << 14))
    n = len(table) // 2
    flat = xy.ravel()
    with np.errstate(all="ignore"):
        scaled = flat * 10.0
        k = np.floor(scaled + 0.5)
        exact = (
            (k < n) & ~np.signbit(flat)
            & (np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6)
        )
    idx = np.where(exact, k, 0).astype(np.intp)
    idx[1::2] += n
    words = table[idx]
    for i in np.flatnonzero(~exact).tolist():
        words[i] = ("%.1f " if i & 1 else "%.1f,") % flat[i]
    return words.tolist()


def render_panel_svg(
    panel: Panel, width: int = 640, height: int = 120,
    max_hosts: int = 16,
) -> str:
    """One Fig. 5 panel as an inline SVG: one polyline per node.

    Pure-string SVG so the HTML portal pages are self-contained (no
    plotting library, no external assets).
    """
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
            # every drawn value is ``lo``: any non-zero divisor gives 0,
            # and ``lo + 1.0 - lo`` is 0 from 2**53 up
            hi, scale = lo + 1.0, 1.0
        t0, t1 = float(t.min()), float(t.max())
        span = max(t1 - t0, 1.0)
        # every drawn point of every line in two array expressions, in
        # the scalar formula's operation order (so each %.1f rounds the
        # same double); only finite values are touched, row-major
        drawn = s[:max(max_hosts, 0), :len(t)]
        finite = np.isfinite(drawn)
        xy = np.empty((int(finite.sum()), 2))
        xy[:, 0] = pad_l + (
            np.broadcast_to(t[:drawn.shape[1]], drawn.shape)[finite] - t0
        ) / span * plot_w
        xy[:, 1] = pad_t + (1.0 - (drawn[finite] - lo) / scale) * plot_h
        words = _point_words(xy, max(width, height))
        end = 0
        for i, n in enumerate(finite.sum(axis=1).tolist()):
            start, end = end, end + 2 * n
            pts = "".join(words[start:end])[:-1]
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


def render_panel(panel: Panel, max_hosts: int = 8) -> str:
    """ASCII rendering: one sparkline per node, shared scale."""
    lines = [panel.label]
    lo = float(panel.series.min()) if panel.series.size else 0.0
    hi = float(panel.series.max()) if panel.series.size else 1.0
    for i, host in enumerate(panel.hosts[:max_hosts]):
        lines.append(
            f"  {host:>10} {sparkline(panel.series[i], lo, hi)} "
            f"[{panel.series[i].min():.3g}, {panel.series[i].max():.3g}]"
        )
    if len(panel.hosts) > max_hosts:
        lines.append(f"  ... {len(panel.hosts) - max_hosts} more nodes")
    return "\n".join(lines)
