"""Vectorised metric primitives.

Every kernel is written once over ``(..., N, T-1)`` per-node
interval-delta arrays (``(..., N, T)`` for gauges): the last two axes
are nodes and windows, any leading axes are jobs.  One job is the call
with no leading axis — ``arc(deltas, 20.0)`` on an ``(N, T-1)`` array
returns one number — and the ingest pipeline stacks same-shaped jobs
into ``(J, N, T-1)`` and gets ``(J,)`` back.  Reductions run along the
same axes in the same order whatever the leading shape, so job ``j``
of a stack evaluates bit-for-bit like that job alone
(``tests/test_metrics/test_properties.py``).

Per-job scalars (``elapsed``) broadcast against the leading axes;
``dt`` is ``(..., T-1)``.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-300


def safe_div(num: np.ndarray, den: np.ndarray, otherwise: float):
    """``num / den`` where ``den > 0``, ``otherwise`` elsewhere."""
    ok = den > 0
    return np.where(ok, num / np.where(ok, den, 1.0), otherwise)[()]


def arc(deltas: np.ndarray, elapsed) -> np.ndarray:
    """Average Rate of Change: per-node mean rate, averaged over nodes.

    For cumulative counters the per-node time-average rate is the sum
    of its interval deltas (= endpoint delta) over the elapsed time.
    """
    if deltas.size == 0:
        return np.zeros(deltas.shape[:-2])[()]
    elapsed = np.asarray(elapsed, dtype=np.float64)[..., None]
    return safe_div(deltas.sum(axis=-1), elapsed, 0.0).mean(axis=-1)


def max_rate(deltas: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Maximum metric: peak over intervals of the node-summed rate."""
    if deltas.size == 0:
        return np.zeros(deltas.shape[:-2])[()]
    rates = deltas.sum(axis=-2) / np.maximum(dt, EPS)  # (..., T-1)
    return rates.max(axis=-1)


def total(x: np.ndarray) -> np.ndarray:
    """Sum over nodes and windows, one value per job."""
    return x.reshape(x.shape[:-2] + (-1,)).sum(axis=-1)


def ratio_of_sums(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Ratio of totals — §IV-A: averages are computed before ratios.

    Both numerator and denominator are summed over nodes and time, so
    the elapsed-time factors cancel and the result is the
    ratio-of-averages the paper prescribes.
    """
    return safe_div(total(num), total(den), 0.0)


def gauge_max(gauge: np.ndarray) -> np.ndarray:
    """Max over nodes and snapshots of a gauge (e.g. MemUsage)."""
    lead = gauge.shape[:-2]
    if gauge.size == 0:
        return np.zeros(lead)[()]
    return gauge.reshape(lead + (-1,)).max(axis=-1)


def node_balance_ratio(per_node: np.ndarray) -> np.ndarray:
    """min/max over nodes — the ``idle`` metric's work-imbalance ratio.

    ``per_node`` is ``(..., N)``.  1.0 means perfectly balanced; ~0
    means at least one node did essentially nothing while another
    worked.
    """
    if per_node.size == 0:
        return np.ones(per_node.shape[:-1])[()]
    return safe_div(per_node.min(axis=-1), per_node.max(axis=-1), 1.0)


def time_balance_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """min/max over time windows of a node-summed fraction (catastrophe).

    ``num``/``den`` are ``(..., N, T-1)`` deltas (e.g. user vs total
    jiffies); each window's value is the node-summed ratio.
    """
    if num.size == 0:
        return np.ones(num.shape[:-2])[()]
    frac = num.sum(axis=-2) / np.maximum(den.sum(axis=-2), EPS)
    return safe_div(frac.min(axis=-1), frac.max(axis=-1), 1.0)
