"""Per-job metrics (Table I) and the automatic flagging engine.

§IV-A defines two metric families:

* **Average** metrics — the Average Rate of Change (ARC): *"computed
  by first averaging the relevant data over time and then over
  nodes"*.  For cumulative counters the time average is the endpoint
  delta over elapsed time, which is why infrequent sampling still
  yields exact averages.
* **Maximum** metrics — *"first computing the relevant data's delta
  over each time interval for each node, then summing over nodes and
  taking the maximum resulting delta"* — an approximation to the peak
  instantaneous rate.
* Ratios are formed from averages (ratio-of-averages, not
  average-of-ratios).

Every metric has one formula, written over ``(jobs, nodes, windows)``
tensors.  :func:`compute_metrics_batch` stacks same-shaped jobs and
evaluates the full Table I set (plus the energy extension metrics the
contributions section mentions) once per stack;
:func:`compute_metrics` is the same evaluation on a stack of one
:class:`~repro.pipeline.accum.JobAccum`, bit for bit.
:mod:`repro.metrics.flags` implements the §V-A automatic job flags.

Example
-------
The kernels operate on ``(..., nodes, windows)`` interval-delta
arrays; leading axes are jobs.  One node advancing a counter by 100 in
each of two 10-second windows averages 10 ops/s; the peak windowed
rate over both nodes is 30 ops/s:

>>> import numpy as np
>>> from repro.metrics import arc, max_rate, ratio_of_sums
>>> deltas = np.array([[100.0, 100.0],
...                    [200.0, 100.0]])
>>> float(arc(deltas[:1], elapsed=20.0))
10.0
>>> float(max_rate(deltas, dt=np.array([10.0, 10.0])))
30.0

Ratios divide totals, so elapsed-time factors cancel
(ratio-of-averages, §IV-A):

>>> float(ratio_of_sums(np.array([[30.0, 30.0]]), np.array([[40.0, 80.0]])))
0.5

Two jobs at once — a leading axis in, one value per job out:

>>> arc(np.stack([deltas, 2 * deltas]), elapsed=np.array([20.0, 20.0]))
array([12.5, 25. ])
"""

from repro.metrics.flags import FLAG_REGISTRY, FlagResult, evaluate_flags
from repro.metrics.kernels import (
    arc,
    gauge_max,
    max_rate,
    node_balance_ratio,
    ratio_of_sums,
    time_balance_ratio,
)
from repro.metrics.table1 import (
    METRIC_REGISTRY,
    JobStack,
    MetricDef,
    compute_metrics,
    compute_metrics_batch,
    metric_names,
)

__all__ = [
    "arc",
    "max_rate",
    "ratio_of_sums",
    "gauge_max",
    "node_balance_ratio",
    "time_balance_ratio",
    "JobStack",
    "MetricDef",
    "METRIC_REGISTRY",
    "compute_metrics",
    "compute_metrics_batch",
    "metric_names",
    "FLAG_REGISTRY",
    "FlagResult",
    "evaluate_flags",
]
