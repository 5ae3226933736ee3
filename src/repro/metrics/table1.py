"""Table I: the metric set computed for every job.

Every metric is a named, documented formula over a :class:`JobStack`
— same-shaped :class:`~repro.pipeline.accum.JobAccum` jobs on a
leading axis — and the registry entry is the only place that formula
is written.  Units follow the portal's
conventions: request rates in ops/s, bandwidths in MB/s, flops in
GFLOP/s, memory bandwidth in GB/s, memory in GB, time fractions in
[0, 1], VecPercent in percent.

Beyond Table I proper, the energy metrics the contributions section
announces ("analyses of energy use broken down by socket, process and
dram components") are included in the ``Energy`` category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.metrics.kernels import (
    arc,
    gauge_max,
    max_rate,
    node_balance_ratio,
    ratio_of_sums,
    safe_div,
    time_balance_ratio,
    total,
)
from repro.pipeline.accum import JobAccum

MB = 1e6
GB2 = float(1 << 30)


@dataclass(frozen=True)
class JobStack:
    """Same-shaped jobs on a leading axis — what a formula evaluates.

    The fields mirror :class:`~repro.pipeline.accum.JobAccum` with a
    job axis in front; one job is the ``J = 1`` stack (views of its
    arrays, no copy).
    """

    deltas: Dict[str, np.ndarray]  # key → (J, N, T-1)
    gauges: Dict[str, np.ndarray]  # key → (J, N, T)
    dt: np.ndarray  # (J, T-1)
    elapsed: np.ndarray  # (J,)
    vector_width: np.ndarray  # (J,)
    n_hosts: int

    @classmethod
    def of(cls, accums: Sequence[JobAccum]) -> "JobStack":
        def stack(arrays: List[np.ndarray]) -> np.ndarray:
            return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)

        first = accums[0]
        return cls(
            deltas={
                k: stack([a.deltas[k] for a in accums]) for k in first.deltas
            },
            gauges={
                k: stack([a.gauges[k] for a in accums]) for k in first.gauges
            },
            dt=stack([a.dt for a in accums]),
            elapsed=np.array([a.elapsed for a in accums]),
            vector_width=np.array(
                [a.vector_width for a in accums], dtype=np.float64
            ),
            n_hosts=first.n_hosts,
        )


@dataclass(frozen=True)
class MetricDef:
    """One computed metric.

    ``fn`` is the metric's only formula: it maps a :class:`JobStack`
    to one value per job.  Calling the definition on a single
    :class:`~repro.pipeline.accum.JobAccum` evaluates just this metric
    for that job.
    """

    name: str
    category: str  # Lustre | Network | Processor | OS | Energy
    unit: str
    description: str
    fn: Callable[[JobStack], np.ndarray]

    def __call__(self, accum: JobAccum) -> float:
        return float(self.fn(JobStack.of([accum]))[0])


def _flops(s: JobStack) -> np.ndarray:
    """GFLOP/s: scalar FP instructions + width × vector FP instructions."""
    scalar = total(s.deltas["fp_scalar"])
    vector = total(s.deltas["fp_vector"]) * s.vector_width
    # node-summed total rate (the Fig. 5 "Gigaflops" panel is per node;
    # the job metric is the per-node average)
    return safe_div(scalar + vector, s.elapsed, 0.0) / s.n_hosts / 1e9


def _vec_percent(s: JobStack) -> np.ndarray:
    """Percent of FP instructions that are vector instructions."""
    scalar = total(s.deltas["fp_scalar"])
    vector = total(s.deltas["fp_vector"])
    return np.minimum(100.0, safe_div(100.0 * vector, scalar + vector, 0.0))


def _idle(s: JobStack) -> np.ndarray:
    user = s.deltas["cpu_user"].sum(axis=-1)
    busy = np.maximum(s.deltas["cpu_total"].sum(axis=-1), 1e-300)
    return node_balance_ratio(user / busy)


METRIC_REGISTRY: Dict[str, MetricDef] = {}


def _register(name: str, category: str, unit: str, description: str):
    def deco(fn: Callable[[JobStack], np.ndarray]):
        METRIC_REGISTRY[name] = MetricDef(
            name=name, category=category, unit=unit,
            description=description, fn=fn,
        )
        return fn

    return deco


# -- Lustre -------------------------------------------------------------------
_register("MetaDataRate", "Lustre", "req/s",
          "Maximum metadata server operation rate")(
    lambda a: max_rate(a.deltas["mdc_reqs"], a.dt))
_register("MDCReqs", "Lustre", "req/s",
          "Average metadata server operation rate")(
    lambda a: arc(a.deltas["mdc_reqs"], a.elapsed))
_register("OSCReqs", "Lustre", "req/s",
          "Average object storage server operation rate")(
    lambda a: arc(a.deltas["osc_reqs"], a.elapsed))
_register("MDCWait", "Lustre", "us",
          "Average time to complete metadata server operations")(
    lambda a: ratio_of_sums(a.deltas["mdc_wait_us"], a.deltas["mdc_reqs"]))
_register("OSCWait", "Lustre", "us",
          "Average time to complete object storage server operations")(
    lambda a: ratio_of_sums(a.deltas["osc_wait_us"], a.deltas["osc_reqs"]))
_register("LLiteOpenClose", "Lustre", "ops/s",
          "Average file open/close rate")(
    lambda a: arc(a.deltas["llite_oc"], a.elapsed))
_register("LnetAveBW", "Lustre", "MB/s",
          "Average Lustre bandwidth")(
    lambda a: arc(a.deltas["lnet_bytes"], a.elapsed) / MB)
_register("LnetMaxBW", "Lustre", "MB/s",
          "Maximum Lustre bandwidth")(
    lambda a: max_rate(a.deltas["lnet_bytes"], a.dt) / MB)

# -- Network -------------------------------------------------------------------
_register("InternodeIBAveBW", "Network", "MB/s",
          "Average Infiniband bandwidth between compute nodes (MPI)")(
    lambda a: arc(a.deltas["ib_bytes"], a.elapsed) / MB)
_register("InternodeIBMaxBW", "Network", "MB/s",
          "Maximum Infiniband bandwidth between compute nodes (MPI)")(
    lambda a: max_rate(a.deltas["ib_bytes"], a.dt) / MB)
_register("Packetsize", "Network", "B",
          "Average Infiniband packet size")(
    lambda a: ratio_of_sums(a.deltas["ib_bytes"], a.deltas["ib_packets"]))
_register("Packetrate", "Network", "pkt/s",
          "Average Infiniband packet rate")(
    lambda a: arc(a.deltas["ib_packets"], a.elapsed))
_register("GigEBW", "Network", "MB/s",
          "Average bandwidth over the GigE network")(
    lambda a: arc(a.deltas["gige_bytes"], a.elapsed) / MB)

# -- Processor -------------------------------------------------------------------
_register("Load_All", "Processor", "ops/s",
          "Average cache load rate from any cache level")(
    lambda a: arc(a.deltas["loads"], a.elapsed))
_register("Load_L1Hits", "Processor", "ops/s",
          "Average L1 cache hit rate")(
    lambda a: arc(a.deltas["l1_hits"], a.elapsed))
_register("Load_L2Hits", "Processor", "ops/s",
          "Average L2 cache hit rate")(
    lambda a: arc(a.deltas["l2_hits"], a.elapsed))
_register("Load_LLCHits", "Processor", "ops/s",
          "Average last-level cache hit rate")(
    lambda a: arc(a.deltas["llc_hits"], a.elapsed))
_register("cpi", "Processor", "cyc/ins",
          "Average ratio of cycles to instructions")(
    lambda a: ratio_of_sums(a.deltas["cycles"], a.deltas["instructions"]))
_register("cpld", "Processor", "cyc/load",
          "Average ratio of cycles to L1 data cache loads")(
    lambda a: ratio_of_sums(a.deltas["cycles"], a.deltas["loads"]))
_register("flops", "Processor", "GF/s",
          "Average floating-point rate per node")(_flops)
_register("VecPercent", "Processor", "%",
          "Ratio of vectorized to total FP instructions")(_vec_percent)
_register("mbw", "Processor", "GB/s",
          "Average memory bandwidth per node")(
    lambda a: arc(a.deltas["imc_cas"], a.elapsed) * 64.0 / 1e9)

# -- OS -------------------------------------------------------------------
_register("MemUsage", "OS", "GB",
          "Maximum memory usage (gauge snapshot, per node)")(
    lambda a: gauge_max(a.gauges["mem_used"]) / GB2)
_register("CPU_Usage", "OS", "frac",
          "Average fraction of time spent in user space")(
    lambda a: ratio_of_sums(a.deltas["cpu_user"], a.deltas["cpu_total"]))
_register("idle", "OS", "ratio",
          "Min/max of per-node CPU_Usage: work imbalance across nodes")(_idle)
_register("catastrophe", "OS", "ratio",
          "Min/max over time windows of CPU_Usage: imbalance across time")(
    lambda a: time_balance_ratio(a.deltas["cpu_user"], a.deltas["cpu_total"]))
_register("MIC_Usage", "OS", "frac",
          "Average utilisation of the Xeon Phi coprocessor")(
    lambda a: ratio_of_sums(a.deltas["mic_user"], a.deltas["mic_total"]))

# -- Energy (contributions §I-C) ---------------------------------------------
_register("PkgPower", "Energy", "W",
          "Average package (cores+LLC) power per node")(
    lambda a: arc(a.deltas["rapl_pkg_uj"], a.elapsed) / 1e6)
_register("CorePower", "Energy", "W",
          "Average all-cores power per node")(
    lambda a: arc(a.deltas["rapl_core_uj"], a.elapsed) / 1e6)
_register("DramPower", "Energy", "W",
          "Average DRAM power per node")(
    lambda a: arc(a.deltas["rapl_dram_uj"], a.elapsed) / 1e6)
_register("TotalEnergy", "Energy", "J",
          "Total node-summed energy consumed by the job")(
    lambda a: (
        total(a.deltas["rapl_pkg_uj"]) + total(a.deltas["rapl_dram_uj"])
    ) / 1e6)


def metric_names(category: str = "") -> List[str]:
    """All metric names, optionally restricted to one category."""
    return [
        n for n, d in METRIC_REGISTRY.items()
        if not category or d.category == category
    ]


def _evaluate(accums: Sequence[JobAccum]) -> List[Dict[str, float]]:
    """The registry on same-shaped jobs: each formula runs once."""
    stack = JobStack.of(accums)
    columns = {name: d.fn(stack) for name, d in METRIC_REGISTRY.items()}
    return [
        {name: float(col[j]) for name, col in columns.items()}
        for j in range(len(accums))
    ]


def compute_metrics(accum: JobAccum) -> Dict[str, float]:
    """Evaluate the full registry on one job."""
    return _evaluate([accum])[0]


def compute_metrics_batch(accums: Sequence[JobAccum]) -> List[Dict[str, float]]:
    """Evaluate the registry on many jobs at once.

    Jobs sharing an ``(n_hosts, T)`` shape are stacked into
    ``(J, N, T-1)`` arrays and every formula runs once per stack; the
    values are those of :func:`compute_metrics` job by job, bit for
    bit.
    """
    groups: Dict[tuple, List[int]] = {}
    for i, a in enumerate(accums):
        groups.setdefault((a.n_hosts, len(a.times)), []).append(i)
    out: List[Dict[str, float]] = [{}] * len(accums)
    for idxs in groups.values():
        for i, row in zip(idxs, _evaluate([accums[i] for i in idxs])):
            out[i] = row
    return out
