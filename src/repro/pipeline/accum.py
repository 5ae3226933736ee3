"""Per-job accumulation: host blocks → canonical quantity arrays.

The metrics of Table I are all functions of a small set of *canonical
quantities* — node-level sums of related counters (metadata requests,
lnet bytes, instructions, user jiffies, ...).
:func:`accumulate_blocks` reduces one job's slice of the parsed
:class:`~repro.core.rawfile.HostBlock` columns to a :class:`JobAccum`
holding, for every quantity,

* ``deltas[q]`` — an ``(n_hosts, T-1)`` array of rollover-corrected
  per-interval increments (event counters), or
* ``gauges[q]`` — an ``(n_hosts, T)`` array of snapshots.

Hosts are aligned on the intersection of their sample timestamps
(collections are cluster-wide events, so normally identical).  All
downstream metric evaluation is NumPy on these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.arch import ARCHITECTURES
from repro.hardware.counters import correct_rollover
from repro.hardware.devices.base import Schema


@dataclass(frozen=True)
class Quantity:
    """One canonical quantity: summed counters of one device type."""

    key: str
    type_name: str  # "" means: resolve to the architecture core type
    counters: Tuple[str, ...]
    gauge: bool = False


#: the full quantity set the metrics engine consumes
CANONICAL_QUANTITIES: Tuple[Quantity, ...] = (
    # Lustre
    Quantity("mdc_reqs", "mdc", ("reqs",)),
    Quantity("mdc_wait_us", "mdc", ("wait_us",)),
    Quantity("osc_reqs", "osc", ("reqs",)),
    Quantity("osc_wait_us", "osc", ("wait_us",)),
    Quantity("llite_oc", "llite", ("open", "close")),
    Quantity("lnet_bytes", "lnet", ("rx_bytes", "tx_bytes")),
    # networks
    Quantity("ib_bytes", "ib", ("rx_bytes", "tx_bytes")),
    Quantity("ib_packets", "ib", ("rx_packets", "tx_packets")),
    Quantity("gige_bytes", "gige", ("rx_bytes", "tx_bytes")),
    # processor core counters (type resolved per job's architecture)
    Quantity("instructions", "", ("instructions",)),
    Quantity("cycles", "", ("cycles",)),
    Quantity("loads", "", ("loads",)),
    Quantity("l1_hits", "", ("l1_hits",)),
    Quantity("l2_hits", "", ("l2_hits",)),
    Quantity("llc_hits", "", ("llc_hits",)),
    Quantity("fp_scalar", "", ("fp_scalar",)),
    Quantity("fp_vector", "", ("fp_vector",)),
    # uncore
    Quantity("imc_cas", "imc", ("cas_reads", "cas_writes")),
    # energy (contribution: "energy use broken down by socket/dram")
    Quantity("rapl_pkg_uj", "rapl", ("pkg_energy",)),
    Quantity("rapl_core_uj", "rapl", ("core_energy",)),
    Quantity("rapl_dram_uj", "rapl", ("dram_energy",)),
    # OS
    Quantity(
        "cpu_total",
        "cpu",
        ("user", "nice", "system", "idle", "iowait", "irq", "softirq"),
    ),
    Quantity("cpu_user", "cpu", ("user", "nice")),
    Quantity("cpu_iowait", "cpu", ("iowait",)),
    # coprocessor
    Quantity("mic_user", "mic", ("user_sum", "sys_sum")),
    Quantity("mic_total", "mic", ("user_sum", "sys_sum", "idle_sum")),
    # gauges
    Quantity("mem_used", "mem", ("MemUsed",), gauge=True),
)

_QUANTITY_INDEX = {q.key: q for q in CANONICAL_QUANTITIES}
_CORE_TYPES = set(ARCHITECTURES)


@dataclass
class JobAccum:
    """Canonical per-job arrays the metrics engine evaluates on."""

    jobid: str
    hosts: List[str]
    times: np.ndarray  # (T,)
    deltas: Dict[str, np.ndarray]  # key → (N, T-1)
    gauges: Dict[str, np.ndarray]  # key → (N, T)
    vector_width: int = 4  # doubles per SIMD register of the job's arch
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    @property
    def n_intervals(self) -> int:
        return max(0, len(self.times) - 1)

    @property
    def dt(self) -> np.ndarray:
        """Interval lengths (T-1,), seconds."""
        return np.diff(self.times.astype(np.float64))

    @property
    def elapsed(self) -> float:
        """Total observed span, seconds."""
        if len(self.times) < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])


def _counter_width(schema, counters: Tuple[str, ...]) -> float:
    """Largest register modulus among the requested event counters."""
    return max(
        (
            2.0**e.width
            for e in schema.entries
            if e.event and e.name in counters
        ),
        default=2.0**64,
    )


def _nan_add(total: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Elementwise add treating NaN as *absent* (not poisonous).

    An instance missing from one sample contributes nothing there,
    while a timestamp where *no* instance reported stays NaN.
    """
    both = ~np.isnan(total) & ~np.isnan(contrib)
    out = np.where(np.isnan(total), contrib, total)
    out[both] = total[both] + contrib[both]
    return out


def accumulate_blocks(
    jobid: str,
    host_rows: Dict[str, Tuple["HostBlock", np.ndarray]],
    schemas: Dict[str, Schema],
    arch: Optional[str],
    quantities: Sequence[Quantity] = CANONICAL_QUANTITIES,
) -> JobAccum:
    """Reduce one job's host blocks to canonical quantity arrays.

    Takes, per host, a :class:`~repro.core.rawfile.HostBlock` plus the
    record indices belonging to the job, and works with whole-array
    NumPy operations per (host, device, instance).  Hosts are aligned
    on the intersection of their timestamps, a repeated timestamp
    keeps its later record, an interior gap is forward-filled, and an
    instance absent from a record contributes nothing to it.  The
    per-sample oracle in ``tests/test_pipeline/reference.py`` defines
    the expected arrays bit for bit.
    """
    hosts = sorted(host_rows)
    if not hosts:
        raise ValueError(f"job {jobid}: no hosts")
    common = None
    for h in hosts:
        block, rows = host_rows[h]
        ts = set(block.times[rows].tolist())
        common = ts if common is None else (common & ts)
    times = np.array(sorted(common or ()), dtype=np.int64)
    if len(times) < 2:
        raise ValueError(
            f"job {jobid}: only {len(times)} aligned samples"
        )
    T, N = len(times), len(hosts)

    arch_obj = ARCHITECTURES.get(arch or "", None)
    vector_width = arch_obj.vector_width_doubles if arch_obj else 4

    # per host: for each device type, NaN-aligned (T, C) value matrices
    # in file instance order (NaN row = instance absent at that time)
    aligned: List[Dict[str, List[np.ndarray]]] = []
    type_orders: List[List[str]] = []
    for h in hosts:
        block, rows = host_rows[h]
        trow = block.times[rows]
        # dedupe repeated timestamps keeping the later sample (stable
        # sort + rightmost match)
        order = np.argsort(trow, kind="stable")
        sorted_t = trow[order]
        pos = np.searchsorted(sorted_t, times, side="right") - 1
        sel = rows[order[pos]]  # (T,) record index per aligned time
        per_type: Dict[str, List[np.ndarray]] = {}
        for type_name in block.type_order:
            mats: List[np.ndarray] = []
            any_found = False
            for grp in block.groups[type_name].values():
                if grp.ragged is not None:
                    continue  # schema-less ragged data: no counter index
                p = np.searchsorted(grp.rows, sel)
                p = np.minimum(p, len(grp.rows) - 1)
                found = grp.rows[p] == sel
                if not found.any():
                    continue
                any_found = True
                mat = np.full((T, grp.values.shape[1]), np.nan)
                mat[found] = grp.values[p[found]]
                mats.append(mat)
            if any_found:
                per_type[type_name] = mats
        aligned.append(per_type)
        type_orders.append(list(block.type_order))

    deltas: Dict[str, np.ndarray] = {}
    gauges: Dict[str, np.ndarray] = {}
    for q in quantities:
        event_rows = np.zeros((N, T - 1))
        gauge_rows = np.zeros((N, T))
        present = False
        for n in range(N):
            per_type = aligned[n]
            if q.type_name:
                type_name = q.type_name if q.type_name in per_type else None
            else:
                type_name = next(
                    (
                        t for t in type_orders[n]
                        if t in _CORE_TYPES and t in per_type
                    ),
                    None,
                )
            if type_name is None:
                continue
            schema = schemas.get(type_name)
            if schema is None:
                continue
            idx = [schema.index[c] for c in q.counters if c in schema.index]
            if not idx:
                continue
            series: Optional[np.ndarray] = None
            for mat in per_type[type_name]:
                contrib = mat[:, idx].sum(axis=1)
                series = (
                    contrib if series is None
                    else _nan_add(series, contrib)
                )
            if series is None or np.all(np.isnan(series)):
                continue
            present = True
            filled = _ffill(series)
            if q.gauge:
                gauge_rows[n] = filled
            else:
                width = _counter_width(schema, q.counters)
                event_rows[n] = _event_deltas(filled, width)
        if q.gauge:
            gauges[q.key] = gauge_rows if present else np.zeros((N, T))
        else:
            deltas[q.key] = event_rows if present else np.zeros((N, T - 1))

    return JobAccum(
        jobid=jobid,
        hosts=hosts,
        times=times,
        deltas=deltas,
        gauges=gauges,
        vector_width=vector_width,
        meta={"arch": arch},
    )


def _unwrap(
    deltas: np.ndarray, later_values: np.ndarray, width: float
) -> np.ndarray:
    """Correct negative deltas: register rollover vs counter reset.

    Thin alias for the one shared policy in
    :func:`repro.hardware.counters.correct_rollover` — the live
    device reader (:func:`repro.hardware.devices.base.rollover_delta`)
    delegates to the same function, so a mid-job counter reset yields
    identical deltas live and in the ETL by construction.
    """
    return correct_rollover(deltas, later_values, width)


def _event_deltas(filled: np.ndarray, width: float) -> np.ndarray:
    """Per-interval increments of one forward-filled counter series.

    Every event-row reduction — :func:`accumulate_blocks` and the
    per-sample oracle in ``tests/test_pipeline/reference.py`` — MUST
    go through here so the rollover/reset policy has one definition.
    """
    return _unwrap(np.diff(filled), filled[1:], width)


def _ffill(series: np.ndarray) -> np.ndarray:
    """Forward-fill NaNs; leading NaNs become the first finite value."""
    out = series.copy()
    mask = np.isnan(out)
    if not mask.any():
        return out
    finite = np.where(~mask)[0]
    if len(finite) == 0:
        return np.zeros_like(out)
    # leading
    out[: finite[0]] = out[finite[0]]
    # interior/trailing
    idx = np.maximum.accumulate(
        np.where(~np.isnan(out), np.arange(len(out)), 0)
    )
    return out[idx]
