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
(collections are cluster-wide events, so normally identical).  A
record's :class:`~repro.core.rawfile.Layout` plans what to sum
(:func:`plan_of`), :func:`_sum_step` gathers the counter sums,
and :func:`reduce_series` turns the aligned ``(hosts, quantities,
times)`` sums into those arrays — for this batch path and for the live
flag analyzer alike.  All downstream metric evaluation is NumPy on
these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.rawfile import Layout
from repro.hardware.arch import ARCHITECTURES
from repro.hardware.counters import correct_rollover


@dataclass(frozen=True, eq=False)
class Quantity:
    """One canonical quantity: summed counters of one device type.

    Compared by identity, so a tuple of quantities hashes without a
    Python call (it keys each layout's plan)."""

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


#: one quantity a layout reports: its index in ``quantities``, the
#: column of each of its counters in each device of its type —
#: ``(devices, counters)`` — and the register modulus
_Step = Tuple[int, np.ndarray, float]


def _sum_step(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """One plan step over one sample's row or stacked ``(..., W)`` rows:
    the counters ``cols`` names, ``(instances, counters)``, summed
    within each instance as ``ndarray.sum`` does, then the instances
    one after another from 0.0 — batch and live alike, so their bits
    agree whatever the shape."""
    per_instance = rows[..., cols].sum(axis=-1)
    # a scan adds in order on any shape (a reduction over one row pairs
    # its terms); plus 0.0, its last partial sum is the sum from 0.0
    return np.add.accumulate(per_instance, axis=-1)[..., -1] + 0.0


def plan_of(
    layout: Layout, quantities: Sequence[Quantity] = CANONICAL_QUANTITIES
) -> List[_Step]:
    """What to sum for each quantity out of rows laid out as ``layout``
    (``(type, instance, width)`` runs side by side; an instance listed
    twice is read from its last run) under its schemas; made once per
    layout and quantity set, for batch and live alike.  The core counter
    type is the first architecture type the columns hold."""
    def build() -> List[_Step]:
        runs = layout.starts
        core = next((t for t in runs if t in _CORE_TYPES), None)
        plan = []
        for i, q in enumerate(quantities):
            type_name = q.type_name or core
            schema = layout.schemas.get(type_name)
            if type_name not in runs or schema is None:
                continue
            idx = [schema.index[c] for c in q.counters if c in schema.index]
            if idx:
                plan.append((i, np.array([
                    [lo + j for j in idx] for lo in runs[type_name].values()
                ]), _counter_width(schema, q.counters)))
        return plan

    return layout.derive(("plan", tuple(quantities)), build)


def accumulate_blocks(
    jobid: str,
    host_rows: Dict[str, Tuple["HostBlock", np.ndarray]],
    quantities: Sequence[Quantity] = CANONICAL_QUANTITIES,
) -> JobAccum:
    """Reduce one job's host blocks to canonical quantity arrays.

    Takes, per host, a :class:`~repro.core.rawfile.HostBlock` plus the
    record indices belonging to the job.  Hosts are aligned on the
    intersection of their timestamps, a repeated timestamp keeps its
    later record, a gap is forward-filled, and an instance absent from
    a record contributes nothing to it.  Each record is read under its
    own layout's plan (:func:`plan_of`: per quantity, which columns to
    sum): a host's aligned records are taken a block run at a time, and
    the hosts whose runs share a plan and cover the same aligned times —
    every host of one layout, as a rule — are stacked, so each quantity
    is one :func:`_sum_step` over all of them before one
    :func:`reduce_series` call.  A host's register modulus for a
    quantity is the one its last aligned record that reads the quantity
    was read under; the job's vector width is its first host's (in
    sorted order) architecture's.  The per-sample oracle in
    ``tests/test_pipeline/reference.py`` defines the expected arrays
    bit for bit.
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

    arch = host_rows[hosts[0]][0].arch
    arch_obj = ARCHITECTURES.get(arch or "", None)
    vector_width = arch_obj.vector_width_doubles if arch_obj else 4

    # (N, Q, T) summed-counter series; NaN where nothing reported
    series = np.full((N, len(quantities), T), np.nan)
    widths = np.full((N, len(quantities), 1), 2.0**64)
    #: (plan, aligned times) → (plan, those times, host indices, their
    #: (t, W) rows)
    stacks: Dict[Tuple[int, bytes], Tuple[List[_Step], np.ndarray, list,
                                          list]] = {}
    for n, h in enumerate(hosts):
        block, rows = host_rows[h]
        trow = block.times[rows]
        # dedupe repeated timestamps keeping the later sample (stable
        # sort + rightmost match)
        order = np.argsort(trow, kind="stable")
        pos = np.searchsorted(trow[order], times, side="right") - 1
        sel = rows[order[pos]]  # (T,) record index per aligned time
        run_of = block.run_of[sel]
        # each run the host's aligned records are in, by its last one
        last = {u: k for k, u in enumerate(run_of.tolist())}
        for u in sorted(last, key=last.get):
            layout, _, matrix = block.runs[u]
            plan = plan_of(layout, quantities)
            at = run_of == u
            _, _, ns, matrices = stacks.setdefault(
                (id(plan), at.tobytes()), (plan, at, [], []))
            ns.append(n)
            matrices.append(matrix[block.row_of[sel[at]]])
            for i, _, width in plan:
                widths[n, i] = width

    for plan, at, ns, matrices in stacks.values():
        stacked = np.stack(matrices)  # (H, t, W)
        where = (np.array(ns)[:, None], np.flatnonzero(at)[None])
        for i, cols, _ in plan:
            series[where[0], i, where[1]] = _sum_step(stacked, cols)
    deltas, gauges = reduce_series(quantities, series, widths)

    return JobAccum(
        jobid=jobid,
        hosts=hosts,
        times=times,
        deltas=deltas,
        gauges=gauges,
        vector_width=vector_width,
        meta={"arch": arch},
    )


def reduce_series(
    quantities: Sequence[Quantity], series: np.ndarray, widths: np.ndarray
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Aligned summed-counter series → ``JobAccum`` ``(deltas, gauges)``.

    ``series`` is ``(N hosts, Q quantities, T)``, NaN where a host
    reported nothing, and ``widths`` the ``(N, Q, 1)`` register moduli.
    Batch accumulation and the live flag analyzer both reduce here:
    :func:`_ffill`, then :func:`_event_deltas` for event quantities.
    Each returned array is C-contiguous, so metric sums run in one
    order whoever built the job.
    """
    filled = _ffill(series)
    event = [i for i, q in enumerate(quantities) if not q.gauge]
    stepped = _event_deltas(filled[:, event], widths[:, event])
    deltas = {
        quantities[i].key: np.ascontiguousarray(stepped[:, j])
        for j, i in enumerate(event)
    }
    gauges = {
        q.key: np.ascontiguousarray(filled[:, i])
        for i, q in enumerate(quantities) if q.gauge
    }
    return deltas, gauges


def _unwrap(
    deltas: np.ndarray,
    later_values: np.ndarray,
    width: Union[float, np.ndarray],
) -> np.ndarray:
    """Correct negative deltas: register rollover vs counter reset.

    Thin alias for the one shared policy in
    :func:`repro.hardware.counters.correct_rollover` — the live
    device reader (:func:`repro.hardware.devices.base.rollover_delta`)
    delegates to the same function, so a mid-job counter reset yields
    identical deltas live and in the ETL by construction.
    """
    return correct_rollover(deltas, later_values, width)


def _event_deltas(
    filled: np.ndarray, width: Union[float, np.ndarray]
) -> np.ndarray:
    """Per-interval increments of forward-filled counter series.

    Differences along the last axis, so one series or a stack of them
    (``width`` a scalar or broadcastable modulus array).  Every
    event-row reduction — :func:`reduce_series` and the per-sample
    oracle in ``tests/test_pipeline/reference.py`` — MUST go through
    here so the rollover/reset policy has one definition.
    """
    return _unwrap(np.diff(filled), filled[..., 1:], width)


def _ffill(series: np.ndarray) -> np.ndarray:
    """Forward-fill NaNs along the last axis.

    Leading NaNs become the first finite value, and a series with no
    finite value becomes zeros — for one series or a stack of them.
    """
    mask = np.isnan(series)
    if not mask.any():
        return series.copy()
    finite = ~mask
    at = np.where(finite, np.arange(series.shape[-1]), 0)
    np.maximum.accumulate(at, axis=-1, out=at)
    # a leading gap takes the first finite value (argmax finds it)
    np.maximum(at, finite.argmax(axis=-1)[..., None], out=at)
    out = np.take_along_axis(series, at, axis=-1)
    out[~finite.any(axis=-1)] = 0.0
    return out
