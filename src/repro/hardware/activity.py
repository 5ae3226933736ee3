"""Workload → hardware coupling.

An :class:`Activity` describes, for one node and one simulation
interval, what the software running there is doing — in the vocabulary
the hardware understands (busy fractions, instruction mix densities,
bytes moved, requests issued).  Application models (``repro.cluster``)
produce Activities; device models (``repro.hardware.devices``) consume
them and advance their cumulative counters accordingly.

This is the single seam between the synthetic workload and the
synthetic hardware, so the collector, metrics pipeline and analyses
never see anything but counters — exactly like the real tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np


@dataclass
class ProcessActivity:
    """One process visible in procfs during an interval (paper §III-B.4).

    Sizes are in kB to match ``/proc/<pid>/status`` conventions.
    """

    pid: int
    name: str
    owner: str
    jobid: Optional[str] = None
    vmsize_kb: int = 0
    vmhwm_kb: int = 0  # high-water mark of virtual memory
    vmrss_kb: int = 0
    vmrss_hwm_kb: int = 0  # high-water mark of physical memory
    vmlck_kb: int = 0
    data_kb: int = 0
    stack_kb: int = 0
    text_kb: int = 0
    threads: int = 1
    cpu_affinity: Tuple[int, ...] = ()
    mem_affinity: Tuple[int, ...] = ()

    def touch_high_water(self) -> None:
        """Fold current sizes into the OS-maintained high-water marks."""
        self.vmhwm_kb = max(self.vmhwm_kb, self.vmsize_kb)
        self.vmrss_hwm_kb = max(self.vmrss_hwm_kb, self.vmrss_kb)


@dataclass
class Activity:
    """Per-interval, node-level description of running work.

    All rates are per second at node level unless stated otherwise;
    device models convert them to counter increments over ``dt``.

    Processor activity is parameterised microarchitecturally so that
    the Table I processor metrics (cpi, cpld, flops, VecPercent, cache
    hit rates, mbw) emerge from counters rather than being injected:

    * ``cpu_user_frac`` / ``cpu_system_frac`` / ``cpu_iowait_frac`` —
      per logical CPU time fractions; the remainder is idle.
    * ``instr_per_cycle`` — retirement rate while busy (1/cpi).
    * ``loads_per_instr`` and the three hit fractions — cache mix.
    * ``fp_scalar_per_instr`` / ``fp_vector_per_instr`` — FP density;
      one vector instruction performs ``arch.vector_width_doubles``
      FLOPs.
    """

    # --- processor (per logical CPU arrays; scalars broadcast) -------
    cpu_user_frac: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cpu_system_frac: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cpu_iowait_frac: np.ndarray = field(default_factory=lambda: np.zeros(0))
    instr_per_cycle: float = 1.0
    loads_per_instr: float = 0.3
    l1_hit_frac: float = 0.90
    l2_hit_frac: float = 0.07
    llc_hit_frac: float = 0.02
    fp_scalar_per_instr: float = 0.05
    fp_vector_per_instr: float = 0.0
    mem_bw_bytes: float = 0.0  # memory-controller traffic, bytes/s

    # --- networks ------------------------------------------------------
    ib_bytes: float = 0.0  # Infiniband payload bytes/s (MPI traffic)
    ib_packets: float = 0.0  # Infiniband packets/s
    gige_bytes: float = 0.0  # Ethernet bytes/s

    # --- Lustre client ---------------------------------------------------
    mdc_reqs: float = 0.0  # metadata server requests/s
    mdc_wait_us: float = 0.0  # MDS wait microseconds accumulated /s
    osc_reqs: float = 0.0  # object storage requests/s
    osc_wait_us: float = 0.0
    llite_opens: float = 0.0  # file opens/s
    llite_closes: float = 0.0  # file closes/s
    lustre_read_bytes: float = 0.0
    lustre_write_bytes: float = 0.0

    # --- node-local disk -------------------------------------------------
    local_read_bytes: float = 0.0  # /tmp staging traffic, bytes/s
    local_write_bytes: float = 0.0

    # --- coprocessor ---------------------------------------------------
    mic_busy_frac: float = 0.0  # Xeon Phi utilisation [0, 1]

    # --- memory (gauges) -------------------------------------------------
    mem_used_bytes: float = 0.0

    # --- procfs snapshot -------------------------------------------------
    processes: List[ProcessActivity] = field(default_factory=list)

    @classmethod
    def idle(cls, cpus: int) -> "Activity":
        """An all-idle activity for a node with ``cpus`` logical CPUs."""
        return cls(
            cpu_user_frac=np.zeros(cpus),
            cpu_system_frac=np.zeros(cpus),
            cpu_iowait_frac=np.zeros(cpus),
        )

    def with_cpus(self, cpus: int) -> "Activity":
        """Return an activity whose per-CPU arrays are sized/broadcast to
        ``cpus``: a copy, or ``self`` when they already are."""

        def fit(a: np.ndarray) -> np.ndarray:
            a = np.asarray(a, dtype=float)
            if a.ndim == 0:
                return np.full(cpus, float(a))
            if a.shape[0] == cpus:
                return a
            out = np.zeros(cpus)
            out[: min(cpus, a.shape[0])] = a[: min(cpus, a.shape[0])]
            return out

        u = fit(self.cpu_user_frac)
        s = fit(self.cpu_system_frac)
        w = fit(self.cpu_iowait_frac)
        if (u is self.cpu_user_frac and s is self.cpu_system_frac
                and w is self.cpu_iowait_frac):
            return self
        return replace(
            self, cpu_user_frac=u, cpu_system_frac=s, cpu_iowait_frac=w
        )

    def validated(self) -> "Activity":
        """Clip time fractions into [0, 1] and enforce their sum ≤ 1 per CPU."""
        # np.minimum(np.maximum(...)) is np.clip without its Python
        # wrappers; a device tree validates every tick
        u = np.minimum(np.maximum(self.cpu_user_frac, 0.0, dtype=float), 1.0)
        s = np.minimum(np.maximum(self.cpu_system_frac, 0.0, dtype=float), 1.0)
        w = np.minimum(np.maximum(self.cpu_iowait_frac, 0.0, dtype=float), 1.0)
        total = u + s + w
        over = total > 1.0
        if over.any():
            scale = np.ones_like(total)
            scale[over] = 1.0 / total[over]
            u, s, w = u * scale, s * scale, w * scale
        return replace(
            self, cpu_user_frac=u, cpu_system_frac=s, cpu_iowait_frac=w
        )

    def merge(self, other: "Activity") -> "Activity":
        """Combine two activities sharing a node (shared-node operation).

        Rates add; time fractions add (then clip); instruction-mix
        densities combine weighted by user-time share; processes
        concatenate.  Used when multiple jobs run on one node (§VI-C).
        """
        n = max(len(np.atleast_1d(self.cpu_user_frac)),
                len(np.atleast_1d(other.cpu_user_frac)))
        a, b = self.with_cpus(n), other.with_cpus(n)
        wa = float(np.sum(a.cpu_user_frac)) or 1e-12
        wb = float(np.sum(b.cpu_user_frac)) or 1e-12

        def blend(x: float, y: float) -> float:
            return (x * wa + y * wb) / (wa + wb)

        merged = Activity(
            cpu_user_frac=a.cpu_user_frac + b.cpu_user_frac,
            cpu_system_frac=a.cpu_system_frac + b.cpu_system_frac,
            cpu_iowait_frac=a.cpu_iowait_frac + b.cpu_iowait_frac,
            instr_per_cycle=blend(a.instr_per_cycle, b.instr_per_cycle),
            loads_per_instr=blend(a.loads_per_instr, b.loads_per_instr),
            l1_hit_frac=blend(a.l1_hit_frac, b.l1_hit_frac),
            l2_hit_frac=blend(a.l2_hit_frac, b.l2_hit_frac),
            llc_hit_frac=blend(a.llc_hit_frac, b.llc_hit_frac),
            fp_scalar_per_instr=blend(a.fp_scalar_per_instr, b.fp_scalar_per_instr),
            fp_vector_per_instr=blend(a.fp_vector_per_instr, b.fp_vector_per_instr),
            mem_bw_bytes=a.mem_bw_bytes + b.mem_bw_bytes,
            ib_bytes=a.ib_bytes + b.ib_bytes,
            ib_packets=a.ib_packets + b.ib_packets,
            gige_bytes=a.gige_bytes + b.gige_bytes,
            mdc_reqs=a.mdc_reqs + b.mdc_reqs,
            mdc_wait_us=a.mdc_wait_us + b.mdc_wait_us,
            osc_reqs=a.osc_reqs + b.osc_reqs,
            osc_wait_us=a.osc_wait_us + b.osc_wait_us,
            llite_opens=a.llite_opens + b.llite_opens,
            llite_closes=a.llite_closes + b.llite_closes,
            lustre_read_bytes=a.lustre_read_bytes + b.lustre_read_bytes,
            lustre_write_bytes=a.lustre_write_bytes + b.lustre_write_bytes,
            local_read_bytes=a.local_read_bytes + b.local_read_bytes,
            local_write_bytes=a.local_write_bytes + b.local_write_bytes,
            mic_busy_frac=min(1.0, a.mic_busy_frac + b.mic_busy_frac),
            mem_used_bytes=a.mem_used_bytes + b.mem_used_bytes,
            processes=list(a.processes) + list(b.processes),
        )
        return merged.validated()
