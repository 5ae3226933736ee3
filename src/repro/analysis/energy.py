"""Energy analyses (contribution §I-C).

*"Analyses of energy use broken down by socket, process and dram
components are now available."*

From a job's raw samples (which keep RAPL per *socket* instance —
the per-job accumulation sums instances away) this module produces:

* per-host, per-socket package / core / DRAM joules,
* component totals and average power,
* a per-process energy attribution: each process receives a share of
  its sockets' core energy proportional to the user core-seconds its
  pinned cores contributed (the same affinity logic as the §VI-C
  shared-node attribution), with the remainder reported as
  unattributed baseline (idle power belongs to no process).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.rawfile import ParsedSample

USER_HZ = 100.0
COMPONENTS = ("pkg", "core", "dram")
_RAPL_IDX = {"pkg": 0, "core": 1, "dram": 2}


@dataclass
class EnergyReport:
    """Energy use of one job, broken down three ways."""

    jobid: str
    elapsed: float
    #: (host, socket) → component → joules
    per_socket: Dict[Tuple[str, str], Dict[str, float]]
    #: pid → attributed core-energy joules
    per_process: Dict[int, float]
    #: joules of core energy no process claims (idle baseline, unpinned)
    unattributed_core: float

    def per_host(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for (host, _sock), comps in self.per_socket.items():
            acc = out.setdefault(host, {c: 0.0 for c in COMPONENTS})
            for c in COMPONENTS:
                acc[c] += comps[c]
        return out

    def totals(self) -> Dict[str, float]:
        tot = {c: 0.0 for c in COMPONENTS}
        for comps in self.per_socket.values():
            for c in COMPONENTS:
                tot[c] += comps[c]
        return tot

    def average_power(self) -> Dict[str, float]:
        """Node-summed average watts per component."""
        if self.elapsed <= 0:
            return {c: 0.0 for c in COMPONENTS}
        return {c: j / self.elapsed for c, j in self.totals().items()}

    def total_joules(self) -> float:
        t = self.totals()
        return t["pkg"] + t["dram"]  # core energy is inside pkg


def _rapl_deltas(samples) -> Dict[str, np.ndarray]:
    """Per-socket (T-1, 3) rollover-corrected energy deltas, µJ."""
    per_socket: Dict[str, List[np.ndarray]] = defaultdict(list)
    for s in samples:
        rapl = s.data.get("rapl")
        if not rapl:
            continue
        for sock, vals in rapl.items():
            per_socket[sock].append(np.asarray(vals[:3], dtype=float))
    out = {}
    for sock, series in per_socket.items():
        arr = np.stack(series)  # (T, 3)
        d = np.diff(arr, axis=0)
        d[d < 0] += 2.0**48  # software-extended 48-bit registers
        out[sock] = d
    return out


def energy_breakdown(
    jobid: str, host_samples: Mapping[str, List[ParsedSample]]
) -> EnergyReport:
    """Compute the per-socket / per-process energy report for a job
    from its whole samples per host, oldest first
    (:meth:`~repro.pipeline.parallel.JobBlockData.host_samples`)."""
    per_socket: Dict[Tuple[str, str], Dict[str, float]] = {}
    per_process: Dict[int, float] = defaultdict(float)
    unattributed = 0.0
    t_lo, t_hi = None, None

    for host, samples in sorted(host_samples.items()):
        if len(samples) < 2:
            continue
        t_lo = samples[0].timestamp if t_lo is None else min(t_lo, samples[0].timestamp)
        t_hi = samples[-1].timestamp if t_hi is None else max(t_hi, samples[-1].timestamp)

        for sock, deltas in _rapl_deltas(samples).items():
            comps = per_socket.setdefault(
                (host, sock), {c: 0.0 for c in COMPONENTS}
            )
            comps["pkg"] += float(deltas[:, _RAPL_IDX["pkg"]].sum()) / 1e6
            comps["core"] += float(deltas[:, _RAPL_IDX["core"]].sum()) / 1e6
            comps["dram"] += float(deltas[:, _RAPL_IDX["dram"]].sum()) / 1e6

        # per-process attribution of core energy by user core-seconds
        unattributed += _attribute_processes(samples, per_process, host)

    return EnergyReport(
        jobid=jobid,
        elapsed=float((t_hi or 0) - (t_lo or 0)),
        per_socket=per_socket,
        per_process=dict(per_process),
        unattributed_core=unattributed,
    )


def _attribute_processes(
    samples, per_process: Dict[int, float], host: str
) -> float:
    """Split each interval's host core energy by per-core user time.

    Returns the joules that no process claimed.
    """
    unclaimed = 0.0
    for a, b in zip(samples, samples[1:]):
        rapl_a, rapl_b = a.data.get("rapl"), b.data.get("rapl")
        cpu_a, cpu_b = a.data.get("cpu"), b.data.get("cpu")
        if not rapl_a or not rapl_b or not cpu_a or not cpu_b:
            continue
        core_j = 0.0
        for sock in rapl_b:
            if sock not in rapl_a:
                continue
            d = float(rapl_b[sock][1]) - float(rapl_a[sock][1])
            if d < 0:
                d += 2.0**48
            core_j += d / 1e6
        # per-cpu user seconds this interval
        user_s: Dict[str, float] = {}
        for cpu, vb in cpu_b.items():
            va = cpu_a.get(cpu)
            if va is None:
                continue
            d = (float(vb[0]) - float(va[0])) + (float(vb[1]) - float(va[1]))
            user_s[cpu] = max(0.0, d) / USER_HZ
        total_user = sum(user_s.values())
        if total_user <= 0 or core_j <= 0:
            unclaimed += core_j
            continue
        # claims from the earlier sample's process table
        claims: Dict[str, List[int]] = defaultdict(list)
        for p in a.procs:
            for cpu in p.cpu_affinity:
                claims[str(cpu)].append(p.pid)
        claimed_j = 0.0
        for cpu, secs in user_s.items():
            share = core_j * secs / total_user
            owners = claims.get(cpu, [])
            if owners:
                for pid in owners:
                    per_process[pid] += share / len(owners)
                claimed_j += share
        unclaimed += core_j - claimed_j
    return unclaimed
