"""Frozen reference for the per-counter device model.

:class:`ReferenceDevice` is ``Device`` as it stood before a device's
counters became one ``(instances, counters)`` matrix: one float64 row
per instance, and ``bump`` walks an increments mapping counter by
counter — clip a negative event increment to 0, draw one scalar
``rng.normal`` per positive event increment and multiply by its
``np.exp``, accumulate; set a gauge to ``max(v, 0.0)``.
:func:`reference_truncate` is ``Schema.truncate`` on one row.

The ``advance_*`` functions are the per-CPU and per-socket loops of the
core-counter, jiffy and RAPL devices, the three whose vectorised
``advance`` reorders or reduces.  They take the activity as
``DeviceTree.advance`` hands it over (fitted to the node's CPUs and
validated once), so they do not re-derive it.

Together they are the oracle for the draw-order properties in
``test_array_model.py``: the same true counters bit for bit and the
same generator state afterwards.  Do not "fix" or speed this up: it is
the specification.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.hardware.devices.base import Schema
from repro.hardware.devices.cpu import USER_HZ


def reference_truncate(schema: Schema, true_values: np.ndarray) -> np.ndarray:
    """Register-width truncation of one row of true values."""
    mods = np.array(
        [2**e.width if e.event else 0 for e in schema.entries],
        dtype=np.float64,
    )
    out = np.asarray(true_values, dtype=np.float64).copy()
    wrap = mods > 0
    out[wrap] = np.mod(np.floor(out[wrap]), mods[wrap])
    return out


class ReferenceDevice:
    """True counters as a dict of rows, bumped one counter at a time."""

    def __init__(
        self, schema: Schema, instances: Iterable[str], noise: float = 0.02
    ) -> None:
        self.schema = schema
        self.noise = float(noise)
        self._true: Dict[str, np.ndarray] = {
            str(name): np.zeros(len(schema), dtype=np.float64)
            for name in instances
        }

    def matrix(self) -> np.ndarray:
        """The rows stacked in instance order."""
        return np.array(list(self._true.values()))

    def read(self) -> Dict[str, np.ndarray]:
        return {
            name: reference_truncate(self.schema, vals)
            for name, vals in self._true.items()
        }

    def bump(
        self,
        instance: str,
        increments: Mapping[str, float],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        row = self._true[str(instance)]
        for name, value in increments.items():
            i = self.schema.index[name]
            entry = self.schema.entries[i]
            v = float(value)
            if entry.event:
                if v < 0:
                    v = 0.0
                if rng is not None and self.noise > 0 and v > 0:
                    v *= float(
                        np.exp(rng.normal(0.0, self.noise))
                    )
                row[i] += v
            else:
                row[i] = max(v, 0.0)


def advance_core(dev: ReferenceDevice, arch, act, dt, rng) -> None:
    """``CoreCounterDevice.advance``: one bump per busy logical CPU."""
    hz = arch.base_ghz * 1e9
    ipc = max(act.instr_per_cycle, 1e-9)
    for i in range(arch.cpus):
        busy = float(act.cpu_user_frac[i]) + float(act.cpu_system_frac[i])
        if busy <= 0.0:
            continue
        cycles = busy * hz * dt
        instructions = cycles * ipc
        loads = instructions * act.loads_per_instr
        dev.bump(
            str(i),
            {
                "cycles": cycles,
                "instructions": instructions,
                "loads": loads,
                "l1_hits": loads * act.l1_hit_frac,
                "l2_hits": loads * act.l2_hit_frac,
                "llc_hits": loads * act.llc_hit_frac,
                "fp_scalar": instructions * act.fp_scalar_per_instr,
                "fp_vector": instructions * act.fp_vector_per_instr,
            },
            rng,
        )


def advance_cpu(dev: ReferenceDevice, cpus: int, act, dt, rng) -> None:
    """``CpuTimeDevice.advance``: one bump per logical CPU."""
    for i in range(cpus):
        user = float(act.cpu_user_frac[i])
        system = float(act.cpu_system_frac[i])
        iowait = float(act.cpu_iowait_frac[i])
        idle = max(0.0, 1.0 - user - system - iowait)
        dev.bump(
            str(i),
            {
                "user": user * USER_HZ * dt,
                "system": system * USER_HZ * dt,
                "iowait": iowait * USER_HZ * dt,
                "idle": idle * USER_HZ * dt,
            },
            rng,
        )


def advance_rapl(dev: ReferenceDevice, model, topology, act, dt, rng) -> None:
    """``RaplDevice.advance``: one bump per socket; ``model`` supplies
    the power constants."""
    busy = np.asarray(act.cpu_user_frac) + np.asarray(act.cpu_system_frac)
    bw_per_socket = act.mem_bw_bytes / topology.sockets
    for s in range(topology.sockets):
        # a physical core is as busy as its busiest hardware thread
        core_busy = 0.0
        lo = s * topology.cores_per_socket
        for core in range(lo, lo + topology.cores_per_socket):
            sib = topology.cpus_of_core(core)
            core_busy += float(max(busy[c] for c in sib))
        any_busy = 1.0 if core_busy > 0 else 0.0
        core_w = model.CORE_DYNAMIC_W * core_busy
        pkg_w = model.PKG_IDLE_W + core_w + model.LLC_W * any_busy
        dram_w = (
            model.DRAM_IDLE_W
            + model.DRAM_J_PER_GB * bw_per_socket / 1e9
        )
        dev.bump(
            str(s),
            {
                "pkg_energy": pkg_w * dt * 1e6,
                "core_energy": (model.PKG_IDLE_W * 0.5 + core_w) * dt * 1e6,
                "dram_energy": dram_w * dt * 1e6,
            },
            rng,
        )
