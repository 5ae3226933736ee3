"""Core performance counters (MSR) and /proc/stat CPU time accounting.

Two device types live here:

* ``CoreCounterDevice`` — the per-hardware-thread programmable/fixed
  counters read from MSR files on Nehalem through Haswell (§III-B
  item 1).  Schema uses the architecture name (``intel_snb`` etc.) as
  the device type, as the real tool does.  48-bit registers.
* ``CpuTimeDevice`` — the ``cpu`` type sourced from ``/proc/stat``:
  per-logical-CPU cumulative jiffies (USER_HZ = 100) in user, nice,
  system, idle, iowait, irq and softirq.  These drive the CPU_Usage,
  idle and catastrophe metrics of Table I.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.arch import Architecture
from repro.hardware.devices.base import Device, Schema, SchemaEntry

USER_HZ = 100  # jiffies per second, as on stock Linux

CORE_SCHEMA = Schema(
    [
        SchemaEntry("instructions", width=48),
        SchemaEntry("cycles", width=48),
        SchemaEntry("loads", width=48),
        SchemaEntry("l1_hits", width=48),
        SchemaEntry("l2_hits", width=48),
        SchemaEntry("llc_hits", width=48),
        SchemaEntry("fp_scalar", width=48),
        SchemaEntry("fp_vector", width=48),
    ]
)

CPUTIME_SCHEMA = Schema(
    [
        SchemaEntry("user", unit="cs"),
        SchemaEntry("nice", unit="cs"),
        SchemaEntry("system", unit="cs"),
        SchemaEntry("idle", unit="cs"),
        SchemaEntry("iowait", unit="cs"),
        SchemaEntry("irq", unit="cs"),
        SchemaEntry("softirq", unit="cs"),
    ]
)


#: the order a CPU's core-counter increments draw their noise in
_CORE_ORDER = CORE_SCHEMA.columns(
    "cycles", "instructions", "loads", "l1_hits", "l2_hits", "llc_hits",
    "fp_scalar", "fp_vector",
)
#: the order a CPU's jiffy increments draw their noise in
_CPUTIME_ORDER = CPUTIME_SCHEMA.columns("user", "system", "iowait", "idle")


class CoreCounterDevice(Device):
    """Per-hardware-thread core counters for one node.

    Instances are logical CPU ids (``"0"`` ... ``"<cpus-1>"``).
    """

    def __init__(self, arch: Architecture, noise: float = 0.02) -> None:
        self.arch = arch
        self.type_name = arch.name
        super().__init__(
            CORE_SCHEMA, [str(i) for i in range(arch.cpus)], noise=noise
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        hz = self.arch.base_ghz * 1e9
        ipc = max(activity.instr_per_cycle, 1e-9)
        busy = activity.cpu_user_frac + activity.cpu_system_frac
        rows = np.flatnonzero(~(busy <= 0.0))  # idle CPUs count nothing
        if not rows.size:
            return
        cycles = busy[rows] * hz * dt
        instructions = cycles * ipc
        loads = instructions * activity.loads_per_instr
        self.step(np.array([
            cycles,
            instructions,
            loads,
            loads * activity.l1_hit_frac,
            loads * activity.l2_hit_frac,
            loads * activity.llc_hit_frac,
            instructions * activity.fp_scalar_per_instr,
            instructions * activity.fp_vector_per_instr,
        ]).T, rng, rows, _CORE_ORDER)


class CpuTimeDevice(Device):
    """``/proc/stat`` per-logical-CPU jiffy accounting."""

    type_name = "cpu"

    def __init__(self, cpus: int, noise: float = 0.0) -> None:
        self.cpus = cpus
        super().__init__(
            CPUTIME_SCHEMA, [str(i) for i in range(cpus)], noise=noise
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        user = activity.cpu_user_frac
        system = activity.cpu_system_frac
        iowait = activity.cpu_iowait_frac
        idle = 1.0 - user - system - iowait
        idle = np.where(idle > 0.0, idle, 0.0)
        jiffies = np.array([user, system, iowait, idle]).T * USER_HZ * dt
        self.step(jiffies, rng, columns=_CPUTIME_ORDER)
