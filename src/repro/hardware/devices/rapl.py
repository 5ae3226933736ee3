"""RAPL (Running Average Power Limit) energy counters.

§III-B item 3: RAPL *"tracks the power consumption separately of all
cores + LLC cache, all cores, and DRAM"*.  The real MSRs are 32-bit
energy-status registers counting in units of ~15.3 µJ and wrap faster
than a 10-minute sampling interval, so the collector keeps
software-extended counters; the simulation models those as 48-bit
registers, wide enough to be unambiguous per interval yet narrow
enough that long runs still exercise the reader's unwrap path.

Power model per socket:
``P_pkg = idle + (dynamic_core × busy_cores) + cache_share``
``P_dram = dram_idle + per-GB/s transfer energy``.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.devices.base import Device, Schema, SchemaEntry
from repro.hardware.topology import Topology

# The hardware registers are 32-bit and wrap in ~7 minutes under load —
# faster than the 10-minute sampling interval, so the raw register is
# ambiguous at collection time.  Like the real collector, the daemon
# maintains software-extended 48-bit accumulations (it reads the MSR
# often enough); 48 bits still exercises the reader's unwrap path on
# month-long runs.
RAPL_SCHEMA = Schema(
    [
        SchemaEntry("pkg_energy", width=48, unit="uJ"),  # cores + LLC
        SchemaEntry("core_energy", width=48, unit="uJ"),  # cores only
        SchemaEntry("dram_energy", width=48, unit="uJ"),
    ]
)


class RaplDevice(Device):
    """Per-socket RAPL energy accumulation (µJ, 32-bit registers)."""

    type_name = "rapl"

    #: Watts — calibrated to a 115 W TDP Xeon part
    PKG_IDLE_W = 18.0
    CORE_DYNAMIC_W = 7.5  # per fully-busy core
    LLC_W = 6.0  # uncore/LLC share when any core is busy
    DRAM_IDLE_W = 4.0
    DRAM_J_PER_GB = 0.9  # transfer energy per GB moved

    def __init__(self, topology: Topology, noise: float = 0.01) -> None:
        self.topology = topology
        super().__init__(
            RAPL_SCHEMA,
            [str(s) for s in range(topology.sockets)],
            noise=noise,
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        topo = self.topology
        busy = activity.cpu_user_frac + activity.cpu_system_frac
        # a physical core is as busy as its busiest hardware thread
        # (logical CPU c + t * cores is thread t of core c); a socket's
        # cores are summed in core order
        per_core = np.maximum.reduce(
            busy.reshape(topo.threads_per_core, topo.cores), axis=0
        )
        core_busy = np.add.accumulate(
            per_core.reshape(topo.sockets, topo.cores_per_socket), axis=1
        )[:, -1]
        core_w = self.CORE_DYNAMIC_W * core_busy
        bw_per_socket = activity.mem_bw_bytes / topo.sockets
        watts = np.empty((topo.sockets, 3))  # pkg, core, dram
        watts[:, 0] = self.PKG_IDLE_W + core_w + self.LLC_W * (core_busy > 0)
        watts[:, 1] = self.PKG_IDLE_W * 0.5 + core_w
        watts[:, 2] = self.DRAM_IDLE_W + self.DRAM_J_PER_GB * bw_per_socket / 1e9
        watts *= dt
        watts *= 1e6  # µJ
        self.step(watts, rng)
