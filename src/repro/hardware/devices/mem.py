"""Memory gauges from ``/proc/meminfo`` and per-NUMA-node meminfo.

Unlike every other device, memory usage is a *gauge*: §IV-A notes
*"The MemUsage metric is unique in that it is a snapshot of memory
usage at a given instance in time. This snapshot may miss memory usage
spikes."* — validated against procfs per-process high-water marks
(``ProcDevice``).  One instance per socket (NUMA node).
"""

from __future__ import annotations

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.devices.base import Device, Schema, SchemaEntry

MEM_SCHEMA = Schema(
    [
        SchemaEntry("MemTotal", event=False, unit="B"),
        SchemaEntry("MemUsed", event=False, unit="B"),
        SchemaEntry("FilePages", event=False, unit="B"),
        SchemaEntry("Slab", event=False, unit="B"),
        SchemaEntry("AnonPages", event=False, unit="B"),
    ]
)

#: baseline kernel + page-cache residency per socket
BASELINE_USED = 1 << 30  # 1 GiB


class MemDevice(Device):
    """NUMA-node memory gauges for one node."""

    type_name = "mem"

    def __init__(
        self, sockets: int, total_bytes: int, noise: float = 0.0
    ) -> None:
        self.sockets = sockets
        self.total_bytes = int(total_bytes)
        super().__init__(
            MEM_SCHEMA, [str(s) for s in range(sockets)], noise=noise
        )
        per = self.total_bytes // sockets
        for s in range(sockets):
            self.bump(str(s), {"MemTotal": per, "MemUsed": BASELINE_USED})

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        per_socket_total = self.total_bytes // self.sockets
        app = activity.mem_used_bytes / self.sockets
        used = min(per_socket_total, BASELINE_USED + app)
        # MemTotal, MemUsed, FilePages, Slab, AnonPages on every socket
        row = [per_socket_total, used, BASELINE_USED * 0.6,
               BASELINE_USED * 0.1, app]
        self.step([row] * self.sockets, rng)
