"""Additional OS-level devices from the original collector's catalogue.

The 2013-era device list (TABLE I of ref. [3], which §III-B extends)
includes block-device, virtual-memory and NUMA counters.  They matter
for diagnosing patterns the Lustre metrics cannot see: jobs staging
data through node-local disk, jobs thrashing swap, and NUMA-unaware
memory placement.

* ``block`` — ``/sys/block/<dev>/stat``: read/write ios and sectors.
* ``vm`` — ``/proc/vmstat``: paging and fault counters; swap traffic
  appears once resident memory approaches the node's capacity.
* ``numa`` — per-NUMA-node hit/miss counters; misses scale with the
  remote-socket share of memory traffic (same fraction the QPI
  device models).
"""

from __future__ import annotations

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.devices.base import Device, Schema, SchemaEntry

SECTOR = 512  # bytes per sector, as the kernel reports

BLOCK_SCHEMA = Schema(
    [
        SchemaEntry("rd_ios", width=64),
        SchemaEntry("rd_sectors", width=64),
        SchemaEntry("wr_ios", width=64),
        SchemaEntry("wr_sectors", width=64),
    ]
)

VM_SCHEMA = Schema(
    [
        SchemaEntry("pgpgin", width=64, unit="KB"),
        SchemaEntry("pgpgout", width=64, unit="KB"),
        SchemaEntry("pswpin", width=64),
        SchemaEntry("pswpout", width=64),
        SchemaEntry("pgfault", width=64),
    ]
)

NUMA_SCHEMA = Schema(
    [
        SchemaEntry("numa_hit", width=64),
        SchemaEntry("numa_miss", width=64),
        SchemaEntry("numa_foreign", width=64),
    ]
)


class BlockDevice(Device):
    """Node-local disk counters (``sda``)."""

    type_name = "block"

    IO_BYTES = 128 << 10  # typical request size

    def __init__(self, disks: int = 1, noise: float = 0.03) -> None:
        super().__init__(
            BLOCK_SCHEMA, [f"sd{chr(ord('a') + i)}" for i in range(disks)],
            noise=noise,
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        rd = activity.local_read_bytes * dt
        wr = activity.local_write_bytes * dt
        if rd <= 0 and wr <= 0:
            return
        n = len(self.rows)
        # rd_ios, rd_sectors, wr_ios, wr_sectors on every disk
        row = [rd / self.IO_BYTES / n, rd / SECTOR / n,
               wr / self.IO_BYTES / n, wr / SECTOR / n]
        self.step([row] * n, rng)


class VmDevice(Device):
    """``/proc/vmstat`` paging counters; swapping starts near capacity."""

    type_name = "vm"

    #: resident fraction of node memory above which swap traffic begins
    SWAP_PRESSURE = 0.92
    PAGE_KB = 4

    def __init__(self, mem_bytes: int, noise: float = 0.02) -> None:
        self.mem_bytes = float(mem_bytes)
        super().__init__(VM_SCHEMA, ["vm"], noise=noise)

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        # file-backed paging tracks Lustre + local traffic
        pgin_kb = (
            activity.lustre_read_bytes + activity.local_read_bytes
        ) * dt / 1024.0
        pgout_kb = (
            activity.lustre_write_bytes + activity.local_write_bytes
        ) * dt / 1024.0
        mem_frac = activity.mem_used_bytes / self.mem_bytes if self.mem_bytes else 0
        swap_pages = 0.0
        if mem_frac > self.SWAP_PRESSURE:
            over = mem_frac - self.SWAP_PRESSURE
            swap_pages = over * self.mem_bytes / (self.PAGE_KB << 10) * 0.01
        self.bump(
            "vm",
            {
                "pgpgin": pgin_kb,
                "pgpgout": pgout_kb,
                "pswpin": swap_pages * dt * 0.3,
                "pswpout": swap_pages * dt,
                "pgfault": (pgin_kb + pgout_kb) / self.PAGE_KB
                + activity.mem_used_bytes / (1 << 20) * 0.01 * dt,
            },
            rng,
        )


class NumaDevice(Device):
    """Per-NUMA-node allocation hit/miss counters."""

    type_name = "numa"

    REMOTE_FRACTION = 0.15  # matches the QPI device's remote share
    LINE = 64

    def __init__(self, sockets: int, noise: float = 0.02) -> None:
        self.sockets = sockets
        super().__init__(
            NUMA_SCHEMA, [str(s) for s in range(sockets)], noise=noise
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        lines = activity.mem_bw_bytes * dt / self.LINE
        if lines <= 0:
            return
        per = lines / self.sockets
        # numa_hit, numa_miss, numa_foreign on every node
        row = [per * (1.0 - self.REMOTE_FRACTION),
               per * self.REMOTE_FRACTION, per * self.REMOTE_FRACTION]
        self.step([row] * self.sockets, rng)
