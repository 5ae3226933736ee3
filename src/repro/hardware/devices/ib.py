"""Infiniband port counters (``/sys/class/infiniband``).

Drives the Table I network metrics InternodeIBAveBW / InternodeIBMaxBW
(from byte counters) and Packetsize / Packetrate (bytes per packet and
packets per second).  The real 64-bit extended port counters are used;
their 32-bit legacy variants wrapped too fast for 10-minute sampling,
which is why the schema here carries W=64.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.devices.base import Device, Schema, SchemaEntry

IB_SCHEMA = Schema(
    [
        SchemaEntry("rx_bytes", width=64, unit="B"),
        SchemaEntry("tx_bytes", width=64, unit="B"),
        SchemaEntry("rx_packets", width=64),
        SchemaEntry("tx_packets", width=64),
    ]
)


class InfinibandDevice(Device):
    """One instance per HCA port (``mlx4_0/1`` style names)."""

    type_name = "ib"

    def __init__(self, ports: int = 1, noise: float = 0.02) -> None:
        self.ports = ports
        super().__init__(
            IB_SCHEMA, [f"mlx4_0/{p + 1}" for p in range(ports)], noise=noise
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        if activity.ib_bytes <= 0 and activity.ib_packets <= 0:
            return
        bytes_per_port = activity.ib_bytes * dt / self.ports
        pkts_per_port = activity.ib_packets * dt / self.ports
        # symmetric traffic: MPI exchanges send and receive alike;
        # rx_bytes, tx_bytes, rx_packets, tx_packets on every port
        row = [bytes_per_port / 2, bytes_per_port / 2,
               pkts_per_port / 2, pkts_per_port / 2]
        self.step([row] * self.ports, rng)
