"""Ethernet NIC counters (``/sys/class/net/eth0/statistics``).

The GigEBW metric flags jobs routing MPI over the management Ethernet
instead of the Infiniband fabric (§V-A: *"High GigE traffic indicates
users running their own MPI builds over the Ethernet"*).  Background
management chatter (NFS home, batch system heartbeats) is modelled so
the flag threshold has something realistic to stand above.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.devices.base import Device, Schema, SchemaEntry

GIGE_SCHEMA = Schema(
    [
        SchemaEntry("rx_bytes", width=64, unit="B"),
        SchemaEntry("tx_bytes", width=64, unit="B"),
        SchemaEntry("rx_packets", width=64),
        SchemaEntry("tx_packets", width=64),
    ]
)


class GigEDevice(Device):
    """One instance per Ethernet NIC (usually just ``eth0``)."""

    type_name = "gige"

    #: bytes/s of background management traffic always present
    BACKGROUND_BPS = 2_000.0
    MTU = 1500

    def __init__(self, nics: int = 1, noise: float = 0.05) -> None:
        super().__init__(
            GIGE_SCHEMA, [f"eth{i}" for i in range(nics)], noise=noise
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        total_bps = activity.gige_bytes + self.BACKGROUND_BPS
        nbytes = total_bps * dt / len(self.rows)
        pkts = nbytes / self.MTU
        # rx_bytes, tx_bytes, rx_packets, tx_packets on every NIC
        row = [nbytes / 2, nbytes / 2, pkts / 2, pkts / 2]
        self.step([row] * len(self.rows), rng)
