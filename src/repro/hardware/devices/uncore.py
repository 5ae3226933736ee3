"""Uncore devices: integrated memory controller and QPI link layer.

On Sandy Bridge and later the uncore performance monitors live in PCI
configuration space (§III-B item 1); on Nehalem/Westmere equivalents
exist as uncore MSRs.  The simulation exposes two device types either
way:

* ``imc`` — memory controller CAS counters per socket; the mbw metric
  of Table I is ``64 bytes × (cas_reads + cas_writes)`` per second.
* ``qpi`` — socket interconnect traffic (flits), scaled off remote
  memory traffic.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.devices.base import Device, Schema, SchemaEntry

CACHE_LINE = 64  # bytes per CAS transaction

IMC_SCHEMA = Schema(
    [
        SchemaEntry("cas_reads", width=48),
        SchemaEntry("cas_writes", width=48),
        SchemaEntry("act_count", width=48),
        SchemaEntry("pre_count", width=48),
    ]
)

QPI_SCHEMA = Schema(
    [
        SchemaEntry("g1_data_flits", width=48),
        SchemaEntry("g2_ncb_flits", width=48),
    ]
)


class ImcDevice(Device):
    """Integrated memory controller counters, one instance per socket."""

    type_name = "imc"

    #: fraction of memory traffic that is reads (typical HPC mix)
    READ_FRACTION = 0.67

    def __init__(self, sockets: int, noise: float = 0.02) -> None:
        self.sockets = sockets
        super().__init__(
            IMC_SCHEMA, [str(s) for s in range(sockets)], noise=noise
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        total_lines = activity.mem_bw_bytes * dt / CACHE_LINE
        if total_lines <= 0:
            return
        per_socket = total_lines / self.sockets
        reads = per_socket * self.READ_FRACTION
        writes = per_socket * (1.0 - self.READ_FRACTION)
        # cas_reads, cas_writes, act_count, pre_count on every socket;
        # row activates/precharges track CAS volume loosely
        row = [reads, writes, per_socket * 0.25, per_socket * 0.25]
        self.step([row] * self.sockets, rng)


class QpiDevice(Device):
    """QPI link-layer flit counters, one instance per socket."""

    type_name = "qpi"

    #: fraction of memory traffic crossing the socket interconnect
    REMOTE_FRACTION = 0.15
    FLIT_BYTES = 8

    def __init__(self, sockets: int, noise: float = 0.02) -> None:
        self.sockets = sockets
        super().__init__(
            QPI_SCHEMA, [str(s) for s in range(sockets)], noise=noise
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        remote_bytes = activity.mem_bw_bytes * dt * self.REMOTE_FRACTION
        if remote_bytes <= 0:
            return
        flits = remote_bytes / self.FLIT_BYTES / self.sockets
        # g1_data_flits, g2_ncb_flits on every socket
        self.step([[flits, flits * 0.1]] * self.sockets, rng)
