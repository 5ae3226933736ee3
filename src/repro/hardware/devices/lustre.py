"""Lustre client-side counters: mdc, osc, llite and lnet device types.

These four sources drive the entire Lustre block of Table I:

=============  ====================================================
metric         counters used
=============  ====================================================
MetaDataRate   ``mdc.reqs`` (max interval delta, summed over nodes)
MDCReqs        ``mdc.reqs`` (average rate of change)
MDCWait        ``mdc.wait_us / mdc.reqs``
OSCReqs        ``osc.reqs``
OSCWait        ``osc.wait_us / osc.reqs``
LLiteOpenClose ``llite.open + llite.close``
LnetAveBW      ``lnet.rx_bytes + lnet.tx_bytes`` (ARC)
LnetMaxBW      same counters, max interval delta
=============  ====================================================

Instance naming follows the real tool: mdc/osc instances are Lustre
target names (``work-MDT0000-mdc-...``), llite instances are mount
points, lnet is a single system-wide instance.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.devices.base import Device, Schema, SchemaEntry

MDC_SCHEMA = Schema(
    [
        SchemaEntry("reqs", width=64),
        SchemaEntry("wait_us", width=64, unit="us"),
        SchemaEntry("open", width=64),
        SchemaEntry("close", width=64),
        SchemaEntry("getattr", width=64),
        SchemaEntry("setattr", width=64),
    ]
)

OSC_SCHEMA = Schema(
    [
        SchemaEntry("reqs", width=64),
        SchemaEntry("wait_us", width=64, unit="us"),
        SchemaEntry("read_bytes", width=64, unit="B"),
        SchemaEntry("write_bytes", width=64, unit="B"),
    ]
)

LLITE_SCHEMA = Schema(
    [
        SchemaEntry("open", width=64),
        SchemaEntry("close", width=64),
        SchemaEntry("read_bytes", width=64, unit="B"),
        SchemaEntry("write_bytes", width=64, unit="B"),
        SchemaEntry("getattr", width=64),
        SchemaEntry("statfs", width=64),
    ]
)

LNET_SCHEMA = Schema(
    [
        SchemaEntry("rx_bytes", width=64, unit="B"),
        SchemaEntry("tx_bytes", width=64, unit="B"),
        SchemaEntry("rx_msgs", width=64),
        SchemaEntry("tx_msgs", width=64),
    ]
)

#: default filesystem layout: one scratch + one work filesystem
DEFAULT_FILESYSTEMS = ("scratch", "work")


class MdcDevice(Device):
    """Metadata client counters, one instance per mounted filesystem."""

    type_name = "mdc"

    def __init__(self, filesystems=DEFAULT_FILESYSTEMS, noise: float = 0.02) -> None:
        self.filesystems = tuple(filesystems)
        super().__init__(
            MDC_SCHEMA,
            [f"{fs}-MDT0000-mdc" for fs in self.filesystems],
            noise=noise,
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        if activity.mdc_reqs <= 0:
            return
        # jobs overwhelmingly hit one filesystem; put traffic on the first
        inst = self.instances[0]
        reqs = activity.mdc_reqs * dt
        opens = activity.llite_opens * dt
        closes = activity.llite_closes * dt
        self.bump(
            inst,
            {
                "reqs": reqs,
                "wait_us": activity.mdc_wait_us * dt,
                "open": opens,
                "close": closes,
                "getattr": max(0.0, reqs - opens - closes) * 0.6,
                "setattr": max(0.0, reqs - opens - closes) * 0.1,
            },
            rng,
        )


class OscDevice(Device):
    """Object storage client counters, one instance per OST."""

    type_name = "osc"

    def __init__(
        self,
        filesystems=DEFAULT_FILESYSTEMS,
        osts_per_fs: int = 2,
        noise: float = 0.02,
    ) -> None:
        self.filesystems = tuple(filesystems)
        self.osts_per_fs = osts_per_fs
        names = [
            f"{fs}-OST{i:04d}-osc"
            for fs in self.filesystems
            for i in range(osts_per_fs)
        ]
        super().__init__(OSC_SCHEMA, names, noise=noise)

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        if (
            activity.osc_reqs <= 0
            and activity.lustre_read_bytes <= 0
            and activity.lustre_write_bytes <= 0
        ):
            return
        # stripe traffic across the first filesystem's OSTs:
        # reqs, wait_us, read_bytes, write_bytes on each
        n = self.osts_per_fs
        row = [
            activity.osc_reqs * dt / n,
            activity.osc_wait_us * dt / n,
            activity.lustre_read_bytes * dt / n,
            activity.lustre_write_bytes * dt / n,
        ]
        self.step([row] * n, rng, rows=slice(n))


class LliteDevice(Device):
    """llite (VFS-facing) counters, one instance per mount point."""

    type_name = "llite"

    def __init__(self, filesystems=DEFAULT_FILESYSTEMS, noise: float = 0.02) -> None:
        self.filesystems = tuple(filesystems)
        super().__init__(
            LLITE_SCHEMA, [f"/{fs}" for fs in self.filesystems], noise=noise
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        inst = self.instances[0]
        if (
            activity.llite_opens <= 0
            and activity.llite_closes <= 0
            and activity.lustre_read_bytes <= 0
            and activity.lustre_write_bytes <= 0
        ):
            return
        self.bump(
            inst,
            {
                "open": activity.llite_opens * dt,
                "close": activity.llite_closes * dt,
                "read_bytes": activity.lustre_read_bytes * dt,
                "write_bytes": activity.lustre_write_bytes * dt,
                "getattr": activity.mdc_reqs * dt * 0.5,
                "statfs": 0.01 * dt,
            },
            rng,
        )


class LnetDevice(Device):
    """Lustre networking counters; a single system-wide instance."""

    type_name = "lnet"

    #: RPC overhead: lnet moves slightly more bytes than the payload
    OVERHEAD = 1.05
    MSG_BYTES = 1_048_576  # 1 MB bulk RPC

    def __init__(self, noise: float = 0.02) -> None:
        super().__init__(LNET_SCHEMA, ["lnet"], noise=noise)

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        rx = activity.lustre_read_bytes * dt * self.OVERHEAD
        tx = activity.lustre_write_bytes * dt * self.OVERHEAD
        # metadata RPCs are small but count as messages
        meta_msgs = (activity.mdc_reqs + activity.osc_reqs) * dt
        if rx <= 0 and tx <= 0 and meta_msgs <= 0:
            return
        self.bump(
            "lnet",
            {
                "rx_bytes": rx + meta_msgs * 256,
                "tx_bytes": tx + meta_msgs * 256,
                "rx_msgs": rx / self.MSG_BYTES + meta_msgs,
                "tx_msgs": tx / self.MSG_BYTES + meta_msgs,
            },
            rng,
        )
