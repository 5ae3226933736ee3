"""Per-node device tree assembly.

§III-B: only three hardware configuration options are specified at
build time — Infiniband support, Xeon Phi presence, and Lustre — and
the rest (architecture, uncore devices, topology, hyperthreading) is
discovered at run time.  :func:`build_device_tree` reproduces that: it
takes the three build flags plus a synthetic cpuinfo, runs the
auto-detector, and assembles the matching device set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.arch import (
    Architecture,
    cpuinfo_for,
    detect_architecture,
    detect_hyperthreading,
)
from repro.hardware.devices.base import Device, Schema
from repro.hardware.devices.cpu import CoreCounterDevice, CpuTimeDevice
from repro.hardware.devices.gige import GigEDevice
from repro.hardware.devices.ib import InfinibandDevice
from repro.hardware.devices.lustre import (
    LliteDevice,
    LnetDevice,
    MdcDevice,
    OscDevice,
)
from repro.hardware.devices.mem import MemDevice
from repro.hardware.devices.mic import MicDevice
from repro.hardware.devices.osdev import BlockDevice, NumaDevice, VmDevice
from repro.hardware.devices.procfs import ProcDevice, ProcessRecord
from repro.hardware.devices.rapl import RaplDevice
from repro.hardware.devices.uncore import ImcDevice, QpiDevice
from repro.hardware.topology import Topology

DEFAULT_MEM_BYTES = 32 * (1 << 30)  # Stampede compute node: 32 GB


@dataclass
class DeviceTree:
    """All devices of one node, advanced and read as a unit."""

    arch: Architecture
    topology: Topology
    devices: Dict[str, Device]
    proc: ProcDevice
    hyperthreaded: bool

    def advance(
        self, activity: Activity, dt: float, rng: np.random.Generator
    ) -> None:
        """Advance every device by ``dt`` seconds of ``activity``.

        The activity is fitted to the node's CPUs and validated here,
        once per tick; the devices take it as it is.
        """
        act = activity.with_cpus(self.topology.cpus).validated()
        for dev in self.devices.values():
            dev.advance(act, dt, rng)
        self.proc.advance(act, dt, rng)

    def read_all(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Register values for every numeric device, keyed by type."""
        return {t: dev.read() for t, dev in self.devices.items()}

    def read_procs(self) -> List[ProcessRecord]:
        """Current process table snapshot."""
        return self.proc.read()

    def schemas(self) -> Dict[str, Schema]:
        """Schema per device type (for raw-file headers)."""
        return {t: dev.schema for t, dev in self.devices.items()}

    def device_types(self) -> List[str]:
        return sorted(self.devices)


def build_device_tree(
    arch: Optional[Architecture] = None,
    cpuinfo: Optional[Mapping[str, object]] = None,
    *,
    infiniband: bool = True,
    xeon_phi: bool = False,
    lustre: bool = True,
    mem_bytes: int = DEFAULT_MEM_BYTES,
    noise: float = 0.02,
) -> DeviceTree:
    """Assemble a node's devices, auto-detecting the architecture.

    Exactly one of ``arch`` or ``cpuinfo`` must describe the chip;
    passing ``arch`` synthesises the cpuinfo, mirroring what the
    detector would see on real hardware.

    The three keyword flags are the paper's three *build-time* options;
    everything else is runtime detection.  Devices for absent features
    are simply not built — §III-B: *"if any of these are not present on
    a node TACC Stats will execute successfully at run time"*.
    """
    if cpuinfo is None:
        if arch is None:
            raise ValueError("need arch or cpuinfo")
        cpuinfo = cpuinfo_for(arch)
    detected = detect_architecture(cpuinfo)
    if arch is not None and detected.name != arch.name:
        raise ValueError(
            f"cpuinfo describes {detected.name}, not {arch.name}"
        )
    arch = detected
    topology = Topology.from_architecture(arch)
    hyperthreaded = detect_hyperthreading(cpuinfo)

    devices: Dict[str, Device] = {}

    core = CoreCounterDevice(arch, noise=noise)
    devices[core.type_name] = core
    devices["cpu"] = CpuTimeDevice(topology.cpus, noise=0.0)
    devices["mem"] = MemDevice(topology.sockets, mem_bytes)

    if arch.has_uncore_pci:
        devices["imc"] = ImcDevice(topology.sockets, noise=noise)
        devices["qpi"] = QpiDevice(topology.sockets, noise=noise)
    if arch.rapl:
        devices["rapl"] = RaplDevice(topology, noise=noise / 2)
    if xeon_phi:
        devices["mic"] = MicDevice(cards=1)
    if infiniband:
        devices["ib"] = InfinibandDevice(ports=1, noise=noise)
    devices["gige"] = GigEDevice(nics=1, noise=noise)
    devices["block"] = BlockDevice(disks=1, noise=noise)
    devices["vm"] = VmDevice(mem_bytes, noise=noise)
    devices["numa"] = NumaDevice(topology.sockets, noise=noise)
    if lustre:
        devices["mdc"] = MdcDevice(noise=noise)
        devices["osc"] = OscDevice(noise=noise)
        devices["llite"] = LliteDevice(noise=noise)
        devices["lnet"] = LnetDevice(noise=noise)

    return DeviceTree(
        arch=arch,
        topology=topology,
        devices=devices,
        proc=ProcDevice(),
        hyperthreaded=hyperthreaded,
    )
