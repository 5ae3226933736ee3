"""The collection step: snapshot every device on one node.

One :meth:`Collector.collect` call is the equivalent of running the
``tacc_stats`` executable (cron mode) or of the daemon waking from
``sleep()`` (daemon mode).  It

1. brings the node's counters current (lazy simulation catch-up),
2. reads every device the build config wants and the node has —
   a build flag without matching hardware is silently fine (§III-B),
3. stamps the sample with the node's current job list, and
4. charges the overhead model ~0.09 core-seconds (§VI-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.cluster.cluster import Cluster
from repro.core.config import BuildConfig, MonitorConfig
from repro.core.overhead import OverheadModel
from repro.hardware.devices.procfs import ProcessRecord


@dataclass
class Sample:
    """One collection from one node."""

    host: str
    timestamp: int
    jobids: List[str]
    data: Dict[str, Dict[str, np.ndarray]]
    procs: List[ProcessRecord] = field(default_factory=list)

    def types(self) -> List[str]:
        return sorted(self.data)


class Collector:
    """Reads a cluster's nodes into :class:`Sample` objects."""

    def __init__(
        self,
        cluster: Cluster,
        build: Optional[BuildConfig] = None,
        monitor: Optional[MonitorConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.build = build or BuildConfig()
        self.monitor = monitor or MonitorConfig()
        self.overhead = OverheadModel(self.monitor.collect_seconds)
        self.collections = 0
        #: device types this build collects
        self._wanted = self.build.wanted_types()

    def collect(
        self, node_name: str, jobid_hint: Optional[str] = None
    ) -> Optional[Sample]:
        """Collect one sample; returns None if the node is down.

        ``jobid_hint`` is the job id the scheduler passes in
        prolog/epilog invocations; it is merged into the job list so
        begin/end samples are attributed even if residency already
        changed.
        """
        node = self.cluster.nodes[node_name]
        if node.failed:
            obs.counter(
                "repro_collector_skipped_down_total",
                "collection attempts against failed nodes",
            ).inc()
            return None
        with obs.span("collector.collect", node=node_name) as sp:
            now = self.cluster.now()
            self.cluster.catch_up(node_name, now)
            data = {
                t: dev.read()
                for t, dev in node.tree.devices.items()
                if t in self._wanted
            }
            jobids = list(node.jobids)
            if jobid_hint and jobid_hint not in jobids:
                jobids.append(jobid_hint)
            procs = node.tree.read_procs()
            self.collections += 1
            self.overhead.charge(node_name, now)
            # self-telemetry: the modeled per-collection core cost plus
            # the sim timestamp, so measured_fleet_overhead() can
            # recompute the paper's 0.02 % figure from spans alone
            sp.set(
                sim_time=now,
                core_seconds=self.overhead.collect_seconds,
                devices=len(data),
            )
            obs.counter(
                "repro_collector_collections_total",
                "successful device-snapshot collections",
            ).inc()
            return Sample(
                host=node_name,
                timestamp=now,
                jobids=sorted(jobids),
                data=data,
                procs=procs,
            )

    def schemas_for(self, node_name: str) -> Dict[str, object]:
        """Schemas of the devices this build collects on ``node_name``."""
        node = self.cluster.nodes[node_name]
        return {
            t: dev.schema
            for t, dev in node.tree.devices.items()
            if t in self._wanted
        }
