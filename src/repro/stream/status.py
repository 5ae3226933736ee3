"""Online monitoring (§I): the live cluster status, read off the stream.

What an operator watches — per-host current rates, per-job aggregates
over the hosts a job occupies, cluster-wide utilisation and filesystem
pressure — is already in a running
:class:`~repro.stream.pipeline.StreamPipeline`: the live store holds
every counter of the last ``raw_horizon`` and the analyzer knows which
jobs sit on which host.  :class:`LiveStatus` is that read.  It keeps
nothing between reads — two pipelines fed the same deliveries give the
same status — and is as fresh as the broker, not as rsync.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.hardware.arch import ARCHITECTURES
from repro.pipeline.accum import _QUANTITY_INDEX
from repro.stream.pipeline import StreamPipeline

__all__ = ["HostStatus", "LiveStatus"]


@dataclass(frozen=True)
class HostStatus:
    """Latest derived rates for one host."""

    host: str
    updated_at: int
    jobids: Tuple[str, ...]
    cpu_user_frac: float
    mdc_reqs_per_s: float
    lnet_mb_per_s: float
    gflops: float


class LiveStatus:
    """Per-host / per-job / cluster state as of ``pipeline``'s last
    delivery: each host's rates over its latest collection interval."""

    def __init__(self, pipeline: StreamPipeline) -> None:
        updated: Dict[str, int] = {}

        def latest(key: str, core_type: str = "") -> Dict[str, float]:
            """host → the rate of canonical quantity ``key`` (Table I's
            counter sums) over the host's last interval."""
            q = _QUANTITY_INDEX[key]
            result = pipeline.query(
                pipeline.metric,
                tags={"type": q.type_name or core_type, "event": q.counters},
                group_by=("host",), rate=True,
            )
            rates: Dict[str, float] = defaultdict(float)
            for s in result.series:
                if len(s.values):
                    rates[s.tags["host"]] = float(s.values[-1])
                    updated[s.tags["host"]] = int(s.times[-1])
            return rates

        cpu_user = latest("cpu_user")
        cpu_total = latest("cpu_total")
        mdc = latest("mdc_reqs")
        lnet = latest("lnet_bytes")
        # the core counters' device type is the host's ``$arch``, which
        # fixes how many doubles one vector instruction retires
        flops: Dict[str, float] = defaultdict(float)
        for name, arch in ARCHITECTURES.items():
            vector = latest("fp_vector", name)
            for host, scalar in latest("fp_scalar", name).items():
                if host in vector:
                    flops[host] = (
                        scalar + arch.vector_width_doubles * vector[host]
                    )
        self.hosts: Dict[str, HostStatus] = {
            host: HostStatus(
                host=host,
                updated_at=updated.get(host, 0),
                jobids=tuple(sorted(jobids)),
                cpu_user_frac=cpu_user[host] / (cpu_total[host] or 1.0),
                mdc_reqs_per_s=mdc[host],
                lnet_mb_per_s=lnet[host] / 1e6,
                gflops=flops[host] / 1e9,
            )
            for host, jobids in pipeline.analyzer.host_jobs.items()
        }

    # -- views --------------------------------------------------------------
    @staticmethod
    def _over(members: List[HostStatus]) -> Dict[str, float]:
        """The aggregates of a set of hosts: one job's, or everyone's."""
        if not members:
            return {}
        return {
            "hosts": float(len(members)),
            "cpu_user_frac": float(
                np.mean([h.cpu_user_frac for h in members])
            ),
            "mdc_reqs_per_s": float(sum(h.mdc_reqs_per_s for h in members)),
            "lnet_mb_per_s": float(sum(h.lnet_mb_per_s for h in members)),
            "gflops": float(sum(h.gflops for h in members)),
        }

    def job_rates(self, jobid: str) -> Dict[str, float]:
        """Live aggregates for one job over the hosts it occupies."""
        return self._over(
            [h for h in self.hosts.values() if jobid in h.jobids]
        )

    def cluster_utilization(self) -> float:
        """Mean live CPU user fraction across reporting hosts."""
        return self._over(list(self.hosts.values())).get("cpu_user_frac", 0.0)

    def fs_pressure(self) -> float:
        """Cluster-wide metadata request rate right now."""
        return self._over(list(self.hosts.values())).get("mdc_reqs_per_s", 0.0)

    def busy_hosts(self) -> List[str]:
        return sorted(h.host for h in self.hosts.values() if h.jobids)

    def render_text(self, max_hosts: int = 24) -> str:
        lines = [
            f"=== live status: {len(self.hosts)} hosts reporting, "
            f"util {self.cluster_utilization():.0%}, "
            f"MDS {self.fs_pressure():,.0f} req/s ==="
        ]
        for host in sorted(self.hosts)[:max_hosts]:
            h = self.hosts[host]
            jobs = ",".join(h.jobids) or "-"
            lines.append(
                f"  {host:<10} cpu={h.cpu_user_frac:5.2f} "
                f"gflops={h.gflops:7.1f} mdc={h.mdc_reqs_per_s:9.1f}/s "
                f"lnet={h.lnet_mb_per_s:7.2f}MB/s jobs={jobs}"
            )
        return "\n".join(lines)
