"""Portal views: the job list and the per-job detail page.

§IV-B describes both: every query returns a list showing job metadata;
following a job link shows *"metadata, performance plots, executable
paths, working directories ... individual processes and their memory
usage, cpu affinities, and thread count ... along with a report
indicating which of the computed metrics passed or failed comparison
tests"*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.energy import EnergyReport, energy_breakdown
from repro.core.store import CentralStore
from repro.metrics.flags import FlagResult, Thresholds, evaluate_flags
from repro.metrics.table1 import METRIC_REGISTRY, compute_metrics
from repro.pipeline.accum import JobAccum
from repro.pipeline.parallel import assemble_jobs, parse_blocks
from repro.portal.plots import Panel, fig5_series

#: columns of the job list, in display order (§IV-B)
LIST_COLUMNS = (
    "jobid",
    "user",
    "executable",
    "start_time",
    "end_time",
    "run_time",
    "queue",
    "job_name",
    "status",
    "wayness",
    "nodes",
    "node_hours",
)


@dataclass
class JobListView:
    """Tabular job list for a set of records."""

    records: Sequence

    def cells(self) -> Iterator[Tuple[object, ...]]:
        """One tuple per record, in :data:`LIST_COLUMNS` order."""
        for r in self.records:
            yield tuple([getattr(r, col, None) for col in LIST_COLUMNS])

    def rows(self) -> List[Dict[str, object]]:
        return [dict(zip(LIST_COLUMNS, cells)) for cells in self.cells()]


@dataclass
class MetricCheck:
    """One row of the pass/fail metric report."""

    name: str
    value: float
    unit: str
    passed: bool
    note: str = ""


@dataclass
class JobDetailView:
    """Everything the portal's per-job page shows.

    Built from the raw store (time series need raw samples, not just
    the DB row).  Use :meth:`load` to construct.
    """

    jobid: str
    record: Optional[object]
    accum: JobAccum
    metrics: Dict[str, float]
    panels: Dict[str, Panel]
    flags: List[FlagResult]
    processes: List
    energy: Optional[EnergyReport] = None

    @classmethod
    def load(
        cls,
        jobid: str,
        store: CentralStore,
        jobs: Optional[Mapping] = None,
        record: Optional[object] = None,
        thresholds: Optional[Thresholds] = None,
    ) -> "JobDetailView":
        """Map, accumulate and analyse one job from the raw store.

        Only the job's assigned nodes are parsed when the catalogue
        knows the job; every host file otherwise.
        """
        known = jobs.get(jobid) if jobs is not None else None
        hosts = known.assigned_nodes if known is not None else None
        jobdata, _ = assemble_jobs(parse_blocks(store, hosts=hosts), jobs)
        if jobid not in jobdata:
            raise KeyError(f"job {jobid} not found in raw store")
        jd = jobdata[jobid]
        accum = jd.accumulate()
        metrics = compute_metrics(accum)
        job = jd.job
        meta = {
            "queue": getattr(job, "queue", "normal") if job else "normal",
            "nodes": getattr(job, "nodes", accum.n_hosts) if job else accum.n_hosts,
        }
        flags = evaluate_flags(metrics, accum, meta, thresholds)
        # built once: the process table and the energy report read them
        host_samples = jd.host_samples()
        # last process snapshot across the job's hosts
        procs = []
        for host, samples in sorted(host_samples.items()):
            for s in reversed(samples):
                if s.procs:
                    procs.extend(
                        p for p in s.procs if p.jobid == jobid or p.jobid == "-"
                    )
                    break
        return cls(
            jobid=jobid,
            record=record,
            accum=accum,
            metrics=metrics,
            panels=fig5_series(accum),
            flags=flags,
            processes=procs,
            energy=energy_breakdown(jobid, host_samples),
        )

    def metric_report(
        self, thresholds: Optional[Thresholds] = None
    ) -> List[MetricCheck]:
        """Pass/fail comparison per metric (§IV-B detail page).

        A metric "fails" when it participates in a raised flag.
        """
        failed_by: Dict[str, str] = {}
        flag_metric = {
            "high_metadata_rate": "MetaDataRate",
            "high_gige": "GigEBW",
            "largemem_waste": "MemUsage",
            "idle_nodes": "idle",
            "sudden_drop": "catastrophe",
            "sudden_rise": "catastrophe",
            "high_cpi": "cpi",
        }
        for f in self.flags:
            m = flag_metric.get(f.name)
            if m:
                failed_by[m] = f.detail
        out = []
        for name, mdef in METRIC_REGISTRY.items():
            out.append(
                MetricCheck(
                    name=name,
                    value=self.metrics.get(name, float("nan")),
                    unit=mdef.unit,
                    passed=name not in failed_by,
                    note=failed_by.get(name, ""),
                )
            )
        return out

    def process_table(self) -> List[Dict[str, object]]:
        """Per-process info the detail page exposes (§IV-B)."""
        return [
            {
                "pid": p.pid,
                "name": p.name,
                "owner": p.owner,
                "vmrss_kb": p.vmrss_kb,
                "vmhwm_kb": p.vmhwm_kb,
                "threads": p.threads,
                "cpu_affinity": p.cpu_affinity,
                "mem_affinity": p.mem_affinity,
            }
            for p in self.processes
        ]
