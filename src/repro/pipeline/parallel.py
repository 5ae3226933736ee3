"""The job ETL: fleet-scale raw files → job table.

§IV-A: *"After data collection TACC Stats maps the raw output from each
node to job ids.  Metadata describing each job along with a set of
computed metrics are then ingested into a PostgreSQL database."*
:func:`ingest_jobs` is that pass, and the only one in ``src/``:

1. **Parse** every per-host raw file with
   :class:`~repro.core.rawfile.BlockParser` — one columnar
   :class:`~repro.core.rawfile.HostBlock` per host, text→float64
   conversion done in bulk (:func:`parse_blocks`).
2. **Assemble** jobs from blocks (:func:`assemble_jobs`, a bucket-sort
   of record indices by job id) and reduce each to a
   :class:`~repro.pipeline.accum.JobAccum` with
   :func:`~repro.pipeline.accum.accumulate_blocks` — the hosts of one
   layout stacked, one gather and two sums per quantity.
3. **Compute** Table I with
   :func:`~repro.metrics.table1.compute_metrics_batch`, stacking
   same-shaped jobs into (jobs, nodes, T-1) arrays.
4. **Insert** rows with chunked ``bulk_create`` batches, checkpointing
   each committed batch.

Everything is deterministic: hosts are parsed and jobs are ingested
in sorted order, so the database matches the frozen per-sample oracle
in ``tests/test_pipeline/reference.py`` bit for bit.  Recovery
semantics: idempotent exactly-once ingest, durable checkpoints, and
per-host quarantine ledgers merged into the store in host order.
"""

from __future__ import annotations

import os
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.cluster.jobs import Job
from repro.core.rawfile import BlockParser, HostBlock, ParsedSample, Schema
from repro.core.store import CentralStore
from repro.db.connection import Database
from repro.metrics.flags import Thresholds, evaluate_flags
from repro.metrics.table1 import compute_metrics_batch
from repro.pipeline.accum import JobAccum, accumulate_blocks
from repro.pipeline.ingest import IngestResult, record_from
from repro.pipeline.records import JobRecord

__all__ = [
    "JobBlockData",
    "parse_blocks",
    "assemble_jobs",
    "ingest_jobs",
]


def parse_blocks(
    store: CentralStore, hosts: Optional[Iterable[str]] = None
) -> Dict[str, HostBlock]:
    """Parse every host file of the store into columnar blocks.

    Hosts go in sorted order, so quarantined lines are merged into the
    store's per-host ledgers in a deterministic order; a host without
    a raw file is left out.
    """
    store.flush()
    host_list = sorted(hosts) if hosts is not None else store.hosts()
    blocks: Dict[str, HostBlock] = {}
    for host in host_list:
        path = str(store.path_for(host))
        if not os.path.exists(path):
            continue
        block = BlockParser(on_error="quarantine").parse_path(path)
        blocks[host] = block
        if block.errors:
            store.record_parse_errors(host, block.errors)
    return blocks


@dataclass
class JobBlockData:
    """One job's slice of the parsed blocks."""

    jobid: str
    job: Optional[Job] = None
    #: host → (block, record indices belonging to this job)
    host_rows: Dict[str, Tuple[HostBlock, np.ndarray]] = field(
        default_factory=dict
    )
    schemas: Dict[str, Schema] = field(default_factory=dict)
    arch: Optional[str] = None

    @property
    def n_hosts(self) -> int:
        return len(self.host_rows)

    def min_samples_per_host(self) -> int:
        if not self.host_rows:
            return 0
        return min(len(rows) for _, rows in self.host_rows.values())

    def accumulate(self) -> JobAccum:
        return accumulate_blocks(
            self.jobid, self.host_rows, self.schemas, self.arch
        )

    def host_samples(self) -> Dict[str, List[ParsedSample]]:
        """The job's whole samples per host, oldest first.

        For the consumers that need more than counter columns: the
        process table and the per-socket / per-process energy report.
        """
        return {
            host: sorted(block.iter_samples(rows), key=lambda s: s.timestamp)
            for host, (block, rows) in self.host_rows.items()
        }


def assemble_jobs(
    blocks: Mapping[str, HostBlock],
    jobs: Optional[Mapping[str, Job]] = None,
    require_samples: int = 2,
) -> Tuple[Dict[str, JobBlockData], Dict[str, int]]:
    """Bucket block records by job id.

    A record tagged with several jobs lands in each (shared nodes).
    Jobs with fewer than ``require_samples`` records on some host
    cannot yield rates and are returned in ``dropped`` with their
    deficient count — the "short job" case the prolog/epilog
    guarantee exists to prevent.
    """
    out: Dict[str, JobBlockData] = {}
    for host in sorted(blocks):
        block = blocks[host]
        for jid, rows in block.job_rows().items():
            jd = out.get(jid)
            if jd is None:
                jd = out[jid] = JobBlockData(jobid=jid)
            jd.host_rows[host] = (block, rows)
            if not jd.schemas:
                jd.schemas = dict(block.schemas)
                jd.arch = block.arch
            elif len(block.schemas) > len(jd.schemas):
                jd.schemas.update(block.schemas)
    dropped: Dict[str, int] = {}
    for jid, jd in list(out.items()):
        if jobs is not None:
            jd.job = jobs.get(jid)
        n = jd.min_samples_per_host()
        if n < require_samples:
            dropped[jid] = n
            del out[jid]
    return out, dropped


#: job ids per exactly-once probe: under SQLite's oldest bound-variable
#: limit (999)
_PROBE_IDS = 900


def _ingested(jobids: List[str]) -> set:
    """Which of ``jobids`` already have a row: ``jobid IN (…)`` a chunk
    at a time, answered by the job id index — the probe costs this
    pass's jobs, not the table's."""
    found: set = set()
    for i in range(0, len(jobids), _PROBE_IDS):
        found.update(JobRecord.objects.filter(
            jobid__in=jobids[i:i + _PROBE_IDS]
        ).values_list("jobid", flat=True))
    return found


def ingest_jobs(
    store: CentralStore,
    jobs: Optional[Mapping[str, Job]] = None,
    db: Optional[Database] = None,
    thresholds: Optional[Thresholds] = None,
    create_table: bool = True,
    checkpoint=None,
    skip_existing: bool = True,
    batch_size: int = 200,
) -> IngestResult:
    """Full ETL pass: store → blocks → jobs → metrics → database rows.

    Only jobs that have *finished* are ingested (running jobs lack an
    epilog sample and would bias the averages).

    Recovery semantics: with ``skip_existing`` (default) a job whose
    row is already in the database is not re-inserted, so replaying the
    pass over redelivered data has exactly-once effect.  ``checkpoint``
    — an :class:`~repro.pipeline.ingest.IngestCheckpoint` — adds
    durable cross-process resume: rows are committed and checkpointed
    every ``batch_size`` jobs, and a later pass with the same
    checkpoint skips everything already committed.
    """
    if db is None:
        db = Database()
    stage_seconds = obs.histogram(
        "repro_ingest_stage_seconds",
        "wall-clock seconds spent in each ingest stage",
    )
    JobRecord.bind(db)
    if create_table:
        JobRecord.create_table()
    with obs.span("ingest.parse"):
        t0 = time.perf_counter()
        blocks = parse_blocks(store)
        stage_seconds.observe(time.perf_counter() - t0, stage="parse")
    t0 = time.perf_counter()
    jobdata, dropped = assemble_jobs(blocks, jobs)
    stage_seconds.observe(time.perf_counter() - t0, stage="assemble")
    result = IngestResult(dropped_short=len(dropped))
    already: set = set()
    if skip_existing:
        try:
            already = _ingested(sorted(jobdata))
        except sqlite3.OperationalError as exc:
            # create_table=False on a first run: nothing ingested yet.
            # Any other database failure must not read as "empty".
            if "no such table" not in str(exc):
                raise

    pending: List[Tuple[str, Optional[Job], JobAccum]] = []
    t0 = time.perf_counter()
    for jid in sorted(jobdata):
        if jid in already or (checkpoint is not None and jid in checkpoint):
            result.skipped_existing += 1
            obs.counter(
                "repro_ingest_jobs_skipped_total",
                "jobs skipped because already ingested (idempotency)",
            ).inc()
            continue
        jd = jobdata[jid]
        job = jd.job
        if job is not None and not job.state.finished:
            continue
        try:
            accum = jd.accumulate()
        except ValueError as exc:
            result.errors.append(f"{jid}: {exc}")
            obs.counter(
                "repro_ingest_errors_total",
                "jobs that failed accumulation or metric computation",
            ).inc()
            continue
        obs.counter(
            "repro_ingest_jobs_total",
            "jobs processed through accumulation and metrics",
        ).inc()
        pending.append((jid, job, accum))
    stage_seconds.observe(time.perf_counter() - t0, stage="accumulate")

    t0 = time.perf_counter()
    metric_rows = compute_metrics_batch([a for _, _, a in pending])
    stage_seconds.observe(time.perf_counter() - t0, stage="metrics")

    records: List[JobRecord] = []

    def commit_batch() -> None:
        if not records:
            return
        t0 = time.perf_counter()
        JobRecord.objects.bulk_create(records)
        db.commit()
        stage_seconds.observe(time.perf_counter() - t0, stage="insert")
        result.ingested += len(records)
        obs.counter(
            "repro_ingest_rows_committed_total",
            "job rows committed to the database",
        ).inc(len(records))
        if checkpoint is not None:
            checkpoint.mark_many(r.jobid for r in records)
        records.clear()

    with obs.span("ingest.run") as run_span:
        for (jid, job, accum), metrics in zip(pending, metric_rows):
            meta = {
                "queue": job.queue if job else "normal",
                "nodes": job.nodes if job else accum.n_hosts,
            }
            raised = evaluate_flags(metrics, accum, meta, thresholds)
            flag_names = [f.name for f in raised]
            if flag_names:
                result.flagged[jid] = flag_names
            records.append(record_from(jid, metrics, job, flag_names))
            if batch_size and len(records) >= batch_size:
                commit_batch()
        commit_batch()
        run_span.set(
            ingested=result.ingested,
            skipped=result.skipped_existing,
            errors=len(result.errors),
        )
    return result


#: the name this function had while a second, per-sample driver
#: existed; kept bound because ``bench/wl_batch.py`` imports it
parallel_ingest_jobs = ingest_jobs
