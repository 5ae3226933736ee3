"""What an ingest pass keeps, reports and writes.

The pass itself is :func:`repro.pipeline.parallel.ingest_jobs`; this
module holds its durable single-file checkpoint, its result record
and the metrics → :class:`JobRecord` row builder.

Ingest is *idempotent*: jobs whose rows already exist in the target
database (or are listed in an :class:`IngestCheckpoint`) are skipped,
so re-running a pass over redelivered or re-synced raw data has
exactly-once effect on the job table — the recovery guarantee the
at-least-once broker transport needs.  Rows are committed in batches
and checkpointed after each batch, so a crash mid-pass loses at most
one batch of work, never completed work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional

from repro.cluster.jobs import Job
from repro.pipeline.records import JobRecord


class IngestCheckpoint:
    """Durable record of jobids whose rows are already committed.

    One JSON file updated atomically (write-temp + rename) after every
    committed batch; nothing about it depends on how many workers the
    pass ran with.  A crashed ingest process resumes by constructing
    the checkpoint from the same path: completed jobs are skipped, the
    interrupted batch is re-done — harmless, because the database-side
    dedup makes re-insertion a no-op anyway.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._done: set = set()
        if self.path.exists():
            try:
                payload = json.loads(self.path.read_text())
                self._done = set(payload.get("done", []))
            except (ValueError, OSError):
                # corrupt checkpoint: start over; idempotent ingest
                # makes the re-work safe, just slower
                self._done = set()

    def __contains__(self, jobid: str) -> bool:
        return jobid in self._done

    def __len__(self) -> int:
        return len(self._done)

    def done(self) -> List[str]:
        return sorted(self._done)

    def mark_many(self, jobids: Iterable[str]) -> None:
        """Record a committed batch and flush atomically."""
        self._done.update(jobids)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps({"done": sorted(self._done)}))
        os.replace(tmp, self.path)

    def clear(self) -> None:
        self._done = set()
        self.path.unlink(missing_ok=True)


@dataclass
class IngestResult:
    """What happened during one ingest pass."""

    ingested: int = 0
    dropped_short: int = 0
    #: jobs skipped because they were already ingested (idempotency)
    skipped_existing: int = 0
    errors: List[str] = field(default_factory=list)
    flagged: Dict[str, List[str]] = field(default_factory=dict)


def record_from(
    jobid: str,
    metrics: Mapping[str, float],
    job: Optional[Job] = None,
    flags: Optional[List[str]] = None,
):
    """Build one JobRecord from computed metrics and job metadata."""
    kwargs: Dict[str, object] = {"jobid": jobid, "flags": flags or []}
    if job is not None:
        kwargs.update(
            user=job.user,
            account=job.spec.account,
            executable=job.executable,
            job_name=job.spec.name,
            queue=job.queue,
            status=job.status,
            nodes=job.nodes,
            wayness=job.wayness,
            submit_time=job.submit_time,
            start_time=job.start_time or 0,
            end_time=job.end_time or 0,
            run_time=job.run_time() or 0,
            queue_wait=job.queue_wait() or 0,
            node_hours=job.node_hours() or 0.0,
        )
    else:
        kwargs["user"] = "?"
    kwargs.update(metrics)
    return JobRecord(**kwargs)
