"""ETL pipeline: raw stats → per-job data → metrics → database.

§IV-A: *"After data collection TACC Stats maps the raw output from each
node to job ids.  Metadata describing each job along with a set of
computed metrics are then ingested into a PostgreSQL database."*

One pass, :func:`ingest_jobs`, in four stages:

1. :func:`parse_blocks` — every host's raw file out of the
   :class:`~repro.core.store.CentralStore`, parsed into columnar
   blocks (:class:`~repro.core.rawfile.BlockParser`), in sorted host
   order.
2. :func:`assemble_jobs` + :func:`accumulate_blocks` — records
   bucketed by job id (a record tagged with several jobs lands in each
   — shared nodes) and reduced to a :class:`JobAccum`: rollover-
   corrected per-interval deltas of the canonical quantities, the
   metrics engine's input representation.
3. :func:`~repro.metrics.table1.compute_metrics_batch` — Table I on
   stacked job tensors.
4. one row per job into the database via chunked, checkpointed bulk
   inserts.

Its output is byte-identical to the frozen per-sample oracle in
``tests/test_pipeline/reference.py`` — see ``docs/architecture.md``
for the data-flow picture and ``docs/performance.md`` for tuning.

Example
-------
Write a two-host raw store, then ingest it:

>>> import tempfile
>>> import numpy as np
>>> from repro.core.collector import Sample
>>> from repro.core.rawfile import RawFileWriter
>>> from repro.core.store import CentralStore
>>> from repro.db import Database
>>> from repro.hardware.devices.base import Schema, SchemaEntry
>>> from repro.pipeline import ingest_jobs
>>> schemas = {"cpu": Schema([SchemaEntry("user", unit="cs"),
...                           SchemaEntry("idle", unit="cs")])}
>>> tmp = tempfile.TemporaryDirectory()
>>> store = CentralStore(tmp.name)
>>> for host in ("c100-001", "c100-002"):
...     w = RawFileWriter(host, "intel_snb", schemas, mem_bytes=1 << 34)
...     parts = [w.header()]
...     for i in range(3):
...         data = {"cpu": {"0": np.array([100.0 * i, 50.0 * i])}}
...         parts.append(w.record(Sample(host=host, timestamp=600 * i,
...                                      jobids=["42"], data=data,
...                                      procs=[])))
...     store.append(host, "".join(parts), arrived_at=1800)
>>> db = Database()
>>> result = ingest_jobs(store, None, db)
>>> result.ingested
1
>>> tmp.cleanup()
"""

from repro.pipeline.accum import (
    CANONICAL_QUANTITIES,
    JobAccum,
    accumulate_blocks,
)
from repro.pipeline.ingest import IngestCheckpoint, IngestResult
from repro.pipeline.parallel import (
    JobBlockData,
    assemble_jobs,
    ingest_jobs,
    parse_blocks,
)
from repro.pipeline.pickles import JobPickleStore

__all__ = [
    "JobAccum",
    "JobBlockData",
    "accumulate_blocks",
    "CANONICAL_QUANTITIES",
    "ingest_jobs",
    "IngestResult",
    "IngestCheckpoint",
    "JobPickleStore",
    "parse_blocks",
    "assemble_jobs",
]
