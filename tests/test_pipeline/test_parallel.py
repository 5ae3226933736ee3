"""The job ETL: oracle equivalence and crash recovery.

The contract under test is the one ``docs/architecture.md`` documents:
``ingest_jobs`` must produce a database byte-identical to the frozen
per-sample driver in ``reference.py``, quarantine the same corrupt
lines, and recover from mid-batch crashes without losing or
duplicating jobs.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.core.collector import Sample
from repro.core.rawfile import RawFileWriter
from repro.core.store import CentralStore
from repro.db import Database
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.metrics.table1 import compute_metrics, compute_metrics_batch
from repro.pipeline import IngestCheckpoint, parallel as parallel_mod
from repro.pipeline.parallel import assemble_jobs, ingest_jobs, parse_blocks
from repro.pipeline.records import JobRecord
from tests.test_pipeline.reference import (
    accumulate,
    assert_same_accum,
    map_jobs,
    reference_ingest,
)

SCHEMAS = {
    "cpu": Schema([SchemaEntry(n, unit="cs") for n in
                   ("user", "nice", "system", "idle", "iowait",
                    "irq", "softirq")]),
    "mdc": Schema([SchemaEntry("reqs", width=64),
                   SchemaEntry("wait_us", width=64)]),
    "lnet": Schema([SchemaEntry("rx_bytes", width=64, unit="B"),
                    SchemaEntry("tx_bytes", width=64, unit="B")]),
    "mem": Schema([SchemaEntry("MemUsed", event=False, unit="B")]),
}

T0 = 1_443_657_600  # 2015-10-01, the paper's Stampede quarter


def build_store(root, hosts=8, samples=24, cpus=4, hosts_per_job=4,
                seed=7) -> CentralStore:
    """A seeded raw store: ``hosts`` files, ``hosts/hosts_per_job`` jobs."""
    store = CentralStore(root)
    rng = np.random.default_rng(seed)
    for h in range(hosts):
        host = f"c{h // 24:03d}-{h % 24:03d}"
        jid = str(2_000_000 + h // hosts_per_job)
        w = RawFileWriter(host, "intel_snb", SCHEMAS, mem_bytes=1 << 35)
        parts = [w.header()]
        base = rng.integers(0, 1 << 30, size=(cpus, 7)).astype(float)
        for i in range(samples):
            base += rng.integers(0, 1 << 20, size=(cpus, 7)).astype(float)
            data = {
                "cpu": {str(c): base[c] for c in range(cpus)},
                "mdc": {"t": rng.integers(0, 1 << 40, size=2).astype(float)},
                "lnet": {"0": rng.integers(0, 1 << 40, size=2).astype(float)},
                "mem": {"0": np.array(
                    [float(rng.integers(1 << 30, 1 << 34))])},
            }
            parts.append(w.record(Sample(
                host=host, timestamp=T0 + 600 * i,
                jobids=[jid], data=data, procs=[])))
        store.append(host, "".join(parts), arrived_at=T0 + 600 * samples)
    store.flush()
    return store


@pytest.fixture
def raw_store(tmp_path) -> CentralStore:
    return build_store(tmp_path / "store")


def dump(db: Database):
    return list(db.conn.iterdump())


# -- oracle equivalence --------------------------------------------------------


def test_ingest_jobs_is_the_only_driver():
    assert parallel_mod.parallel_ingest_jobs is ingest_jobs


def test_parallel_matches_serial_byte_identical(raw_store):
    """The block-parsed ETL equals the frozen per-sample driver."""
    reference = Database()
    ref_result = reference_ingest(raw_store, None, reference)
    assert ref_result.ingested == 2
    ref_dump = dump(reference)

    db = Database()
    result = ingest_jobs(raw_store, None, db)
    assert result.ingested == ref_result.ingested
    assert result.flagged == ref_result.flagged
    assert dump(db) == ref_dump


def test_accumulate_blocks_matches_streaming(raw_store):
    """Columnar accumulation is bitwise equal to per-sample accumulation."""
    streaming, _ = map_jobs(raw_store)
    blocks = parse_blocks(raw_store)
    columnar, _ = assemble_jobs(blocks)
    assert sorted(columnar) == sorted(streaming)
    for jid, jd in columnar.items():
        assert_same_accum(jd.accumulate(), accumulate(streaming[jid]), jid)


def test_compute_metrics_batch_matches_per_job(raw_store):
    """Stacked job×device evaluation returns the per-job values exactly."""
    blocks = parse_blocks(raw_store)
    columnar, _ = assemble_jobs(blocks)
    accums = [columnar[jid].accumulate() for jid in sorted(columnar)]
    batched = compute_metrics_batch(accums)
    for accum, row in zip(accums, batched):
        assert row == compute_metrics(accum)


def test_quarantine_merged_under_parallelism(raw_store):
    """Corrupt lines quarantine exactly as the per-sample parser
    quarantines them."""
    victim = raw_store.hosts()[0]
    with open(raw_store.path_for(victim), "a") as fh:
        fh.write("cpu 0 not-a-number 1 2 3 4 5 6\n")
        fh.write("garbage line with no schema\n")

    def ledger(store):
        return {
            host: [(e.lineno, e.line, e.reason) for e in errors]
            for host, errors in store.quarantined.items()
        }

    oracle_store = CentralStore(raw_store.root)
    db_ref = Database()
    reference_ingest(oracle_store, None, db_ref)
    expected = ledger(oracle_store)
    assert expected.get(victim)

    store = CentralStore(raw_store.root)
    db = Database()
    ingest_jobs(store, None, db)
    assert ledger(store) == expected
    assert (store.root / "quarantine" / f"{victim}.bad").exists()
    # and the damaged store still ingests identically
    assert dump(db) == dump(db_ref)


# -- checkpoint durability ----------------------------------------------------


def test_checkpoint_written_at_one_worker_count_is_read_at_any(
        raw_store, tmp_path, capsys):
    """``--checkpoint DIR`` marked by one run and reopened by three more
    — each time against an empty database, so only the checkpoint can
    recognise the jobs — skips every one of them."""
    from repro.cli import main

    def run(db):
        rc = main(["ingest", "--store", str(raw_store.root),
                   "--db", str(tmp_path / db),
                   "--batch-size", "1", "--checkpoint", str(tmp_path / "ck")])
        assert rc == 0
        return capsys.readouterr().out

    assert "ingested 2 jobs" in run("first.db")
    assert IngestCheckpoint(tmp_path / "ck" / "checkpoint.json").done() == [
        "2000000", "2000001"]
    for again in range(3):
        out = run(f"again{again}.db")
        assert "ingested 0 jobs" in out and "skipped 2 already" in out


def test_checkpoint_resume_after_midbatch_crash(raw_store, tmp_path,
                                                monkeypatch):
    """A crash between batches resumes exactly-once from the checkpoint."""
    db = Database()
    ckpt = IngestCheckpoint(tmp_path / "ckpt" / "checkpoint.json")

    real_bulk_create = JobRecord.objects.bulk_create
    calls = {"n": 0}

    def flaky_bulk_create(objs, chunk_size=0):
        calls["n"] += 1
        if calls["n"] > 1:
            raise RuntimeError("simulated crash after first batch")
        return real_bulk_create(objs, chunk_size=chunk_size)

    monkeypatch.setattr(JobRecord.objects, "bulk_create", flaky_bulk_create)
    with pytest.raises(RuntimeError, match="simulated crash"):
        ingest_jobs(raw_store, None, db, batch_size=1, checkpoint=ckpt)
    monkeypatch.setattr(JobRecord.objects, "bulk_create", real_bulk_create)

    # the committed batch is durably checkpointed, the rest is not
    assert len(ckpt) == 1
    JobRecord.bind(db)
    assert JobRecord.objects.count() == 1

    resumed = ingest_jobs(
        raw_store, None, db,
        checkpoint=IngestCheckpoint(tmp_path / "ckpt" / "checkpoint.json"))
    assert resumed.skipped_existing == 1
    assert resumed.ingested == 1

    # exactly-once: the resumed database equals an uninterrupted run's
    clean = Database()
    ingest_jobs(raw_store, None, clean)
    assert dump(db) == dump(clean)


# -- swallowed database errors -------------------------------------------------


def test_missing_job_table_reads_as_nothing_ingested(raw_store):
    """``create_table=False`` on a first run: the skip-existing probe
    finds no table, which means no job is there to skip — and the pass
    then fails at the insert, not silently."""
    db = Database()
    with pytest.raises(sqlite3.OperationalError, match="no such table"):
        ingest_jobs(raw_store, None, db, create_table=False)
    JobRecord.bind(db)
    JobRecord.create_table()
    again = ingest_jobs(raw_store, None, db, create_table=False)
    assert (again.ingested, again.skipped_existing) == (2, 0)


def test_database_failure_is_not_an_empty_table(raw_store, tmp_path):
    """Any other failure of the skip-existing probe propagates before a
    row is written — it used to read as "nothing ingested yet" and
    re-ingest every job."""
    closed = Database()
    ingest_jobs(raw_store, None, closed)
    closed.close()
    with pytest.raises(sqlite3.ProgrammingError):
        ingest_jobs(raw_store, None, closed, create_table=False)

    path = str(tmp_path / "jobs.db")
    db = Database(path)
    ingest_jobs(raw_store, None, db)
    before = dump(db)
    locker = sqlite3.connect(path)
    locker.execute("PRAGMA locking_mode=EXCLUSIVE")
    locker.execute("BEGIN EXCLUSIVE")
    db.conn.execute("PRAGMA busy_timeout=0")
    try:
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            ingest_jobs(raw_store, None, db, create_table=False)
    finally:
        locker.rollback()
        locker.close()
    assert dump(db) == before
