"""Rollover-storm equivalence: the ETL vs the frozen per-sample oracle.

With counters wrapping *and* a mid-job node reboot zeroing registers,
``ingest_jobs`` at any worker count and the per-sample driver in
``reference.py`` must still produce byte-identical databases — both
delegate rollover/reset classification to the one shared policy in
``repro.hardware.counters``.
"""

import numpy as np
import pytest

from repro.core.collector import Sample
from repro.core.rawfile import RawFileWriter
from repro.core.store import CentralStore
from repro.db import Database
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.pipeline.parallel import assemble_jobs, ingest_jobs, parse_blocks
from tests.test_pipeline.reference import (
    accumulate,
    assert_same_accum,
    map_jobs,
    reference_ingest,
)

T0 = 1_443_657_600  # 2015-10-01

SCHEMAS = {
    "cpu": Schema([SchemaEntry(n, unit="cs") for n in
                   ("user", "nice", "system", "idle", "iowait",
                    "irq", "softirq")]),
    # narrow registers so periodic increments genuinely wrap mid-job
    "lnet": Schema([SchemaEntry("rx_bytes", width=32, unit="B"),
                    SchemaEntry("tx_bytes", width=32, unit="B")]),
    "mem": Schema([SchemaEntry("MemUsed", event=False, unit="B")]),
}


def build_storm_store(root, hosts=6, samples=30, cpus=4,
                      reboot_host=1, reboot_at=14, seed=23) -> CentralStore:
    """Raw store where counters wrap repeatedly and one host reboots.

    lnet counters are 32-bit and advance ~2**28 per interval, so they
    wrap several times over the job; host ``reboot_host`` additionally
    zeroes *all* registers at sample ``reboot_at`` (node reboot), the
    case whose classification used to diverge between paths.
    """
    store = CentralStore(root)
    rng = np.random.default_rng(seed)
    wrap = 2.0**32
    for h in range(hosts):
        host = f"c000-{h:03d}"
        jid = str(2_000_000 + h // 3)
        w = RawFileWriter(host, "intel_snb", SCHEMAS, mem_bytes=1 << 35)
        parts = [w.header()]
        cpu = rng.integers(0, 1 << 30, size=(cpus, 7)).astype(float)
        lnet = rng.uniform(0, wrap, size=2)
        for i in range(samples):
            if h == reboot_host and i == reboot_at:
                cpu[:] = 0.0  # reboot: registers restart from zero
                lnet[:] = 0.0
            cpu += rng.integers(0, 1 << 20, size=(cpus, 7)).astype(float)
            lnet = np.mod(lnet + rng.uniform(2**27, 2**28, size=2), wrap)
            data = {
                "cpu": {str(c): cpu[c] for c in range(cpus)},
                "lnet": {"0": lnet.copy()},
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
def storm_store(tmp_path) -> CentralStore:
    return build_storm_store(tmp_path / "storm")


def dump(db: Database):
    return list(db.conn.iterdump())


def test_store_actually_wraps_and_resets(storm_store):
    """Sanity: the fixture exercises both negative-delta classes."""
    jobdata, _ = map_jobs(storm_store)
    lnet_neg = cpu_reset = 0
    for jd in jobdata.values():
        for h, samples in jd.hosts.items():
            lnet = np.array([
                float(s.data["lnet"]["0"].sum()) for s in samples
            ])
            lnet_neg += int((np.diff(lnet) < 0).sum())
            # cpu counters are 64-bit: a negative delta "wrap" there
            # would claim ~2**64 events, so it can only be the reboot
            cpu = np.array([
                float(sum(v.sum() for v in s.data["cpu"].values()))
                for s in samples
            ])
            d = np.diff(cpu)
            cpu_reset += int(
                ((d < 0) & ((d + 2.0**64) > 2.0**64 * 0.25)).sum()
            )
    assert lnet_neg > 5  # plenty of narrow-register wraps
    assert cpu_reset >= 1  # and the injected reboot reads as a reset


def test_streaming_and_batch_accumulate_identically(storm_store):
    streaming, _ = map_jobs(storm_store)
    columnar, _ = assemble_jobs(parse_blocks(storm_store))
    assert sorted(columnar) == sorted(streaming)
    for jid in streaming:
        a = accumulate(streaming[jid])
        assert_same_accum(columnar[jid].accumulate(), a, jid)
        # reboot intervals never explode into ~2**W phantom deltas
        assert np.nanmax(np.abs(a.deltas["lnet_bytes"])) < 2.0**32 * 0.5


def test_byte_identical_under_reboot_any_worker_count(storm_store):
    reference = Database()
    ref_result = reference_ingest(storm_store, None, reference)
    assert ref_result.ingested == 2
    ref_dump = dump(reference)

    db = Database()
    result = ingest_jobs(storm_store, None, db)
    assert result.ingested == ref_result.ingested
    assert dump(db) == ref_dump
