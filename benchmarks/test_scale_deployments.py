"""Deployment-scale benchmark: the paper's three daemon-mode systems.

§III-A: the daemon mode *"was first tested on TACC's 132 node Maverick
system, then deployed on SDSC's 1984 node Comet system, and most
recently deployed on TACC's 1278 node Lonestar 5 Cray system."*

The benchmark boots each fleet, runs an hour of monitored operation
with live jobs, and verifies the backend keeps up: every sample
delivered in real time, zero broker drops, and end-to-end processing
far faster than wall-clock (a backend slower than real time cannot
monitor anything).
"""

import time

import numpy as np
import pytest

from benchmarks._support import once, record_bench, report
from benchmarks.test_throughput import BENCH_JSON
from repro import monitoring_session
from repro.cluster import DEFAULT_MIX, WorkloadGenerator
from repro.core.collector import Sample
from repro.core.rawfile import RawFileWriter
from repro.core.store import CentralStore
from repro.db import Database
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.pipeline import ingest_jobs

#: (name, nodes, architecture)
DEPLOYMENTS = (
    ("Maverick", 132, "intel_snb"),
    ("Lonestar 5", 1278, "intel_hsw"),
    ("Comet", 1984, "intel_hsw"),
)

SIM_SECONDS = 3600  # one monitored hour per system


def run_deployment(nodes: int, arch: str):
    wall0 = time.perf_counter()
    sess = monitoring_session(
        nodes=nodes, seed=132, tick=600, arch=arch, xeon_phi=False,
    )
    gen = WorkloadGenerator(
        sess.cluster, DEFAULT_MIX,
        rate_per_hour=nodes / 4.0, diurnal=False,
    )
    gen.run(SIM_SECONDS)
    sess.cluster.run_for(SIM_SECONDS + 30)
    wall = time.perf_counter() - wall0
    return {
        "published": sess.broker.published,
        "consumed": sess.consumer.consumed,
        "dropped": sess.broker.dropped,
        "lag_max": sess.store.lag_stats()["max"],
        "hosts": len(sess.store.hosts()),
        "wall_s": wall,
        "speedup": SIM_SECONDS / wall,
    }


def test_scale_deployments(benchmark):
    results = once(
        benchmark,
        lambda: {
            name: run_deployment(nodes, arch)
            for name, nodes, arch in DEPLOYMENTS
        },
    )
    rows = []
    for name, nodes, arch in DEPLOYMENTS:
        r = results[name]
        rows.append((
            name, f"{nodes} × {arch}", f"{r['published']:,}",
            f"{r['lag_max']:.0f}s", f"{r['speedup']:,.0f}x realtime",
        ))
    report("Deployment scale: one monitored hour per system", rows,
           ["system", "fleet", "samples", "max lag", "backend speed"])

    for name, nodes, arch in DEPLOYMENTS:
        r = results[name]
        # every node reported, nothing dropped, delivery in real time
        assert r["hosts"] == nodes, name
        assert r["dropped"] == 0, name
        assert r["consumed"] == r["published"], name
        assert r["lag_max"] < 10, name
        # ≥ 6 periodic samples per node plus job begin/end samples
        assert r["published"] >= nodes * 6, name
        # the backend must outrun the wall clock by a wide margin
        assert r["speedup"] > 20, name


# -- full-day ingest at Stampede size -----------------------------------------

FLEET_NODES = 1984          # Comet / Stampede-class fleet
DAY_SAMPLES = 144           # 24 h at the 10-minute cadence
HOSTS_PER_JOB = 4

_SCALE_SCHEMAS = {
    "cpu": Schema([SchemaEntry(n, unit="cs") for n in
                   ("user", "nice", "system", "idle", "iowait",
                    "irq", "softirq")]),
    "mdc": Schema([SchemaEntry("reqs", width=64),
                   SchemaEntry("wait_us", width=64)]),
    "lnet": Schema([SchemaEntry("rx_bytes", width=64, unit="B"),
                    SchemaEntry("tx_bytes", width=64, unit="B")]),
    "mem": Schema([SchemaEntry("MemUsed", event=False, unit="B")]),
}


def build_fleet_store(root, hosts: int = FLEET_NODES,
                      samples: int = DAY_SAMPLES) -> CentralStore:
    """A full day of raw data for a whole fleet, written template-style.

    One host's day is rendered once with :class:`RawFileWriter`; every
    other host gets the same byte layout with its own hostname and job
    id substituted.  Generation therefore stays a small fraction of
    the ingest time being measured, while the parser sees exactly the
    production wire format.
    """
    t0 = 1_443_657_600
    rng = np.random.default_rng(1984)
    template_host = "HOSTTMPL-000"
    w = RawFileWriter(template_host, "intel_hsw", _SCALE_SCHEMAS,
                      mem_bytes=1 << 37)
    parts = [w.header()]
    base = rng.integers(0, 1 << 30, size=(4, 7)).astype(float)
    for i in range(samples):
        base += rng.integers(0, 1 << 20, size=(4, 7)).astype(float)
        data = {
            "cpu": {str(c): base[c] for c in range(4)},
            "mdc": {"t": rng.integers(0, 1 << 40, size=2).astype(float)},
            "lnet": {"0": rng.integers(0, 1 << 40, size=2).astype(float)},
            "mem": {"0": np.array([float(rng.integers(1 << 33, 1 << 36))])},
        }
        parts.append(w.record(Sample(
            host=template_host, timestamp=t0 + 600 * i,
            jobids=["JOBTMPL"], data=data, procs=[])))
    template = "".join(parts)

    store = CentralStore(root)
    for h in range(hosts):
        host = f"c{h // 24:03d}-{h % 24:03d}"
        jid = str(5_000_000 + h // HOSTS_PER_JOB)
        store.append(
            host,
            template.replace(template_host, host).replace("JOBTMPL", jid),
            arrived_at=t0 + 600 * samples,
        )
    store.close()
    return store


def test_scale_full_day_ingest(benchmark, tmp_path):
    """Stampede-size fleet, one day of raw data, one ETL pass.

    1984 hosts × 144 samples (≈286 k samples, 496 four-node jobs)
    must flow store → blocks → metrics → job table comfortably inside
    the daily cron window, exactly once.
    """
    gen0 = time.perf_counter()
    store = build_fleet_store(tmp_path / "fleet")
    gen_s = time.perf_counter() - gen0
    n_jobs = FLEET_NODES // HOSTS_PER_JOB

    db = Database()

    def full_day_pass():
        return ingest_jobs(store, None, db, batch_size=200)

    t0 = time.perf_counter()
    result = once(benchmark, full_day_pass)
    wall = time.perf_counter() - t0
    samples = FLEET_NODES * DAY_SAMPLES
    rate = samples / wall

    report(f"Full-day ingest at Stampede size ({FLEET_NODES} nodes)", [
        ("raw data", f"{FLEET_NODES} hosts × {DAY_SAMPLES} samples",
         f"{samples:,} samples"),
        ("generation", f"{gen_s:.1f}s", "(not measured)"),
        ("ETL pass", f"{wall:.1f}s", f"{rate:,.0f} samples/s"),
        ("jobs ingested", f"{result.ingested:,}", ""),
    ], ["stage", "size/wall", "rate"])
    record_bench(BENCH_JSON, "full_day_1984_nodes", {
        "hosts": FLEET_NODES,
        "samples_per_host": DAY_SAMPLES,
        "jobs": n_jobs,
        "etl_wall_s": round(wall, 2),
        "samples_per_s": round(rate),
    })

    assert result.ingested == n_jobs
    assert not result.errors
    # a second pass is a no-op: exactly-once at fleet scale
    rerun = ingest_jobs(store, None, db)
    assert rerun.ingested == 0
    assert rerun.skipped_existing == n_jobs
    # the daily cron window is hours; a day of data must take minutes
    assert wall < 600, f"full-day ingest took {wall:.0f}s"
