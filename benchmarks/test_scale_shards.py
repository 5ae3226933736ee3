"""Scale-out gate: sharded ingest must actually scale with workers.

The paper's largest deployment (§II: Stampede) is ~6400 hosts; this
benchmark pushes the reproduction far past that — a 50 000-node
simulated day at 10-minute cadence, 7.2 M host records — and ingests
it through :class:`~repro.shard.ShardedTSDB` at 1, 2 and 4 worker
processes over 8 shards.  Per-config samples/s land in
``BENCH_shards.json`` so the scaling curve travels with the repo.

The ≥2× speedup gate for 1→4 workers only fires on hosts with at
least 4 CPUs (CI runners qualify; a 1-core container cannot scale and
records its honest flat curve instead).  Correctness is asserted
unconditionally: every worker count must load the identical point
count and answer spot-check ``window_stats`` queries bit-identically.

Size knob: ``REPRO_SHARD_BENCH_HOSTS`` (default 50000) scales the
fleet down for quick local runs, e.g. ``REPRO_SHARD_BENCH_HOSTS=2000``.
"""

import os
from pathlib import Path

import numpy as np

from benchmarks._support import record_bench, report
from repro.core.collector import Sample
from repro.core.rawfile import RawFileWriter
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.shard import ShardedTSDB, TemplateSource

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_shards.json"

HOSTS = int(os.environ.get("REPRO_SHARD_BENCH_HOSTS", "50000"))
SAMPLES = 144          # one day at 600 s cadence
SHARDS = 8
WORKER_STEPS = (1, 2, 4)
TYPES = ["mdc"]        # bounded memory: 2 points/record; parse cost is
                       # unchanged (the full 4-type text is still lexed)
MIN_SPEEDUP_4V1 = 2.0

_SCHEMAS = {
    "cpu": Schema([SchemaEntry(n, unit="cs") for n in
                   ("user", "nice", "system", "idle", "iowait",
                    "irq", "softirq")]),
    "mdc": Schema([SchemaEntry("reqs", width=64),
                   SchemaEntry("wait_us", width=64)]),
    "lnet": Schema([SchemaEntry("rx_bytes", width=64, unit="B"),
                    SchemaEntry("tx_bytes", width=64, unit="B")]),
    "mem": Schema([SchemaEntry("MemUsed", event=False, unit="B")]),
}

TEMPLATE_HOST = "HOSTTMPL-000"
TEMPLATE_JOB = "JOBTMPL"
T0 = 1_443_657_600  # 2015-10-01, the Stampede-era epoch the corpus uses


def build_host_day_template(samples: int = SAMPLES) -> str:
    """One host-day of raw stats text with substitutable host/job tokens.

    Rendering a 50k-host fleet as 50k on-disk files would spend the
    benchmark's budget on I/O; instead every host is this template
    with its host and job ids substituted at parse time
    (:class:`~repro.shard.TemplateSource`), which keeps the measured
    loop exactly the part sharding parallelises: parse + route + store.
    """
    rng = np.random.default_rng(1984)
    w = RawFileWriter(TEMPLATE_HOST, "intel_hsw", _SCHEMAS,
                      mem_bytes=1 << 37)
    parts = [w.header()]
    cpu = rng.integers(0, 1 << 30, size=(4, 7)).astype(float)
    for i in range(samples):
        cpu += rng.integers(0, 1 << 20, size=(4, 7)).astype(float)
        data = {
            "cpu": {str(c): cpu[c] for c in range(4)},
            "mdc": {"t": rng.integers(0, 1 << 40, size=2).astype(float)},
            "lnet": {"0": rng.integers(0, 1 << 40, size=2).astype(float)},
            "mem": {"0": np.array([float(rng.integers(1 << 33, 1 << 36))])},
        }
        parts.append(w.record(Sample(
            host=TEMPLATE_HOST, timestamp=T0 + 600 * i,
            jobids=[TEMPLATE_JOB], data=data, procs=[],
        )))
    return "".join(parts)


def build_fleet_source(hosts: int = HOSTS) -> TemplateSource:
    template = build_host_day_template()
    subs = tuple(
        (f"c{h // 24:03d}-{h % 24:03d}", str(5_000_000 + h // 16))
        for h in range(hosts)
    )
    return TemplateSource(template, TEMPLATE_HOST, TEMPLATE_JOB, subs)


def _spot_hosts(source: TemplateSource) -> list:
    """A few hosts spread across the fleet for bit-equality checks."""
    hosts = source.hosts()
    return [hosts[0], hosts[len(hosts) // 2], hosts[-1]]


def test_shard_scaling_fleet_day():
    source = build_fleet_source()
    spot = _spot_hosts(source)
    cpu_count = os.cpu_count() or 1

    results = {}
    want_points = None
    want_spot = None
    for workers in WORKER_STEPS:
        with ShardedTSDB(shards=SHARDS, workers=workers) as db:
            rep = db.ingest(source, types=TYPES)
            results[workers] = {
                "workers": workers,
                "wall_s": round(rep.seconds, 2),
                "samples": rep.samples,
                "points": rep.points,
                "samples_per_s": round(rep.samples_per_sec),
                "points_per_s": round(rep.points_per_sec),
            }
            # every worker count loads the identical corpus ...
            if want_points is None:
                want_points = rep.points
            assert rep.points == want_points, workers
            assert rep.samples == HOSTS * SAMPLES
            # ... and answers host-windowed stats bit-identically
            got_spot = [
                [repr(s) for s in db.window_stats(
                    "stats", tags={"host": h}
                )]
                for h in spot
            ]
            assert all(got_spot), "spot hosts must hold series"
            if want_spot is None:
                want_spot = got_spot
            assert got_spot == want_spot, workers

    speedup_2v1 = results[1]["wall_s"] / results[2]["wall_s"]
    speedup_4v1 = results[1]["wall_s"] / results[4]["wall_s"]
    gated = cpu_count >= 4
    payload = {
        "hosts": HOSTS,
        "samples_per_host": SAMPLES,
        "total_samples": HOSTS * SAMPLES,
        "points": want_points,
        "shards": SHARDS,
        "types": TYPES,
        "configs": {f"workers={w}": r for w, r in results.items()},
        "speedup_2v1": round(speedup_2v1, 2),
        "speedup_4v1": round(speedup_4v1, 2),
        "gate": (
            f"enforced: >= {MIN_SPEEDUP_4V1}x for 1->4 workers"
            if gated else
            f"skipped: cpu_count={cpu_count} < 4 cannot scale"
        ),
    }
    record_bench(BENCH_JSON, "shard_scaling", payload)

    report(
        f"sharded ingest scaling ({HOSTS} hosts x {SAMPLES} samples, "
        f"{SHARDS} shards, cpu_count={cpu_count})",
        [(f"workers={w}", f"{r['wall_s']:.1f} s",
          f"{r['samples_per_s']:,}/s",
          f"{results[1]['wall_s'] / r['wall_s']:.2f}x")
         for w, r in results.items()],
        ["config", "wall", "samples", "speedup vs 1"],
    )

    if gated:
        assert speedup_4v1 >= MIN_SPEEDUP_4V1, (
            f"1->4 workers sped up only {speedup_4v1:.2f}x on a "
            f"{cpu_count}-CPU host (gate {MIN_SPEEDUP_4V1}x)"
        )
