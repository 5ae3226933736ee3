"""Throughput of the pipeline's hot paths.

Not a paper table — an engineering benchmark guarding the costs that
determine whether the backend keeps up with a real system's data rate
(the paper's deployments: 132–1984 nodes at 10-minute cadence):

* raw stats text parse rate (the ingest consumer's hot loop),
* per-job metric computation,
* ORM bulk-insert rate,
* TSDB point insert + query rate.

pytest-benchmark runs these multiple rounds, so regressions show as
statistically solid slowdowns.
"""

import cProfile
import pstats
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks._support import once, record_bench, report
from repro import cron_session, monitoring_session, obs
from repro.cluster import JobSpec, make_app
from repro.core import CentralStore
from repro.core.collector import Sample
from repro.core.rawfile import BlockParser, RawFileParser, RawFileWriter
from repro.db import Database
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.metrics import compute_metrics
from repro.pipeline import ingest_jobs
from repro.pipeline.records import JobRecord
from repro.shard import ShardedTSDB, StoreSource
from repro.tsdb import TimeSeriesDB
from repro.tsdb.query import query
from repro.tsdb.store import ingest_file
from tests.test_core.test_rawfile import fleet_host_day
from tests.test_metrics.test_table1 import make_accum
from tests.test_pipeline.reference import reference_ingest
from tests.test_pipeline.test_parallel import build_store

#: oracle-vs-ETL and fleet-day numbers land here
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"

#: the job mix ``bench/corpus.py::record_session`` runs
OFFENDER_MIX = (
    ("mduser", "metadata_thrash", 2), ("idleuser", "idle_half", 2),
    ("ptruser", "hicpi", 2), ("ethuser", "gige_mpi", 2),
)

SCHEMAS = {
    "cpu": Schema([SchemaEntry(n, unit="cs") for n in
                   ("user", "nice", "system", "idle", "iowait",
                    "irq", "softirq")]),
    "mdc": Schema([SchemaEntry("reqs", width=64),
                   SchemaEntry("wait_us", width=64)]),
}


def _raw_text(n_samples: int = 200, cpus: int = 16) -> str:
    w = RawFileWriter("c401-101", "intel_snb", SCHEMAS)
    rng = np.random.default_rng(0)
    parts = [w.header()]
    for i in range(n_samples):
        data = {
            "cpu": {
                str(c): rng.integers(0, 1 << 30, size=7).astype(float)
                for c in range(cpus)
            },
            "mdc": {"t": rng.integers(0, 1 << 40, size=2).astype(float)},
        }
        parts.append(w.record(Sample(
            host="c401-101", timestamp=1_443_657_600 + 600 * i,
            jobids=["1"], data=data, procs=[],
        )))
    return "".join(parts)


def test_rawfile_parse_rate(benchmark):
    text = _raw_text(200)

    def parse():
        return sum(1 for _ in RawFileParser().parse(text))

    n = benchmark(parse)
    assert n == 200


def test_metric_computation_rate(benchmark):
    rng = np.random.default_rng(1)
    accums = [
        make_accum(
            n_hosts=8, T=24,
            mdc_reqs=rng.gamma(2, 300, (8, 23)),
            cpu_user=rng.gamma(2, 30_000, (8, 23)),
            cpu_total=np.full((8, 23), 96_000.0) * 8,
        )
        for _ in range(20)
    ]

    def compute_all():
        return [compute_metrics(a) for a in accums]

    out = benchmark(compute_all)
    assert len(out) == 20


def test_orm_bulk_insert_rate(benchmark):
    def insert_block():
        db = Database()
        JobRecord.bind(db)
        JobRecord.create_table()
        rows = [
            JobRecord(jobid=str(i), user=f"u{i % 40}", flags=[],
                      CPU_Usage=0.5, MetaDataRate=float(i))
            for i in range(2000)
        ]
        JobRecord.objects.bulk_create(rows)
        return JobRecord.objects.count()

    assert benchmark(insert_block) == 2000


def test_block_parse_rate(benchmark):
    """Columnar block parse of the same file the per-sample parser eats."""
    text = _raw_text(200)

    def parse():
        return BlockParser().parse_text(text).n_records

    n = benchmark(parse)
    assert n == 200


def test_block_parse_session_host_day(benchmark, tmp_path):
    """The record path: a host-day as a monitoring session writes it.

    ``test_block_parse_rate`` times strided text.  A session's file has
    ``ps`` lines, so ``BlockParser`` stacks the record decoder's rows;
    what that costs is how many records the decoder takes by template
    — a count, so it travels between machines.  Gate: ≥ 0.95 of the
    records read, and the host-day is one run under one layout, as a
    strided file is.  Wall time is reported, not gated.
    """
    sess = monitoring_session(
        nodes=8, seed=5, interval=600, store_dir=str(tmp_path / "store"))
    for user, app, nodes in OFFENDER_MIX:
        sess.cluster.submit(JobSpec(
            user=user, app=make_app(app, runtime_mean=6000.0, fail_prob=0.0),
            nodes=nodes))
    sess.cluster.run_for(86_400 + 10)
    sess.store.flush()
    host = sess.store.hosts()[0]
    text = sess.store.path_for(host).read_text()

    block = benchmark(lambda: BlockParser().parse_text(text))
    decoder = RawFileParser(on_error="quarantine")
    samples = list(decoder.parse(text))
    records = len(samples)
    assert block.n_records == records and block.procs and not block.errors
    assert len(block.runs) == 1 and block.layout is not None
    share = decoder.template_records / records
    device_lines = sum(len(s.columns) for s in samples) / records
    record_bench(BENCH_JSON, "block_parse_session_host_day", {
        "corpus": "one host-day of an 8-node monitoring_session, "
                  "offender mix, 600 s cadence, ps lines",
        "records": records,
        "device_lines_per_record": round(device_lines, 1),
        "template_records": decoder.template_records,
        "template_share": round(share, 4),
        "block_parse_wall_ms": round(benchmark.stats.stats.median * 1e3, 2),
    })
    assert share >= 0.95, f"only {share:.2%} of records decoded by template"


#: Python + builtin calls one strided host-day parse cost at 1d35e8f,
#: when each counter was one ``float()`` (cProfile inside
#: ``BlockParser.parse_text`` on ``fleet_host_day()``)
STRIDED_CALLS_PER_HOST_DAY_AT_1D35E8F = 4185
#: the byte kernel's gate against that count
MAX_STRIDED_CALLS_RATIO = 0.25


def test_block_parse_strided_host_day(benchmark):
    """The strided path: a host-day of ``batch_fleet_day``'s shape (144
    records; cpu ×4, lnet, mdc, mem; 33 counters) as ``RawFileWriter``
    writes it.  Count, do not time: the profiler runs only inside one
    ``parse_text``, so ``total_calls`` is every Python and builtin call
    a host-day costs — a count, so it travels between machines.  Gate:
    ≤ 0.25× the per-token parser's.  Wall time is reported, not gated.
    """
    text = fleet_host_day()
    parser = BlockParser()
    assert parser._try_strided(text) is not None
    block = parser.parse_text(text)  # the path counter exists from here
    profile = cProfile.Profile()
    profile.enable()
    try:
        parser.parse_text(text)
    finally:
        profile.disable()
    calls = pstats.Stats(profile).total_calls
    benchmark(lambda: parser.parse_text(text))
    ratio = calls / STRIDED_CALLS_PER_HOST_DAY_AT_1D35E8F
    record_bench(BENCH_JSON, "block_parse_strided_host_day", {
        "corpus": "one host-day of batch_fleet_day's shape, written by "
                  "RawFileWriter: 144 records, cpu x4 + lnet + mdc + mem, "
                  "33 counters a record",
        "records": block.n_records,
        "calls": calls,
        "calls_at_1d35e8f": STRIDED_CALLS_PER_HOST_DAY_AT_1D35E8F,
        "ratio": round(ratio, 4),
        "block_parse_wall_us": round(benchmark.stats.stats.median * 1e6),
    })
    assert block.n_records == 144
    assert ratio <= MAX_STRIDED_CALLS_RATIO, (
        f"{calls} calls inside BlockParser.parse_text is {ratio:.2f}x the "
        f"per-token parser's {STRIDED_CALLS_PER_HOST_DAY_AT_1D35E8F} "
        f"(gate {MAX_STRIDED_CALLS_RATIO}x)"
    )


#: Python + builtin calls of one ``batch_fleet_day``-shaped rack-day at
#: ee7a6e4, per stage, on one warm store (``test_rack_day_calls``)
RACK_DAY_CALLS_AT_EE7A6E4 = {
    "etl": 9796, "ingest_file x8": 9811, "seal_heads": 6260,
}
#: the rack-day's gate against their sum
MAX_RACK_DAY_CALLS_RATIO = 0.7


def _rack(root, rack, text, hosts=8, hosts_per_job=4):
    """``batch_fleet_day``'s rack-day: ``hosts`` copies of ``text``
    under their own host names, ``hosts_per_job`` hosts a job."""
    root.mkdir(parents=True)
    out = []
    for h in range(hosts):
        host = f"c{rack:03d}-{h:03d}"
        job = str(5_000_000 + rack * hosts + h // hosts_per_job)
        host_text = text.replace("c001-001", host).replace("5000001", job)
        (root / f"{host}.raw").write_text(host_text)
        out.append((host, host_text))
    return out


def test_rack_day_calls(benchmark, tmp_path):
    """A rack-day pays once per host layout: count, do not time.

    One ``batch_fleet_day``-shaped rack-day (8 host-days of
    ``fleet_host_day()``, two 4-host jobs) after one warm-up rack on the
    same job database and store: the ETL pass, the 8 ``ingest_file``
    calls and ``seal_heads``, each under cProfile.  ``total_calls`` is
    every Python and builtin call the stage cost — a count, so it
    travels between machines.  Gate: ≤ 0.7× ee7a6e4's sum.  Wall time
    of a whole rack-day is reported, not gated.
    """
    text = fleet_host_day()
    db, tsdb = Database(), TimeSeriesDB()

    def rack_day(rack, profiles=None):
        root = tmp_path / f"r{rack:03d}"
        hosts = _rack(root, rack, text)
        stages = (
            ("etl", lambda: ingest_jobs(CentralStore(str(root)), None, db)),
            ("ingest_file x8",
             lambda: [ingest_file(tsdb, h, t) for h, t in hosts]),
            ("seal_heads", tsdb.seal_heads),
        )
        out = {}
        for stage, run in stages:
            profile = cProfile.Profile() if profiles is not None else None
            if profile is not None:
                profile.enable()
            try:
                out[stage] = run()
            finally:
                if profile is not None:
                    profile.disable()
                    profiles[stage] = pstats.Stats(profile).total_calls
        return out

    rack_day(0)  # the layout, the job table and the store exist from here
    calls = {}
    out = rack_day(1, calls)
    assert out["etl"].ingested == 2 and not out["etl"].errors
    assert [n for n, _ in out["ingest_file x8"]] == [144 * 33] * 8
    assert tsdb.n_chunks() == 2 * 8 * 33
    racks = iter(range(2, 10**6))
    benchmark(lambda: rack_day(next(racks)))
    total = sum(calls.values())
    parent = sum(RACK_DAY_CALLS_AT_EE7A6E4.values())
    ratio = total / parent
    record_bench(BENCH_JSON, "rack_day_calls", {
        "corpus": "one batch_fleet_day-shaped rack-day: 8 host-days of "
                  "fleet_host_day(), two 4-host jobs, after one warm-up "
                  "rack on the same job database and TimeSeriesDB",
        "calls": calls,
        "calls_total": total,
        "calls_at_ee7a6e4": RACK_DAY_CALLS_AT_EE7A6E4,
        "calls_total_at_ee7a6e4": parent,
        "ratio": round(ratio, 4),
        "rack_day_wall_ms": round(benchmark.stats.stats.median * 1e3, 2),
    })
    assert ratio <= MAX_RACK_DAY_CALLS_RATIO, (
        f"{total} calls a rack-day ({calls}) is {ratio:.2f}x ee7a6e4's "
        f"{parent} (gate {MAX_RACK_DAY_CALLS_RATIO}x)"
    )


#: the cron session behind ``test_session_rack_day``: OFFENDER_MIX and
#: two more 2-node jobs, run past one midnight
SESSION_MIX = OFFENDER_MIX + (("alice", "wrf", 2), ("bob", "namd", 2))
SESSION_SECONDS = 25 * 3600
#: the ETL's stages (``repro_ingest_stage_seconds{stage}``) that make up
#: each part of its wall
ETL_PARTS = {
    "parse": ("parse",),
    "assemble_accumulate": ("assemble", "accumulate"),
    "metrics": ("metrics",),
}
#: Python + builtin calls of one rack-day's ETL, load and seal under
#: cProfile, as recorded by ``test_session_rack_day``; gated + 15 %
SESSION_RACK_DAY_CALLS = 116397
SESSION_RACK_DAY_CALLS_MARGIN = 1.15


def test_session_rack_day(benchmark, tmp_path):
    """A rack-day the simulator writes, through the nightly path.

    8 host files of a seeded 8-node ``cron_session``: ``ps`` lines while
    jobs run, and a second header where the log rotated at midnight —
    what the strided kernel refuses, so every file takes the record
    decoder.  Each round: the ETL into a fresh job database, an
    in-process ``ShardedTSDB`` load from ``StoreSource`` and the seal.
    Gates: one block parse per host file a round — the load takes the
    ETL's blocks (``repro.core.rawfile.take_parsed``) — a store
    identical to one loaded without the ETL pass, and the Python calls
    of one more round under cProfile ≤ the recorded count + 15 %.
    Stage walls, the ETL's split into parse, assemble + accumulate and
    metrics among them, are reported, not gated.
    """
    # the files' 4.5 M characters fit the parse table's 8 Mi, whatever
    # the benchmarks before this one left in it
    sess = cron_session(nodes=8, seed=11, store_dir=str(tmp_path / "store"))
    for user, app, nodes in SESSION_MIX:
        sess.cluster.submit(JobSpec(
            user=user, app=make_app(app, runtime_mean=6000.0, fail_prob=0.0),
            nodes=nodes))
    sess.cluster.run_for(SESSION_SECONDS)
    sess.cron.final_sync()
    sess.store.close()
    root = str(sess.store.root)
    texts = [sess.store.path_for(h).read_text() for h in sess.store.hosts()]
    assert len(texts) == 8
    assert all(t.count("$tacc_stats") == 2 for t in texts)
    assert sum(t.count("\nps ") for t in texts) > 0

    def contents(sdb):
        return ([repr(s) for s in sdb.window_stats("stats")],
                sdb.storage_bytes(), sdb.n_points())

    unshared = ShardedTSDB(shards=4)
    unshared.ingest(StoreSource(root))
    unshared.seal_heads()
    want = contents(unshared)

    parses = obs.counter("repro_rawfile_block_parses_total")
    etl_stages = obs.histogram("repro_ingest_stage_seconds")
    walls = {"etl": [], "tsdb_ingest": [], "seal": []}
    walls.update({f"etl_{part}": [] for part in ETL_PARTS})
    rounds = []

    def etl_parts():
        return [sum(etl_stages.sum(stage=s) for s in stages)
                for stages in ETL_PARTS.values()]

    def load(sdb):
        """The nightly path: ETL, sharded load, seal; its stage walls."""
        t0 = time.perf_counter()
        etl = ingest_jobs(CentralStore(root), None, Database())
        t1 = time.perf_counter()
        loaded = sdb.ingest(StoreSource(root))
        t2 = time.perf_counter()
        sdb.seal_heads()
        t3 = time.perf_counter()
        return etl, loaded, (t1 - t0, t2 - t1, t3 - t2)

    def rack_day():
        before = {p: parses.value(path=p) for p in ("strided", "records")}
        split = etl_parts()
        sdb = ShardedTSDB(shards=4)
        etl, loaded, dts = load(sdb)
        dts += tuple(b - a for a, b in zip(split, etl_parts()))
        for stage, dt in zip(walls, dts):
            walls[stage].append(dt)
        rounds.append((etl, loaded, contents(sdb), {
            p: int(parses.value(path=p) - n) for p, n in before.items()}))

    benchmark.pedantic(rack_day, rounds=5, iterations=1)
    for etl, _, got, parsed in rounds:
        assert etl.ingested == len(SESSION_MIX) and not etl.errors
        assert got == want
        assert parsed == {"strided": 0, "records": 8}, (
            f"{parsed} block parses a rack-day; one per host file is 8")
    profile = cProfile.Profile()
    sdb = ShardedTSDB(shards=4)
    profile.enable()
    try:
        load(sdb)
    finally:
        profile.disable()
    calls = pstats.Stats(profile).total_calls
    assert contents(sdb) == want
    median_ms = {
        stage: round(statistics.median(dts) * 1e3, 2)
        for stage, dts in walls.items()}
    record_bench(BENCH_JSON, "session_rack_day", {
        "corpus": "8 host files of an 8-node cron_session (seed 11, 25 sim-"
                  "hours, six 2-node jobs, 600 s cadence): ps lines, a "
                  "second header where the log rotated; ETL, in-process "
                  "ShardedTSDB(shards=4) load from StoreSource, seal",
        "raw_bytes": sum(len(t) for t in texts),
        "points_loaded": rounds[0][1].points,
        "samples": rounds[0][1].samples,
        "ps_lines": sum(t.count("\nps ") for t in texts),
        "block_parses_per_rack_day": rounds[0][3],
        "block_parses_per_rack_day_at_16a7e60": {"records": 16, "strided": 0},
        "stage_wall_ms_median_of_5": median_ms,
        "rack_day_wall_ms": round(
            median_ms["etl"] + median_ms["tsdb_ingest"] + median_ms["seal"],
            2),
        "calls_per_rack_day": calls,
        "calls_recorded": SESSION_RACK_DAY_CALLS,
        "calls_margin": SESSION_RACK_DAY_CALLS_MARGIN,
    })
    report("A simulator-written rack-day (median of 5)",
           [(stage, f"{ms:.1f} ms") for stage, ms in median_ms.items()]
           + [("calls under cProfile", f"{calls}")],
           ["stage", "wall"])
    assert calls <= SESSION_RACK_DAY_CALLS_MARGIN * SESSION_RACK_DAY_CALLS, (
        f"{calls} calls a rack-day, recorded {SESSION_RACK_DAY_CALLS} "
        f"(gate +{SESSION_RACK_DAY_CALLS_MARGIN - 1:.0%})")


def test_parallel_ingest_speedup(benchmark, tmp_path):
    """The ETL's hot path against its own oracle: ≥5× on parse+metrics.

    One corpus (32 hosts × 100 samples, 8 four-node jobs), two full
    store→database passes: the frozen per-sample driver
    (``tests/test_pipeline/reference.py``) vs ``ingest_jobs`` at its
    defaults (in-process).  Asserts the speedup and byte-identical
    output, and records both sides in BENCH_ingest.json.
    """
    store = build_store(tmp_path / "store", hosts=32, samples=100,
                        cpus=16, hosts_per_job=4)

    t0 = time.perf_counter()
    db_old = Database()
    before = reference_ingest(store, None, db_old)
    oracle_s = time.perf_counter() - t0
    assert before.ingested == 8

    def etl_pass():
        db = Database()
        return db, ingest_jobs(store, None, db)

    t0 = time.perf_counter()
    db_new, after = once(benchmark, etl_pass)
    etl_s = time.perf_counter() - t0
    assert after.ingested == before.ingested
    assert list(db_new.conn.iterdump()) == list(db_old.conn.iterdump())

    speedup = oracle_s / etl_s
    report("Oracle vs ETL (32 hosts × 100 samples, 8 jobs)", [
        ("frozen per-sample oracle", f"{oracle_s:.2f}s", "1.0x"),
        ("ingest_jobs", f"{etl_s:.2f}s", f"{speedup:.1f}x"),
    ], ["pipeline", "wall", "speedup"])
    record_bench(BENCH_JSON, "hot_path_32x100", {
        "corpus": "32 hosts x 100 samples, 8 four-node jobs",
        "oracle_per_sample_s": round(oracle_s, 3),
        "etl_workers1_s": round(etl_s, 3),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 5.0, f"hot path only {speedup:.1f}x faster"


def test_tsdb_insert_and_query_rate(benchmark):
    def run():
        db = TimeSeriesDB()
        for host in range(20):
            for i in range(100):
                db.put("stats",
                       {"host": f"n{host}", "type": "mdc", "event": "reqs"},
                       600 * i, float(i * host))
        res = query(db, "stats", tags={"type": "mdc"},
                    group_by=("host",), rate=True)
        return db.n_points(), len(res)

    points, groups = benchmark(run)
    assert points == 2000 and groups == 20
