"""``batch_fleet_day`` — the nightly cron path, one rack-day per op.

Op = one rack-day made queryable: the ETL pass over the rack's raw files
into the job database, the sharded TSDB load of the same files, a
read-your-writes query through the coordinator, and the seal that puts
the day at rest.  The only workload where ``core.rawfile``, ``pipeline``,
``metrics``, ``db`` writes, ``shard`` and ``tsdb`` bulk write + seal do
the work; ``broker``, ``stream`` and ``portal`` are idle.
"""

from __future__ import annotations

import itertools
import time
import zlib
from pathlib import Path
from typing import Dict, Iterator, List

from repro.core import CentralStore
from repro.db import Database
from repro.pipeline.parallel import parallel_ingest_jobs
from repro.pipeline.records import JobRecord
from repro.shard import ShardedTSDB, StoreSource

import corpus
from harness import Op, Workload, quiet_down

HOSTS_PER_RACK = 8
HOSTS_PER_JOB = 4
SAMPLES = 144          # one day at the paper's 600 s cadence
INTERVAL = 600
SHARDS = 4
WARMUP_RACKS = 8
POINTS_PER_RACK = HOSTS_PER_RACK * SAMPLES * corpus.SERIES_PER_HOST

_now = time.perf_counter


class BatchFleetDay(Workload):
    name = "batch_fleet_day"
    op_unit = "rack-days"
    tail_pct = 90
    spawns_worker = True
    snapshot_op = 60

    def __init__(self, seed: int, scale: float, tmp: Path,
                 in_process: bool = False) -> None:
        self.seed = seed
        self.tmp = tmp
        #: ``workers=1`` on purpose: the RPC path (spawned worker, RSF1
        #: frames, arena) is exercised; wall-clock scaling cannot be
        #: measured on two shared cores and stays with BENCH_shards.
        #: The traced run uses the same ring in-process, where the
        #: wrappers can reach (pinned bit-identical by tests/test_shard).
        self.workers = 0 if in_process else 1
        self.done = 0
        self.raw_bytes = 0
        self.step_s: Dict[str, float] = {
            "etl": 0.0, "ingest": 0.0, "query": 0.0, "seal": 0.0,
        }

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> None:
        self.template = corpus.host_day_template(self.seed, SAMPLES, INTERVAL)
        self.template_crc = zlib.crc32(self.template.encode())
        self.rack_bytes: Dict[int, int] = {}
        self.db = Database()
        self.sdb = ShardedTSDB(shards=SHARDS, workers=self.workers)
        for r in range(WARMUP_RACKS):
            self._render(r)
            if not self._rack_day(r):
                raise RuntimeError(f"warm-up rack {r} failed its checks")
        self.step_s = dict.fromkeys(self.step_s, 0.0)
        self.raw_bytes = 0
        quiet_down()

    def _dir(self, rack: int) -> Path:
        return self.tmp / "racks" / f"r{rack:03d}"

    def _render(self, rack: int) -> None:
        """Write the rack's raw files.  Just before its op and untimed,
        not in set-up: writing a whole run's files at once takes
        0.3 ... 1.7 s depending on what the file system did before, which
        ``setup_s`` would carry."""
        self.rack_bytes[rack] = corpus.render_rack(
            self._dir(rack), self.template, rack, HOSTS_PER_RACK,
            HOSTS_PER_JOB)

    # -- the op ---------------------------------------------------------------
    def schedule(self) -> Iterator[Op]:
        for r in itertools.count(WARMUP_RACKS):
            yield Op("rack_day", f"r{r:03d}:{self.template_crc:08x}",
                     lambda r=r: self._rack_day(r),
                     lambda r=r: self._render(r))

    def _rack_day(self, rack: int) -> bool:
        root = str(self._dir(rack))
        host = corpus.rack_hosts(rack, HOSTS_PER_RACK)[rack % HOSTS_PER_RACK]
        t0 = _now()
        etl = parallel_ingest_jobs(CentralStore(root), None, self.db)
        t1 = _now()
        report = self.sdb.ingest(StoreSource(root))
        t2 = _now()
        stats = self.sdb.window_stats("stats", tags={"host": host})
        rates = self.sdb.query(
            "stats", tags={"host": host, "type": "cpu"},
            group_by=("event",), rate=True,
        )
        t3 = _now()
        self.sdb.seal_heads()
        t4 = _now()
        for step, dt in zip(self.step_s, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            self.step_s[step] += dt
        self.done += 1
        self.raw_bytes += self.rack_bytes[rack]
        return (
            etl.ingested == HOSTS_PER_RACK // HOSTS_PER_JOB
            and not etl.errors
            and report.samples == HOSTS_PER_RACK * SAMPLES
            and report.points == POINTS_PER_RACK
            and len(stats) == corpus.SERIES_PER_HOST
            and all(s.count == SAMPLES for s in stats)
            and len(rates) == len(corpus.CPU_EVENTS)
        )

    # -- checks and accounting --------------------------------------------------
    def check(self) -> List[str]:
        problems = []
        JobRecord.bind(self.db)
        jobs = JobRecord.objects.count()
        want_jobs = self.done * HOSTS_PER_RACK // HOSTS_PER_JOB
        if jobs != want_jobs:
            problems.append(f"job rows {jobs} != {want_jobs}")
        points = self.sdb.n_points()
        if points != self.done * POINTS_PER_RACK:
            problems.append(
                f"tsdb points {points} != racks x hosts x samples x events "
                f"= {self.done * POINTS_PER_RACK}"
            )
        chunks = self.sdb.n_chunks()
        want_chunks = self.done * HOSTS_PER_RACK * corpus.SERIES_PER_HOST
        if chunks != want_chunks:
            problems.append(f"sealed chunks {chunks} != {want_chunks}")
        return problems

    def tsdb_size(self) -> tuple:
        return self.sdb.storage_bytes(), self.sdb.n_points()

    def counts(self) -> Dict[str, float]:
        from repro import obs

        per_shard = [s["points"] for s in self.sdb.shard_stats().values()]
        mean = sum(per_shard) / len(per_shard)
        self.sdb.harvest_obs()  # worker-side counters (arena spills)
        return {
            "core.rawfile.bytes": float(self.raw_bytes),
            "pipeline.jobs_ingested": float(JobRecord.objects.count()),
            "shard.ingest_call_s": self.step_s["ingest"],
            "shard.query_call_s": self.step_s["query"],
            "shard.rpc_frames": obs.counter(
                "repro_shard_rpc_frames_total").total(),
            "shard.rpc_oob_bytes": obs.counter(
                "repro_shard_rpc_oob_bytes_total").total(),
            "shard.arena_hits": obs.counter(
                "repro_shard_arena_hits_total").total(),
            "shard.arena_spills": obs.counter(
                "repro_shard_arena_spills_total").total(),
            "shard.points_skew": max(per_shard) / mean if mean else 0.0,
            "tsdb.points_written": float(self.sdb.n_points()),
            "tsdb.chunks_sealed": float(self.sdb.n_chunks()),
            "tsdb.storage_bytes": float(self.sdb.storage_bytes()),
        }

    def teardown(self) -> None:
        self.sdb.close()
        self.db.close()
