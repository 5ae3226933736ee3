"""CI gate: the live path must keep up and must flag promptly.

Mirrors the obs-overhead gate's structure — one deterministic scenario,
a hard assertion, and the measured numbers recorded for the artifact
upload (``BENCH_stream.json``).  Three numbers matter:

* **throughput** — samples/second through the full live path (broker
  delivery → parse → TSDB write → streaming flag evaluation), reported
  for trend tracking;
* **sample→flag latency** — sim-seconds from the aligned sample that
  tripped a predicate to the alert firing.  This one is deterministic
  (it is simulated time, not wall time), so it gates hard: p99 must
  stay within two collection intervals;
* **store write calls per delivery** — a count, so it repeats exactly
  on any machine: a delivery is one row block through
  ``TimeSeriesDB.put_many`` plus at most one rollup row per tier that
  rolled over (~1.2 on this scenario).  It gates at 3; the per-series
  write path it replaced made ~340.
"""

import json
import os
import time
from pathlib import Path

from benchmarks._support import git_commit, report
from repro import monitoring_session, obs
from repro.cluster import JobSpec, make_app
from repro.stream import StreamPipeline
from repro.stream.pipeline import STREAM_QUEUE
from repro.tsdb import TimeSeriesDB

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_stream.json"

INTERVAL = 600
#: a streaming flag may lag its data by at most two collection cycles
LATENCY_BUDGET = 2 * INTERVAL

#: store write calls (``put`` + ``put_many``) one delivery may cost
MAX_WRITE_CALLS_PER_DELIVERY = 3

#: offender-heavy mix so several predicates actually fire
MIX = (
    ("mduser", "metadata_thrash", 2),
    ("idleuser", "idle_half", 2),
    ("ptruser", "hicpi", 2),
    ("ethuser", "gige_mpi", 2),
)


class CountingTSDB(TimeSeriesDB):
    """The live store, counting calls into its two write methods."""

    write_calls = 0

    def put(self, *args, **kw):
        self.write_calls += 1
        return super().put(*args, **kw)

    def put_many(self, *args, **kw):
        self.write_calls += 1
        return super().put_many(*args, **kw)


def record_bench(section: str, payload: dict) -> None:
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_stream_latency_and_throughput_gate():
    obs.reset()
    sess = monitoring_session(nodes=8, seed=404, interval=INTERVAL)
    obs.set_clock(sess.cluster.clock.now)
    tsdb = CountingTSDB()
    stream = StreamPipeline(sess.broker, tsdb=tsdb, jobs=sess.cluster.jobs)
    stream.start()
    for user, app, nodes in MIX:
        sess.cluster.submit(JobSpec(
            user=user,
            app=make_app(app, runtime_mean=4000.0, fail_prob=0.0),
            nodes=nodes,
        ))
    t0 = time.perf_counter()
    sess.cluster.run_for(12 * 3600)
    stream.finalize()
    wall = time.perf_counter() - t0
    deliveries = sess.broker.stats()["queues"][STREAM_QUEUE]["delivered"]
    obs.reset()

    assert stream.samples > 0 and stream.alerts.ledger
    samples_per_s = stream.samples / wall
    points_per_s = stream.points / wall
    latencies = sorted(a.latency for a in stream.alerts.ledger)
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    calls_per_delivery = tsdb.write_calls / deliveries

    report("stream gate (8 nodes, 12 h, offender mix)", [
        ("throughput", f"{samples_per_s:,.0f} samples/s",
         f"{points_per_s:,.0f} points/s"),
        ("flag latency", f"p50 {p50} sim-s",
         f"p99 {p99} sim-s (budget {LATENCY_BUDGET})"),
        ("alerts", str(len(stream.alerts.ledger)),
         f"suppressed {stream.alerts.suppressed}"),
        ("store write calls", f"{calls_per_delivery:.2f} / delivery",
         f"{tsdb.write_calls} calls, {deliveries} deliveries "
         f"(gate {MAX_WRITE_CALLS_PER_DELIVERY})"),
    ], ["measure", "value", "detail"])
    record_bench("live_path_8x12h", {
        "scenario": "8 nodes, 12 h sim, 600 s cadence, offender mix",
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "samples": stream.samples,
        "deliveries": deliveries,
        "store_write_calls": tsdb.write_calls,
        "store_write_calls_per_delivery": round(calls_per_delivery, 3),
        "points_per_store_write_call": round(
            tsdb.n_points() / tsdb.write_calls, 1),
        "tsdb_points": stream.points,
        "wall_s": round(wall, 3),
        "samples_per_s": round(samples_per_s, 1),
        "points_per_s": round(points_per_s, 1),
        "alerts": len(stream.alerts.ledger),
        "flag_latency_sim_s_p50": p50,
        "flag_latency_sim_s_p99": p99,
        "flag_latency_budget_sim_s": LATENCY_BUDGET,
    })
    assert calls_per_delivery <= MAX_WRITE_CALLS_PER_DELIVERY, (
        f"{calls_per_delivery:.1f} store write calls per delivery "
        f"(gate {MAX_WRITE_CALLS_PER_DELIVERY}): the live path is "
        f"writing per series again"
    )
    assert p99 <= LATENCY_BUDGET, (
        f"p99 sample→flag latency {p99} sim-s exceeds "
        f"{LATENCY_BUDGET} sim-s ({LATENCY_BUDGET // INTERVAL} "
        f"collection intervals)"
    )
