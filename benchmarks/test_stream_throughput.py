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

Seven more gates hold the two ends of that write — the decode of the
message text into the row, and the store's side (row-block heads and
the prune low-water mark) — the flag analyzer, and the monitor's own
bookkeeping, all machine-independent:

* **Python calls per delivery** inside ``RetainingWriter.put_many``
  (store write + retention fold + prune check), counted by ``cProfile``
  on the same fixture — the count repeats exactly, and must stay at or
  below a quarter of what the per-series heads cost;
* **Python calls per delivery** inside ``RawFileParser.parse`` (the
  time its generator spends in ``next()``) plus ``StreamPipeline._row``
  — turning one message into one float64 row — counted the same way,
  at or below 0.24x of the line-at-a-time parser and the per-device
  gather it replaced (0.200x recorded, plus 15 %);
* **Python calls per delivery** inside
  ``StreamingFlagAnalyzer.observe`` — one gather per sample under the
  batch accumulator's plan, then each job's alignment and evaluation —
  counted the same way, at or below 39 (33.82 recorded, plus 15 %;
  76.6 when each job of a sample gathered it again);
* **calls into ``repro/obs`` per delivery** — the metric and span
  bookkeeping of one delivery — at or below half of what per-call
  lookups by name cost (pre-bound handles and class-based spans);
* **Python calls in a host's first rollup flush** — the registration
  of the host's layout under the rollup metric — at or below a third
  of what a per-series registration cost;
* **a prune pass that cannot drop** visits no series and no block;
* **a prune pass that does drop**, on a 48-host x 339-series fleet two
  days deep, is at least 8x faster than the list engine doing the same
  pass in the same process, and leaves the same store.
"""

import cProfile
import functools
import os
import pstats
import re
import time
from pathlib import Path

import numpy as np

from benchmarks._support import record_bench, report
from repro import monitoring_session, obs
from repro.broker import Broker
from repro.cluster import JobSpec, make_app
from repro.core.rawfile import Layout, RawFileParser
from repro.stream import RetainingWriter, StreamingFlagAnalyzer, StreamPipeline
from repro.stream.pipeline import STREAM_QUEUE
from repro.tsdb import TimeSeriesDB
from tests.test_tsdb.reference import ListBackedTSDB

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_stream.json"

INTERVAL = 600
#: a streaming flag may lag its data by at most two collection cycles
LATENCY_BUDGET = 2 * INTERVAL

#: store write calls (``put`` + ``put_many``) one delivery may cost
MAX_WRITE_CALLS_PER_DELIVERY = 3

#: Python + builtin calls inside ``RetainingWriter.put_many`` per
#: delivery on this fixture at 9d51588 (per-series list heads, a prune
#: walk over every series), counted the way the gate below counts
CALLS_PER_DELIVERY_AT_9D51588 = 1_657_541 / 584  # 2838.3
MAX_CALLS_RATIO = 0.25

#: Python + builtin calls inside ``RawFileParser.parse`` +
#: ``StreamPipeline._row`` per delivery on this fixture at 85305f7 (one
#: small array per data line, then a dict walk and a concatenate),
#: counted the way the gate below counts
DECODE_CALLS_PER_DELIVERY_AT_85305F7 = 489_078 / 584  # 837.5
MAX_DECODE_CALLS_RATIO = 0.24

#: Python + builtin calls inside ``StreamingFlagAnalyzer.observe`` over
#: this fixture's 584 deliveries at bda2a2d (each job of a sample resolved
#: its device types and summed ``data`` views instance by instance),
#: counted the way the gate below counts
ANALYZE_CALLS_AT_BDA2A2D = 44_749
ANALYZE_CALLS_PER_DELIVERY_AT_BDA2A2D = ANALYZE_CALLS_AT_BDA2A2D / 584
#: the count recorded with one gather per sample under the batch
#: accumulator's plan (33.82), plus 15 %, rounded up
MAX_ANALYZE_CALLS_PER_DELIVERY = 39

#: calls into functions under ``repro/obs`` per delivery inside
#: ``Broker.publish`` + the stream queue's drain on this fixture at
#: eade75c (a registry lookup, a sorted label key and a stamp per
#: counter bump, a generator context manager per span), counted the way
#: the gate below counts
OBS_CALLS_PER_DELIVERY_AT_EADE75C = 60_237 / 584  # 103.1
MAX_OBS_CALLS_RATIO = 0.5

#: Python + builtin calls in one host's first rollup flush on this
#: fixture at eade75c (a tag-key sort and a ``_get_series`` call per
#: series), counted the way the gate below counts
FIRST_FLUSH_CALLS_AT_EADE75C = 7_898
MAX_FIRST_FLUSH_RATIO = 0.33

#: the dropping pass against the list engine's
MIN_PRUNE_SPEEDUP = 8.0

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


def profiled(profile, fn):
    """``fn`` with ``profile`` running only while it does."""
    def wrapper(*args, **kw):
        profile.enable()
        try:
            return fn(*args, **kw)
        finally:
            profile.disable()
    return wrapper


def run_fixture(tsdb):
    """The 8-node, 12-hour offender session streamed into ``tsdb``:
    ``(stream, deliveries, wall seconds)``."""
    obs.reset()
    sess = monitoring_session(nodes=8, seed=404, interval=INTERVAL)
    obs.set_clock(sess.cluster.clock.now)
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
    return stream, deliveries, wall


def test_stream_latency_and_throughput_gate():
    tsdb = CountingTSDB()
    stream, deliveries, wall = run_fixture(tsdb)
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
    record_bench(BENCH_JSON, "live_path_8x12h", {
        "scenario": "8 nodes, 12 h sim, 600 s cadence, offender mix",
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


def test_store_calls_per_delivery_and_noop_prune_gate(monkeypatch):
    """Count, do not time: the profiler runs only inside
    ``RetainingWriter.put_many``, so ``total_calls`` is every Python and
    builtin call one delivery's write costs — the store append, the
    retention fold, and the hourly prune check (12 passes here, none of
    which can drop: the session is shorter than every horizon)."""
    profile = cProfile.Profile()
    monkeypatch.setattr(
        RetainingWriter, "put_many",
        profiled(profile, RetainingWriter.put_many))
    stream, deliveries, _ = run_fixture(TimeSeriesDB())
    passes = obs.counter("repro_tsdb_prune_passes_total")
    skipped, walked = (
        passes.value(outcome="skipped"), passes.value(outcome="walked"))
    obs.reset()

    stats = pstats.Stats(profile)
    calls = stats.total_calls / deliveries
    ratio = calls / CALLS_PER_DELIVERY_AT_9D51588
    #: calls into the two places a prune pass touches stored points
    visits = sum(
        ncalls for (_, _, name), (_, ncalls, *_) in stats.stats.items()
        if name in ("prune_chunks", "cut")
    )
    report("store calls per delivery (cProfile, 8 nodes, 12 h)", [
        ("calls / delivery", f"{calls:.1f}",
         f"{CALLS_PER_DELIVERY_AT_9D51588:.1f} at 9d51588 -> "
         f"{ratio:.3f}x (gate {MAX_CALLS_RATIO}x)"),
        ("prune passes", f"{skipped:.0f} skipped, {walked:.0f} walked",
         f"{visits} series/block visits, "
         f"{stream.writer.pruned} points dropped"),
    ], ["measure", "value", "detail"])
    record_bench(BENCH_JSON, "store_calls_8x12h", {
        "scenario": "8 nodes, 12 h sim, cProfile inside "
                    "RetainingWriter.put_many only",
        "deliveries": deliveries,
        "calls": stats.total_calls,
        "calls_per_delivery": round(calls, 2),
        "calls_per_delivery_at_9d51588": CALLS_PER_DELIVERY_AT_9D51588,
        "ratio": round(ratio, 4),
        "prune_passes_skipped": skipped,
        "prune_passes_walked": walked,
        "prune_series_visits": visits,
        "points_pruned": stream.writer.pruned,
    })
    assert ratio <= MAX_CALLS_RATIO, (
        f"{calls:.0f} calls per delivery inside RetainingWriter.put_many "
        f"is {ratio:.2f}x the per-series heads' "
        f"{CALLS_PER_DELIVERY_AT_9D51588:.0f} (gate {MAX_CALLS_RATIO}x)"
    )
    assert stream.writer.pruned == 0 and skipped > 0
    assert walked == 0 and visits == 0, (
        f"{walked:.0f} prune passes walked and visited {visits} "
        f"series/blocks to drop nothing"
    )


def test_decode_calls_per_delivery_gate(monkeypatch):
    """Count, do not time: the profiler runs only while the parser's
    generator is inside ``next()`` and inside ``StreamPipeline._row``,
    so ``total_calls`` is every Python and builtin call it costs to
    turn one message body into the float64 row that is written."""
    profile = cProfile.Profile()
    parse = RawFileParser.parse
    done = object()

    def profiled_parse(self, stream):
        step = profiled(profile, functools.partial(
            next, parse(self, stream), done))
        return iter(step, done)

    monkeypatch.setattr(RawFileParser, "parse", profiled_parse)
    monkeypatch.setattr(
        StreamPipeline, "_row", profiled(profile, StreamPipeline._row))
    # the layouts (and the record patterns they keep) are shared by
    # every parser, and ``re`` keeps its own cache: one an earlier test
    # made would take its compile out of the count
    Layout._interned.clear()
    re.purge()
    stream, deliveries, _ = run_fixture(TimeSeriesDB())
    parsers = stream._parsers.values()
    by_template = sum(p.template_records for p in parsers)
    by_line = sum(p.line_records for p in parsers)
    obs.reset()

    stats = pstats.Stats(profile)
    calls = stats.total_calls / deliveries
    ratio = calls / DECODE_CALLS_PER_DELIVERY_AT_85305F7
    report("decode calls per delivery (cProfile, 8 nodes, 12 h)", [
        ("calls / delivery", f"{calls:.1f}",
         f"{DECODE_CALLS_PER_DELIVERY_AT_85305F7:.1f} at 85305f7 -> "
         f"{ratio:.3f}x (gate {MAX_DECODE_CALLS_RATIO}x)"),
        ("records", f"{by_template} by template",
         f"{by_line} line by line"),
    ], ["measure", "value", "detail"])
    record_bench(BENCH_JSON, "decode_calls_8x12h", {
        "scenario": "8 nodes, 12 h sim, cProfile inside "
                    "RawFileParser.parse (next) + StreamPipeline._row only",
        "deliveries": deliveries,
        "calls": stats.total_calls,
        "calls_per_delivery": round(calls, 2),
        "calls_per_delivery_at_85305f7": DECODE_CALLS_PER_DELIVERY_AT_85305F7,
        "ratio": round(ratio, 4),
        "records_by_template": by_template,
        "records_line_by_line": by_line,
    })
    assert by_template + by_line == stream.samples
    assert ratio <= MAX_DECODE_CALLS_RATIO, (
        f"{calls:.0f} calls per delivery inside RawFileParser.parse + "
        f"StreamPipeline._row is {ratio:.2f}x the line-at-a-time "
        f"parser's {DECODE_CALLS_PER_DELIVERY_AT_85305F7:.0f} "
        f"(gate {MAX_DECODE_CALLS_RATIO}x)"
    )


def test_analyze_calls_per_delivery_gate(monkeypatch):
    """Count, do not time: the profiler runs only inside
    ``StreamingFlagAnalyzer.observe``, so ``total_calls`` is every
    Python and builtin call the live flag analyzer costs a delivery —
    the sample's gather, the per-job alignment and every evaluation."""
    profile = cProfile.Profile()
    monkeypatch.setattr(
        StreamingFlagAnalyzer, "observe",
        profiled(profile, StreamingFlagAnalyzer.observe))
    stream, deliveries, _ = run_fixture(TimeSeriesDB())
    obs.reset()

    stats = pstats.Stats(profile)
    calls = stats.total_calls / deliveries
    ratio = calls / ANALYZE_CALLS_PER_DELIVERY_AT_BDA2A2D
    report("analyze calls per delivery (cProfile, 8 nodes, 12 h)", [
        ("calls / delivery", f"{calls:.1f}",
         f"{ANALYZE_CALLS_PER_DELIVERY_AT_BDA2A2D:.1f} at bda2a2d -> "
         f"{ratio:.3f}x (gate {MAX_ANALYZE_CALLS_PER_DELIVERY})"),
        ("jobs", f"{len(stream.analyzer.completed)} completed",
         f"{deliveries} deliveries"),
    ], ["measure", "value", "detail"])
    record_bench(BENCH_JSON, "analyze_calls_8x12h", {
        "scenario": "8 nodes, 12 h sim, cProfile inside "
                    "StreamingFlagAnalyzer.observe only",
        "deliveries": deliveries,
        "calls": stats.total_calls,
        "calls_per_delivery": round(calls, 2),
        "calls_at_bda2a2d": ANALYZE_CALLS_AT_BDA2A2D,
        "calls_per_delivery_at_bda2a2d":
            ANALYZE_CALLS_PER_DELIVERY_AT_BDA2A2D,
        "max_calls_per_delivery": MAX_ANALYZE_CALLS_PER_DELIVERY,
        "ratio": round(ratio, 4),
    })
    assert stream.samples == deliveries
    assert calls <= MAX_ANALYZE_CALLS_PER_DELIVERY, (
        f"{calls:.0f} calls per delivery inside "
        f"StreamingFlagAnalyzer.observe (gate "
        f"{MAX_ANALYZE_CALLS_PER_DELIVERY}): a sample is gathered more "
        f"than once"
    )


def test_obs_calls_per_delivery_gate(monkeypatch):
    """Count, do not time: the profiler runs inside ``Broker.publish``
    and inside the drain of the stream queue — what one ``live_replay``
    op does — and the gate counts calls into functions defined under
    ``repro/obs``: the monitor's own bookkeeping per delivery."""
    profile = cProfile.Profile()
    monkeypatch.setattr(Broker, "publish", profiled(profile, Broker.publish))
    drain = Broker._drain
    drain_profiled = profiled(profile, drain)
    monkeypatch.setattr(
        Broker, "_drain",
        lambda self, q: (drain_profiled if q.name == STREAM_QUEUE
                         else drain)(self, q))
    stream, deliveries, _ = run_fixture(TimeSeriesDB())
    obs.reset()

    stats = pstats.Stats(profile)
    obs_dir = os.sep + os.path.join("repro", "obs") + os.sep
    calls = sum(
        ncalls for (filename, _, _), (_, ncalls, *_) in stats.stats.items()
        if obs_dir in filename
    )
    per_delivery = calls / deliveries
    ratio = per_delivery / OBS_CALLS_PER_DELIVERY_AT_EADE75C
    report("obs calls per delivery (cProfile, 8 nodes, 12 h)", [
        ("obs calls / delivery", f"{per_delivery:.1f}",
         f"{OBS_CALLS_PER_DELIVERY_AT_EADE75C:.1f} at eade75c -> "
         f"{ratio:.3f}x (gate {MAX_OBS_CALLS_RATIO}x)"),
        ("all calls / delivery", f"{stats.total_calls / deliveries:.1f}",
         f"{deliveries} deliveries"),
    ], ["measure", "value", "detail"])
    record_bench(BENCH_JSON, "obs_calls_8x12h", {
        "scenario": "8 nodes, 12 h sim, cProfile inside Broker.publish + "
                    "the stream queue's drain, calls into repro/obs",
        "deliveries": deliveries,
        "obs_calls": calls,
        "obs_calls_per_delivery": round(per_delivery, 2),
        "obs_calls_per_delivery_at_eade75c":
            OBS_CALLS_PER_DELIVERY_AT_EADE75C,
        "all_calls_per_delivery": round(stats.total_calls / deliveries, 2),
        "ratio": round(ratio, 4),
    })
    assert stream.samples == deliveries
    assert ratio <= MAX_OBS_CALLS_RATIO, (
        f"{per_delivery:.0f} obs calls per delivery is {ratio:.2f}x the "
        f"{OBS_CALLS_PER_DELIVERY_AT_EADE75C:.0f} of eade75c (gate "
        f"{MAX_OBS_CALLS_RATIO}x): a hot site resolves its metric per call"
    )


def test_first_rollup_flush_calls_gate(monkeypatch):
    """Count, do not time: every call of
    ``RetainingWriter._flush_columns`` that makes a tier's rollup group
    — a host's first rollup flush, which registers the host's layout
    under the rollup metric — runs under a profiler of its own."""
    flush = RetainingWriter._flush_columns
    counts = []

    def counted(self, group, state, i, mask):
        if state.rollups[i] is not None:
            return flush(self, group, state, i, mask)
        profile = cProfile.Profile()
        n = profiled(profile, flush)(self, group, state, i, mask)
        if state.rollups[i] is not None:  # not a flush of nothing
            counts.append((len(group), pstats.Stats(profile).total_calls))
        return n

    monkeypatch.setattr(RetainingWriter, "_flush_columns", counted)
    stream, _, _ = run_fixture(TimeSeriesDB())
    obs.reset()

    hosts = len(stream._hosts)
    width = max(k for k, _ in counts)
    calls = max(n for _, n in counts)
    ratio = calls / FIRST_FLUSH_CALLS_AT_EADE75C
    report("first rollup flush (cProfile, 8 nodes, 12 h)", [
        ("calls / first flush", f"{calls}",
         f"{FIRST_FLUSH_CALLS_AT_EADE75C} at eade75c -> {ratio:.3f}x "
         f"(gate {MAX_FIRST_FLUSH_RATIO}x)"),
        ("first flushes", f"{len(counts)}",
         f"{hosts} hosts x {len(stream.writer.policy.tiers)} tiers, "
         f"{width} series a host"),
    ], ["measure", "value", "detail"])
    record_bench(BENCH_JSON, "first_flush_calls", {
        "scenario": "8 nodes, 12 h sim, cProfile inside each "
                    "RetainingWriter._flush_columns that makes a rollup "
                    "group; the largest count",
        "first_flushes": len(counts),
        "series_per_host": width,
        "calls": calls,
        "calls_at_eade75c": FIRST_FLUSH_CALLS_AT_EADE75C,
        "ratio": round(ratio, 4),
    })
    assert len(counts) == hosts * len(stream.writer.policy.tiers)
    assert ratio <= MAX_FIRST_FLUSH_RATIO, (
        f"{calls} calls in a first rollup flush is {ratio:.2f}x the "
        f"{FIRST_FLUSH_CALLS_AT_EADE75C} of eade75c (gate "
        f"{MAX_FIRST_FLUSH_RATIO}x): the layout is registered per series"
    )


def test_dropping_prune_pass_gate():
    """The other side of the low-water mark: a pass that drops.  A
    48 x 339 fleet holds 294 rows per series (49 h at the 600 s cadence,
    the default raw horizon is 48 h), and one hourly pass drops the
    oldest six of each — 97 632 points — from both engines."""
    hosts, k, rows = 48, 339, 294
    t = np.arange(rows, dtype=np.int64) * INTERVAL
    block = np.random.default_rng(18).random((rows, k))
    stores = []
    for store in (TimeSeriesDB(), ListBackedTSDB()):
        for h in range(hosts):
            group = store.group("stats", [
                {"host": f"c{h:03d}", "event": f"e{j:03d}"} for j in range(k)
            ])
            # two writes, so the heads have grown once
            store.put_many("stats", group, t[:288], block[:288] + h)
            store.put_many("stats", group, t[288:], block[288:] + h)
        t0 = time.perf_counter()
        dropped = store.prune(6 * INTERVAL, metric="stats")
        stores.append((store, dropped, time.perf_counter() - t0))
    (db, dropped, wall), (oracle, oracle_dropped, oracle_wall) = stores
    speedup = oracle_wall / wall

    report("dropping prune pass (48 hosts x 339 series x 294 rows)", [
        ("row-block heads", f"{wall * 1e3:.1f} ms", f"{dropped} points"),
        ("list engine", f"{oracle_wall * 1e3:.1f} ms",
         f"{oracle_dropped} points"),
        ("speed-up", f"{speedup:.1f}x", f"gate {MIN_PRUNE_SPEEDUP}x"),
    ], ["engine", "one pass", "detail"])
    record_bench(BENCH_JSON, "dropping_prune_48x339", {
        "scenario": "48 hosts x 339 series x 294 rows, prune the oldest "
                    "6 rows of every series, one pass per engine",
        "points_dropped": dropped,
        "pass_ms": round(wall * 1e3, 2),
        "list_engine_pass_ms": round(oracle_wall * 1e3, 2),
        "speedup": round(speedup, 1),
    })
    assert dropped == oracle_dropped == hosts * k * 6
    assert db.n_series() == oracle.n_series() == hosts * k
    # the same store: ``store_dump`` series by series, without the lists
    for key, s in db._series.items():
        (ta, va), (tb, vb) = s.arrays(), oracle._series[key].arrays()
        assert np.array_equal(ta, tb), key
        assert np.array_equal(va.view(np.uint64), vb.view(np.uint64)), key
    assert speedup >= MIN_PRUNE_SPEEDUP, (
        f"dropping pass {wall * 1e3:.0f} ms vs the list engine's "
        f"{oracle_wall * 1e3:.0f} ms: {speedup:.1f}x "
        f"(gate {MIN_PRUNE_SPEEDUP}x)"
    )
