"""CI gate: continuous fleet analytics must stay under 5 % of the
live path's cost.

`FleetAnalytics` rides on every stream delivery (feed sketches) and
every job completion (scoring, clustering, anomaly checks).  The
always-on promise only holds if that costs almost nothing next to
parsing and TSDB writes, so this gate replays one captured two-day
soak corpus through the stream path with and without analytics
attached — interleaved in ABBA order, best-of-N each, mirroring the
obs-overhead gate — and fails if the analytics-enabled replay is more
than 5 % slower.  The measured numbers land in ``BENCH_analytics.json``
for the CI artifact upload.
"""

import time
from pathlib import Path

from benchmarks._support import record_bench, report
from repro import monitoring_session, obs
from repro.cluster import JobSpec, make_app
from repro.core.daemon import EXCHANGE
from repro.stream.analytics import FleetAnalytics
from repro.stream import StreamPipeline

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_analytics.json"

#: the row-wise live path made one replay ~8× shorter (14 s → 1.7 s),
#: so 5 % of it is ~85 ms — inside one round's scheduling noise on a
#: shared runner; more interleaved rounds keep best-of-N meaningful and
#: the whole gate still takes a quarter of the time it used to
ROUNDS = 15
BUDGET = 1.05  # analytics may cost at most 5 % more

#: the soak mix: §V-A offenders plus well-behaved jobs, so scoring
#: sees several job classes and a few fleet outliers
MIX = (
    ("alice", "wrf", 4),
    ("mduser", "metadata_thrash", 2),
    ("idleuser", "idle_half", 2),
    ("ptruser", "hicpi", 2),
    ("bob", "namd", 2),
)


def capture_soak_corpus():
    """Run two simulated days once, recording every stats delivery."""
    obs.reset()
    sess = monitoring_session(nodes=6, seed=404, interval=600)
    obs.set_clock(sess.cluster.clock.now)
    deliveries = []
    sess.broker.declare_queue("bench_tap")
    sess.broker.bind("bench_tap", EXCHANGE, "stats.#")
    sess.broker.channel().basic_consume(
        "bench_tap", lambda ch, d: deliveries.append(d), auto_ack=True
    )
    for user, app, nodes in MIX:
        sess.cluster.submit(JobSpec(
            user=user,
            app=make_app(app, runtime_mean=6000.0, fail_prob=0.0),
            nodes=nodes,
        ))
    sess.cluster.run_for(2 * 86400)
    obs.reset()
    return sess, deliveries


def timed_replay(sess, deliveries, with_analytics: bool):
    """Feed the captured corpus through a fresh pipeline; seconds."""
    obs.reset()
    analytics = FleetAnalytics(min_jobs=4) if with_analytics else None
    pipe = StreamPipeline(
        sess.broker, jobs=sess.cluster.jobs, analytics=analytics
    )
    t0 = time.perf_counter()
    for d in deliveries:
        pipe._on_delivery(None, d)
    pipe.finalize()
    wall = time.perf_counter() - t0
    return wall, pipe, analytics


def test_analytics_overhead_within_budget():
    sess, deliveries = capture_soak_corpus()
    assert len(deliveries) > 500, "soak corpus unexpectedly small"

    timed_replay(sess, deliveries, True)  # warm caches before timing
    runs = {False: [], True: []}
    for r in range(ROUNDS):
        # ABBA: each mode goes first in every other round, so a drift
        # that favours the second run of a pair favours neither mode
        order = (False, True) if r % 2 == 0 else (True, False)
        for with_analytics in order:
            runs[with_analytics].append(
                timed_replay(sess, deliveries, with_analytics)[0])
    off, on = runs[False], runs[True]
    baseline, instrumented = min(off), min(on)
    ratio = instrumented / baseline

    # the timed runs must actually have exercised the scoring plane
    _, pipe, analytics = timed_replay(sess, deliveries, True)
    obs.reset()
    assert analytics.jobs_scored >= len(MIX)
    assert analytics.feeds, "no feed sketches were built"

    report(
        "analytics overhead gate (2-day soak replay, best of %d)"
        % ROUNDS,
        [("plain", f"{baseline * 1e3:.1f} ms", ""),
         ("analytics", f"{instrumented * 1e3:.1f} ms",
          f"{(ratio - 1) * 100:+.1f} %"),
         ("scored", f"{analytics.jobs_scored} jobs",
          f"{len(analytics.scorer.classes)} classes")],
        ["mode", "best", "detail"],
    )
    record_bench(BENCH_JSON, "soak_replay_6x2d", {
        "scenario": "6 nodes, 2 d sim, 600 s cadence, offender mix",
        "rounds": ROUNDS,
        "deliveries": len(deliveries),
        "samples": pipe.samples,
        "jobs_scored": analytics.jobs_scored,
        "job_classes": len(analytics.scorer.classes),
        "feeds": len(analytics.feeds),
        "wall_plain_s": round(baseline, 4),
        "wall_analytics_s": round(instrumented, 4),
        "overhead_pct": round((ratio - 1) * 100, 2),
        "budget_pct": round((BUDGET - 1) * 100, 1),
    })
    assert ratio <= BUDGET, (
        f"analytics-enabled replay is {(ratio - 1) * 100:.1f} % slower "
        f"(budget {(BUDGET - 1) * 100:.0f} %)"
    )
