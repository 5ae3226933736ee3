"""What a counter-feed distribution costs its reader.

`FleetAnalytics` keeps no copy of the live counter feeds: the
``repro_stream_feed_sketch`` family on ``/obs`` is rebuilt from the
stores the stream pipeline writes on the first read after a write,
and a read with no write since is answered as it stands.  This
benchmark replays the two-day soak corpus of
``benchmarks/test_analytics.py`` into a pipeline with analytics
attached, then times one cold exposition render (every feed read
from the store and sketched) and one warm one (no write in between,
so no store read).  The machine-independent gates are the read
counts: one rebuild on the cold render, none on the warm one, and a
mirror that holds exactly the store's points.  The timings land in
``BENCH_analytics.json`` as ``feed_read_6x2d``.
"""

import time

from benchmarks._support import record_bench, report
from benchmarks.test_analytics import BENCH_JSON, capture_soak_corpus
from repro import obs
from repro.obs.registry import MetricRegistry
from repro.stream import FleetAnalytics, StreamPipeline

#: replays, each giving one cold and one warm render; best of each
ROUNDS = 3


def replay_and_render(sess, deliveries):
    """Replay into a fresh pipeline; time two renders of its mirror."""
    obs.reset()
    analytics = FleetAnalytics(registry=MetricRegistry(), min_jobs=4)
    pipe = StreamPipeline(
        sess.broker, jobs=sess.cluster.jobs, analytics=analytics
    )
    for d in deliveries:
        pipe._on_delivery(None, d)
    pipe.finalize()
    reads = []
    read = analytics._read

    def counted(*args, **kw):
        reads.append(args)
        return read(*args, **kw)

    analytics._read = counted
    walls, per_render = [], []
    for _ in range(2):
        t0 = time.perf_counter()
        text = analytics.registry.render_text()
        walls.append(time.perf_counter() - t0)
        assert "repro_stream_feed_sketch_count" in text
        per_render.append(len(reads))
    # the cold render read every feed at once; the warm one read nothing
    assert per_render == [1, 1]
    return walls, pipe, analytics


def test_feed_read_cost():
    sess, deliveries = capture_soak_corpus()
    colds, warms = [], []
    for _ in range(ROUNDS):
        (cold, warm), pipe, analytics = replay_and_render(sess, deliveries)
        colds.append(cold)
        warms.append(warm)
    obs.reset()

    mirror = analytics.registry.sketch("repro_stream_feed_sketch")
    points = mirror.merged().count
    stored = sum(len(s.arrays()[1]) for s in pipe.tsdb.select("stats"))
    assert points == stored > 0
    feeds = len(analytics.feeds)
    assert feeds == len(mirror.label_keys()) > 0

    report(
        "feed reads (2-day soak replay, best of %d)" % ROUNDS,
        [("cold render", f"{min(colds) * 1e3:.1f} ms", "rebuild"),
         ("warm render", f"{min(warms) * 1e3:.2f} ms", "no store read"),
         ("mirror", f"{points} points", f"{feeds} feeds")],
        ["read", "best", "detail"],
    )
    record_bench(BENCH_JSON, "feed_read_6x2d", {
        "scenario": "6 nodes, 2 d sim, 600 s cadence, offender mix",
        "rounds": ROUNDS,
        "deliveries": len(deliveries),
        "points": points,
        "feeds": feeds,
        "render_cold_ms": round(min(colds) * 1e3, 2),
        "render_warm_ms": round(min(warms) * 1e3, 3),
    })
