"""Sketch rank accuracy on the 2-day soak corpus.

The soak fixture leaves two simulated days of raw stats on disk.  Here
the whole corpus is loaded into a TSDB with
:func:`~repro.tsdb.store.ingest_store` and read back through
:class:`FleetAnalytics` — ``(type, device, event)`` series grouped
into per-``(type, event)`` fleet feeds — while the store's points are
kept on the side as the exact oracle.  Every feed's sketch quantiles
must land within 1 % rank error of the exact order statistics.
"""

from types import SimpleNamespace

import pytest

from repro.obs.registry import MetricRegistry
from repro.stream.analytics import FleetAnalytics
from repro.tsdb.store import TimeSeriesDB, ingest_store
from tests.test_obs.test_sketch import assert_rank_accurate

QUANTILES = (0.5, 0.9, 0.99)


@pytest.fixture(scope="module")
def soak_feeds(soak_run):
    """The soak store in a TSDB, read as feeds, and its exact points."""
    tsdb = TimeSeriesDB()
    ingest_store(tsdb, soak_run.sess.store)
    analytics = FleetAnalytics(registry=MetricRegistry())
    analytics.attach([tsdb], "stats")
    exact = {}
    for s in tsdb.select("stats"):
        _, v = s.arrays()
        exact.setdefault((s.tags["type"], s.tags["event"]), []).extend(
            v.tolist()
        )
    total = sum(map(len, exact.values()))
    return SimpleNamespace(analytics=analytics, exact=exact, total=total)


def test_corpus_is_substantial(soak_feeds):
    """The acceptance run is a real fleet corpus, not a toy."""
    assert soak_feeds.total > 50_000
    assert len(soak_feeds.exact) >= 3  # several distinct feeds
    assert any(len(v) >= 1000 for v in soak_feeds.exact.values())


def test_every_feed_sketch_matches_the_exact_counts(soak_feeds):
    for (tname, ev), values in sorted(soak_feeds.exact.items()):
        view = soak_feeds.analytics.feed_view(tname, ev)
        assert view is not None, (tname, ev)
        assert view.count == len(values), (tname, ev)


def test_sketch_quantiles_within_one_percent_rank_of_exact(soak_feeds):
    """The headline acceptance bound, on every feed of the corpus."""
    checked = 0
    for (tname, ev), values in sorted(soak_feeds.exact.items()):
        view = soak_feeds.analytics.feed_view(tname, ev)
        for q in QUANTILES:
            assert_rank_accurate(values, q, view.quantile(q))
        checked += 1
    assert checked == len(soak_feeds.exact)


def test_feed_sketch_metric_mirrors_the_feeds(soak_feeds):
    """The registry-exported sketch carries the same per-feed counts."""
    sk = soak_feeds.analytics.registry.sketch("repro_stream_feed_sketch")
    for (tname, ev), values in soak_feeds.exact.items():
        assert sk.count(type=tname, event=ev) == len(values)
