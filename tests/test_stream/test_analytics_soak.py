"""ISSUE acceptance: sketch rank accuracy on the 2-day soak corpus.

The soak fixture leaves two simulated days of raw stats on disk.  Here
the whole corpus is replayed through :class:`FleetAnalytics` exactly
the way the stream pipeline feeds it — ``(type, device, event)``
columns folded into per-``(type, event)`` fleet feeds — while the
*exact* value lists are kept on the side.  Every feed's sketch
quantiles must land within 1 % rank error of the exact order
statistics.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.rawfile import RawFileParser
from repro.obs.analytics import FleetAnalytics
from repro.obs.registry import MetricRegistry
from tests.test_obs.test_sketch import assert_rank_accurate

QUANTILES = (0.5, 0.9, 0.99)


@pytest.fixture(scope="module")
def soak_feeds(soak_run):
    """Replay the soak store into analytics, keeping exact values."""
    store = soak_run.sess.store
    store.flush()
    analytics = FleetAnalytics(registry=MetricRegistry())
    exact = {}
    total = 0
    for host in store.hosts():
        parser = RawFileParser()
        with open(store.path_for(host)) as fh:
            for sample in parser.parse(fh):
                feeds, row = [], []
                for tname, devices in sample.data.items():
                    schema = parser.schemas.get(tname)
                    if schema is None:
                        continue
                    names = schema.names()
                    for dev, values in devices.items():
                        for ev, v in zip(names, values):
                            feeds.append((tname, ev))
                            row.append(float(v))
                            exact.setdefault((tname, ev), []).append(
                                float(v)
                            )
                            total += 1
                analytics.observe_batch(
                    [(feeds, np.array([row]))], now=sample.timestamp
                )
    analytics.flush_feeds()
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
