"""``window_stats`` on the sharded store against the frozen body.

Every shard answers through the store's ``window_stats``, whose head
partials are reduced one slab per (head block, lower edge).  The
sharded answer, at shards {1, 3} x workers {0, 1}, must be byte for
byte what the frozen per-series body
(``tests/test_tsdb/reference.py::window_stats_reference``) makes of
one :class:`~repro.tsdb.store.TimeSeriesDB` holding the same fleet day
— for the whole series, for windows that cut the open heads, and for
windows that cut sealed chunks.
"""

import pytest

from repro.shard import ShardedTSDB, StoreSource
from repro.tsdb import TimeSeriesDB, ingest_store, window_stats
from tests.test_tsdb.reference import stats_bytes, window_stats_reference

from .conftest import CHUNK_SIZE, TYPES


@pytest.fixture(scope="module")
def single(fleet_day):
    db = TimeSeriesDB(chunk_size=CHUNK_SIZE)
    ingest_store(db, fleet_day.store, types=TYPES)
    return db


def _windows(db):
    """No window, and windows over the head, across the last seal and
    inside the sealed chunks, from the first series' own times."""
    s = db.select("stats")[0]
    t = s.arrays()[0].tolist()
    head = s.head_len()
    assert 0 < head < len(t) and s.chunks
    return [
        None,
        (t[-head + 2], t[-2]),
        (t[-head - 5], t[-head + 3]),
        (t[3], t[CHUNK_SIZE + 4]),
        (t[0] - 1, t[-1] + 1),
    ]


@pytest.mark.parametrize("shards,workers", [(1, 0), (1, 1), (3, 0), (3, 1)])
def test_sharded_window_stats_equals_frozen_body(
    single, fleet_day, shards, workers
):
    windows = _windows(single)
    with ShardedTSDB(
        shards=shards, workers=workers, chunk_size=CHUNK_SIZE
    ) as db:
        db.ingest(StoreSource(fleet_day.store.root), types=TYPES)
        for window in windows:
            want = stats_bytes(window_stats_reference(
                single, "stats", time_range=window, use_preagg=False))
            got = db.window_stats("stats", time_range=window)
            assert stats_bytes(got) == want, window
            assert stats_bytes(window_stats(
                single, "stats", time_range=window)) == want
