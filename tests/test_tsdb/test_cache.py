"""The read-path caches: result cache, decoded-buffer cache, and the
``read_stats()`` schema the portal ``/fleet`` page renders."""

import numpy as np
import pytest

from repro import obs
from repro.tsdb import BufferCache, QueryCache, TimeSeriesDB, window_stats
from repro.tsdb.query import query


def test_hit_requires_matching_epoch():
    c = QueryCache()
    c.put("k", 3, "result")
    assert c.get("k", 3) == "result"
    assert c.get("k", 4) is None  # store mutated since
    assert c.get("k", 3) is None  # stale entry was evicted on contact


def test_lru_eviction_order():
    c = QueryCache(maxsize=2)
    c.put("a", 0, 1)
    c.put("b", 0, 2)
    assert c.get("a", 0) == 1  # refresh a
    c.put("c", 0, 3)           # evicts b, the least recently used
    assert c.get("b", 0) is None
    assert c.get("a", 0) == 1
    assert c.get("c", 0) == 3
    assert len(c) == 2


def test_maxsize_must_be_positive():
    with pytest.raises(ValueError):
        QueryCache(maxsize=0)


def fill(db, host, values):
    for i, v in enumerate(values):
        db.put("m", {"host": host}, i * 600, v)


def test_query_results_served_from_cache():
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0, 3.0])
    r1 = query(db, "m")
    r2 = query(db, "m")
    assert db.cache.hits == 1 and db.cache.misses == 1
    # identical payloads; the wrapper is fresh so callers may extend it
    assert r1 is not r2
    assert np.array_equal(r1.series[0].values, r2.series[0].values)


def test_write_invalidates_cached_query():
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0])
    assert list(query(db, "m").series[0].values) == [1.0, 2.0]
    db.put("m", {"host": "n1"}, 1800, 9.0)
    res = query(db, "m")
    assert list(res.series[0].values) == [1.0, 2.0, 9.0]
    assert db.cache.hits == 0 and db.cache.misses == 2


def test_prune_invalidates_cached_query():
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0, 3.0])
    query(db, "m")
    db.prune(before=600)
    assert list(query(db, "m").series[0].values) == [2.0, 3.0]


def test_noop_prune_keeps_cache_warm():
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0])
    query(db, "m")
    assert db.prune(before=-1) == 0  # nothing dropped, epoch unchanged
    query(db, "m")
    assert db.cache.hits == 1


def test_distinct_query_shapes_do_not_collide():
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0, 3.0])
    a = query(db, "m", aggregate="sum")
    b = query(db, "m", aggregate="max")
    c = query(db, "m", time_range=(0, 600))
    assert db.cache.misses == 3
    assert len(a.series[0].values) == 3
    assert len(b.series[0].values) == 3
    assert len(c.series[0].values) == 1


def test_tag_filter_order_normalised():
    db = TimeSeriesDB()
    db.put("m", {"host": "n1", "type": "mdc"}, 0, 1.0)
    query(db, "m", tags={"host": "n1", "type": "mdc"})
    query(db, "m", tags={"type": "mdc", "host": "n1"})
    query(db, "m", tags={"host": ["n1"], "type": "mdc"})
    assert db.cache.hits == 2  # all three normalise to one key


def test_cache_can_be_disabled():
    db = TimeSeriesDB(cache=None)
    fill(db, "n1", [1.0])
    assert query(db, "m").series[0].values[0] == 1.0
    assert db.cache is None


def test_cache_counters_on_obs_registry():
    obs.reset()
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0])
    query(db, "m")
    query(db, "m")
    assert obs.counter("repro_tsdb_cache_misses_total").value() == 1
    assert obs.counter("repro_tsdb_cache_hits_total").value() == 1
    obs.reset()


# -- the decoded-buffer cache (ISSUE 6) ---------------------------------------

def cols(n):
    return np.arange(n, dtype=np.int64), np.ones(n, dtype=np.float64)


def test_buffer_cache_lru_and_counters():
    bc = BufferCache(maxsize=2)
    bc.put_many([(1, cols(3))])
    bc.put_many([(2, cols(3))])
    assert bc.get_many([1])[0] is not None  # refresh 1
    bc.put_many([(3, cols(3))])             # evicts 2
    assert bc.get_many([2]) == [None]
    assert None not in bc.get_many([1, 3])
    assert len(bc) == 2
    assert (bc.hits, bc.misses) == (3, 1)
    assert bc.hit_ratio == 0.75


def test_buffer_cache_put_many_and_note_misses():
    """Four planned decodes miss, are filed in one batch, and the batch
    evicts once."""
    bc = BufferCache(maxsize=3)
    assert bc.get_many([10, 11, 12, 13]) == [None] * 4
    bc.put_many((cid, cols(2)) for cid in (10, 11, 12, 13))
    assert len(bc) == 3
    assert bc.get_many([10]) == [None]  # batch eviction dropped the oldest
    assert bc.get_many([13])[0] is not None
    assert bc.misses == 5
    bc.invalidate([13, 999])
    assert 13 not in bc._entries
    bc.clear()
    assert len(bc) == 0


def test_buffer_cache_get_many_is_one_counted_lookup_per_id():
    obs.reset()
    bc = BufferCache(maxsize=3)
    bc.put_many((cid, cols(cid)) for cid in (1, 2, 3))
    found = bc.get_many([3, 9, 1, 8, 7])
    assert [None if c is None else len(c[0]) for c in found] == [
        3, None, 1, None, None]
    assert (bc.hits, bc.misses) == (2, 3)
    assert obs.counter("repro_tsdb_buffer_cache_hits_total").value() == 2
    assert obs.counter("repro_tsdb_buffer_cache_misses_total").value() == 3
    # recency was touched in list order: 2 is now the oldest, then 3, 1
    bc.put_many([(4, cols(4))])
    assert list(bc._entries) == [3, 1, 4]
    assert bc.get_many([]) == [] and (bc.hits, bc.misses) == (2, 3)
    obs.reset()


def test_buffer_cache_maxsize_must_be_positive():
    with pytest.raises(ValueError):
        BufferCache(maxsize=0)


def test_buffer_cache_can_be_disabled():
    db = TimeSeriesDB(buffer_cache=None)
    fill(db, "n1", [1.0, 2.0])
    assert db.buffer_cache is None
    assert query(db, "m").series[0].values[-1] == 2.0


# -- the /fleet stats schema --------------------------------------------------

def test_read_stats_schema_pinned():
    """The exact shape the portal ``/fleet`` page renders: the result
    cache, the buffer cache, and pre-aggregate skips report separately,
    and a disabled cache shows as None (not zeros)."""
    db = TimeSeriesDB(chunk_size=4)
    for i in range(12):
        db.put("m", {"host": "n1"}, i, float(i))
    db.seal_heads()
    db.drop_read_caches()
    window_stats(db, "m")                       # preagg path
    window_stats(db, "m", time_range=(1, 7))    # edge decodes
    query(db, "m")
    query(db, "m")                              # result-cache hit
    stats = db.read_stats()
    assert set(stats) == {
        "epoch", "result_cache", "buffer_cache", "preagg"
    }
    for cache_key in ("result_cache", "buffer_cache"):
        c = stats[cache_key]
        assert set(c) == {"hits", "misses", "hit_ratio", "entries"}
        assert all(isinstance(c[k], int) for k in ("hits", "misses", "entries"))
        assert isinstance(c["hit_ratio"], float)
    assert stats["result_cache"]["hits"] >= 1
    assert stats["buffer_cache"]["misses"] >= 1
    assert set(stats["preagg"]) == {"windows", "chunks_skipped"}
    assert stats["preagg"]["windows"] >= 2
    assert stats["preagg"]["chunks_skipped"] >= 3  # full-history pass
    assert isinstance(stats["epoch"], int)

    off = TimeSeriesDB(cache=None, buffer_cache=None).read_stats()
    assert off["result_cache"] is None
    assert off["buffer_cache"] is None
