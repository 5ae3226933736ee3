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


def test_an_injected_empty_cache_is_the_one_the_store_uses():
    """An empty cache is falsy (``LRUCache`` has ``__len__``): the store
    must keep the very object it was handed, not default past it."""
    results, buffers = QueryCache(maxsize=1), BufferCache(maxsize=1)
    assert not results and not buffers
    db = TimeSeriesDB(chunk_size=2, cache=results, buffer_cache=buffers)
    assert db.cache is results and db.buffer_cache is buffers
    fill(db, "n1", [1.0, 2.0, 3.0, 4.0, 5.0])
    query(db, "m", time_range=(0, 1800))
    assert (results.misses, len(results)) == (1, 1)
    assert buffers.misses == 2 and len(buffers) == 1


def test_none_means_the_default_caches():
    db = TimeSeriesDB(cache=None, buffer_cache=None)
    assert isinstance(db.cache, QueryCache)
    assert isinstance(db.buffer_cache, BufferCache)


def test_cache_counters_on_obs_registry():
    obs.reset()
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0])
    query(db, "m")
    query(db, "m")
    assert obs.counter("repro_tsdb_cache_misses_total").value() == 1
    assert obs.counter("repro_tsdb_cache_hits_total").value() == 1
    obs.reset()


# -- scoped validity: a result outlives writes outside its window --------------

def bits(stats):
    return [(st.tags, st.points, np.array(
        [st.sum, st.min, st.max, st.first, st.last]).tobytes())
        for st in stats]


def test_an_entry_filed_under_another_epoch_asks_unchanged():
    c = QueryCache()
    c.put("k", 3, "result")
    asked = []
    assert c.get("k", 5, lambda filed: asked.append(filed) or True) == (
        "result")
    assert asked == [3]
    assert c.get("k", 5) == "result"      # re-filed under 5: nothing asked
    assert c.get("k", 6, lambda filed: False) is None
    assert c.get("k", 5) is None          # and dropped on contact


def test_a_write_outside_the_window_keeps_the_result():
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0, 3.0])      # t = 0, 600, 1200
    early, late = (0, 700), (1200, 5000)
    for w in (early, late):
        query(db, "m", time_range=w)
    db.put("m", {"host": "n1"}, 1800, 9.0)   # inside late only
    hits = db.cache.hits
    assert list(query(db, "m", time_range=early).series[0].values) == [
        1.0, 2.0]
    assert db.cache.hits == hits + 1
    assert list(query(db, "m", time_range=late).series[0].values) == [
        3.0, 9.0]
    assert db.cache.hits == hits + 1
    db.put("x", {"host": "n1"}, 0, 5.0)      # another metric, same times
    query(db, "m", time_range=early)
    assert db.cache.hits == hits + 2


def test_seal_heads_keeps_every_result():
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0, 3.0])
    want = bits(window_stats(db, "m", time_range=(0, 700)))
    db.seal_heads()
    assert bits(window_stats(db, "m", time_range=(0, 700))) == want
    assert db.cache.hits == 1


def test_a_new_series_touches_the_whole_metric():
    """``window_stats`` answers a row per series, points in the window
    or not: a series born outside the window changes it."""
    db = TimeSeriesDB()
    fill(db, "n1", [1.0, 2.0, 3.0])
    assert len(window_stats(db, "m", time_range=(0, 700))) == 1
    db.put("m", {"host": "n2"}, 5000, 1.0)
    assert len(window_stats(db, "m", time_range=(0, 700))) == 2
    assert db.cache.hits == 0


def test_a_prune_touches_the_whole_metric():
    db = TimeSeriesDB()
    fill(db, "n1", [1.0])
    fill(db, "n2", [1.0, 2.0, 3.0])
    assert len(window_stats(db, "m", time_range=(1000, 2000))) == 2
    assert db.prune(before=500) == 2         # n1 is deleted
    db.put("m", {"host": "n2"}, 5000, 4.0)   # and a write after the window
    assert len(window_stats(db, "m", time_range=(1000, 2000))) == 1


def test_a_late_write_outside_the_window_touches_the_whole_metric():
    """An out-of-order write moves a series off the chunk-partials fold
    onto one reduction of the merged window, whose sum associates
    differently: the bits of a window it never reached can change."""
    rng = np.random.default_rng(1)
    values = rng.standard_normal(40) * 10.0 ** rng.integers(-3, 6, 40)
    db, fresh = TimeSeriesDB(chunk_size=4), TimeSeriesDB(chunk_size=4)
    for store in (db, fresh):
        store.put_many("m", {"host": "n1"}, 100 + np.arange(40), values)
    window_stats(db, "m", time_range=(100, 200))
    for store in (db, fresh):
        store.put("m", {"host": "n1"}, 5, 1.0)
    got = window_stats(db, "m", time_range=(100, 200))
    want = window_stats(fresh, "m", time_range=(100, 200))
    assert bits(got) == bits(want)
    assert db.cache.hits == 0


def test_an_entry_older_than_the_log_counts_as_changed():
    from repro.tsdb.cache import CHANGE_LOG_LEN

    db = TimeSeriesDB()
    fill(db, "n1", [1.0])                    # epoch 1, the log's first
    query(db, "m", time_range=(0, 10))
    for i in range(CHANGE_LOG_LEN - 1):      # the log is full, all kept
        db.put("m", {"host": "n1"}, 1000 + i, 1.0)
    query(db, "m", time_range=(0, 10))
    assert db.cache.hits == 1                # re-filed at the newest epoch
    for i in range(CHANGE_LOG_LEN):          # all after the window too
        db.put("m", {"host": "n1"}, 2000 + i, 1.0)
    query(db, "m", time_range=(0, 10))       # its epoch fell off the log
    assert db.cache.hits == 1


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


# -- the /fleet stats schema --------------------------------------------------

def test_read_stats_schema_pinned():
    """The exact shape the portal ``/fleet`` page renders: the result
    cache, the buffer cache, and pre-aggregate skips report separately."""
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
