"""TSDB storage: series identity, indexing, ingest, chunk boundaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ShardedTSDB
from repro.tsdb import TimeSeriesDB, ingest_store
from repro.tsdb.cache import BufferCache
from tests.test_tsdb.reference import ListBackedTSDB
from tests.test_tsdb.test_model import bits


def test_series_identity_by_metric_and_tags():
    db = TimeSeriesDB()
    db.put("stats", {"host": "n1", "event": "reqs"}, 0, 1.0)
    db.put("stats", {"host": "n1", "event": "reqs"}, 600, 2.0)
    db.put("stats", {"host": "n2", "event": "reqs"}, 0, 3.0)
    assert db.n_series() == 2
    assert db.n_points() == 3


def test_tag_order_irrelevant():
    db = TimeSeriesDB()
    db.put("m", {"a": "1", "b": "2"}, 0, 1.0)
    db.put("m", {"b": "2", "a": "1"}, 1, 2.0)
    assert db.n_series() == 1


def test_tag_values_index():
    db = TimeSeriesDB()
    db.put("m", {"host": "n1", "type": "mdc"}, 0, 1.0)
    db.put("m", {"host": "n2", "type": "mdc"}, 0, 1.0)
    assert db.tag_values("host") == ["n1", "n2"]
    assert db.tag_values("type") == ["mdc"]
    assert db.tag_values("nope") == []


def test_select_with_filters():
    db = TimeSeriesDB()
    for h in ("n1", "n2", "n3"):
        db.put("m", {"host": h, "type": "mdc"}, 0, 1.0)
        db.put("m", {"host": h, "type": "osc"}, 0, 1.0)
    assert len(db.select("m")) == 6
    assert len(db.select("m", {"type": "mdc"})) == 3
    assert len(db.select("m", {"type": "mdc", "host": ["n1", "n3"]})) == 2
    assert db.select("m", {"host": "ghost"}) == []


# small tag vocabularies, so two metrics share most tag values and the
# index's posting sets mix their keys
_VALUES = {"host": ["n1", "n2", "n3"], "type": ["cpu", "mdc"],
           "device": ["0", "1", 2]}
#: every series a store may hold: both metrics over every combination
#: of a host with, optionally, a type and a device
_GRID = [
    (metric, {"host": host, **type_, **device})
    for metric in ("m", "x")
    for host in _VALUES["host"]
    for type_ in [{}] + [{"type": v} for v in _VALUES["type"]]
    for device in [{}] + [{"device": v} for v in _VALUES["device"]]
]


def _wanted(tag):
    """One value, or a list / tuple / set of alternatives (maybe none),
    mostly known to the index, sometimes not."""
    value = st.sampled_from(_VALUES.get(tag, []) + ["ghost"])
    several = st.lists(value, max_size=3)
    return st.one_of(value, several, several.map(tuple), several.map(set))


_FILTERS = st.fixed_dictionaries(
    {},
    optional={tag: _wanted(tag) for tag in ("host", "type", "device", "rack")},
)


def _brute_select(db, metric, tags):
    """Every series checked against every filter, in key order."""
    hits = []
    for key in sorted(db._series):
        s = db._series[key]
        if key[0] == metric and all(
            tag in s.tags and str(s.tags[tag]) in {
                str(alt) for alt in (
                    want if isinstance(want, (list, tuple, set)) else [want]
                )
            }
            for tag, want in (tags or {}).items()
        ):
            hits.append(s)
    return hits


@settings(max_examples=150, deadline=None)
@given(
    series=st.lists(st.sampled_from(_GRID), min_size=6, max_size=30),
    filters=st.lists(
        st.tuples(st.sampled_from(["m", "x"]), _FILTERS),
        min_size=3, max_size=8,
    ),
)
def test_select_equals_a_brute_force_filter(series, filters):
    db, sharded = TimeSeriesDB(), ShardedTSDB(shards=3)
    for metric, tags in series:
        db.put(metric, tags, 0, 1.0)
        sharded.put(metric, tags, 0, 1.0)
    posting_sets = lambda: (
        {m: set(keys) for m, keys in db._by_metric.items()},
        {
            tag: {v: set(keys) for v, keys in by_value.items()}
            for tag, by_value in db._index.items()
        },
    )
    before = posting_sets()
    for metric, tags in filters + [
        ("m", None), ("x", {}), ("nope", None), ("nope", {"host": "n1"}),
    ]:
        got = db.select(metric, tags)
        want = _brute_select(db, metric, tags)
        assert got == want, (metric, tags)  # the very same objects
        assert [(h.metric, h.key) for h in sharded.select(metric, tags)] == [
            s.key for s in want
        ], (metric, tags)
    # the posting sets were read, never written (nor grown by a miss)
    assert posting_sets() == before
    sharded.close()


def test_series_arrays_sorted_and_deduped():
    db = TimeSeriesDB()
    db.put("m", {"h": "x"}, 600, 2.0)
    db.put("m", {"h": "x"}, 0, 1.0)
    db.put("m", {"h": "x"}, 600, 5.0)  # duplicate ts: last wins
    s = db.select("m")[0]
    t, v = s.arrays()
    assert list(t) == [0, 600]
    assert list(v) == [1.0, 5.0]


def test_ingest_store_tags(monitored_run):
    db = TimeSeriesDB()
    n = ingest_store(db, monitored_run.store, types=["mdc"])
    assert n > 0
    assert db.tag_values("type") == ["mdc"]
    assert set(db.tag_values("event")) == {
        "reqs", "wait_us", "open", "close", "getattr", "setattr"
    }
    assert len(db.tag_values("host")) == 11  # 10 normal + 1 largemem


def test_ingest_store_all_types(monitored_run):
    db = TimeSeriesDB()
    ingest_store(db, monitored_run.store, types=["cpu", "mem"])
    assert set(db.tag_values("type")) == {"cpu", "mem"}
    # per-cpu instances became device tags
    assert "0" in db.tag_values("device")


# -- chunked engine: seal boundaries, ordering, batching, pruning ----------

def _arrays(db, metric="m", **tags):
    s = db.select(metric, tags or None)[0]
    return s.arrays()


def test_head_seals_into_chunks():
    db = TimeSeriesDB(chunk_size=8)
    for i in range(20):
        db.put("m", {"h": "x"}, i * 600, float(i))
    s = db.select("m")[0]
    assert len(s.chunks) == 2          # two sealed, four in the head
    assert len(s) == 20
    assert db.n_chunks() == 2
    t, v = s.arrays()
    assert list(t) == [i * 600 for i in range(20)]
    assert list(v) == [float(i) for i in range(20)]


def test_duplicate_timestamp_last_write_wins_across_seal_boundary():
    """A rewrite of a timestamp already frozen in a sealed chunk must
    still win when the series is read back."""
    db = TimeSeriesDB(chunk_size=4)
    for i in range(4):                  # seals exactly one chunk
        db.put("m", {"h": "x"}, i * 600, float(i))
    assert db.select("m")[0].chunks
    db.put("m", {"h": "x"}, 600, 99.0)  # overrides a sealed point
    t, v = _arrays(db, h="x")
    assert list(t) == [0, 600, 1200, 1800]
    assert list(v) == [0.0, 99.0, 2.0, 3.0]


def test_duplicate_timestamps_within_one_sealed_chunk():
    db = TimeSeriesDB(chunk_size=4)
    for ts, val in ((0, 1.0), (600, 2.0), (600, 5.0), (1200, 3.0)):
        db.put("m", {"h": "x"}, ts, val)
    t, v = _arrays(db, h="x")
    assert list(t) == [0, 600, 1200]
    assert list(v) == [1.0, 5.0, 3.0]


def test_out_of_order_writes_across_chunk_boundary():
    """Late-arriving old points interleave correctly with sealed data."""
    db = TimeSeriesDB(chunk_size=4)
    ref = ListBackedTSDB()
    writes = [
        (3000, 1.0), (600, 2.0), (2400, 3.0), (0, 4.0),       # chunk 1
        (1200, 5.0), (1800, 6.0), (300, 7.0), (600, 8.0),     # chunk 2
        (900, 9.0), (2400, 10.0),                              # head
    ]
    for ts, val in writes:
        db.put("m", {"h": "x"}, ts, val)
        ref.put("m", {"h": "x"}, ts, val)
    t, v = _arrays(db, h="x")
    rt, rv = _arrays(ref, h="x")
    assert list(t) == list(rt)
    assert list(v) == list(rv)
    assert db.select("m")[0].chunks    # the boundary was actually hit


def test_put_many_equals_put_loop():
    a = TimeSeriesDB(chunk_size=16)
    b = TimeSeriesDB(chunk_size=16)
    times = [i * 600 for i in range(50)]
    values = [float(i) ** 2 for i in range(50)]
    n = a.put_many("m", {"h": "x"}, times, values)
    assert n == 50
    for ts, val in zip(times, values):
        b.put("m", {"h": "x"}, ts, val)
    ta, va = _arrays(a, h="x")
    tb, vb = _arrays(b, h="x")
    assert np.array_equal(ta, tb) and np.array_equal(va, vb)
    assert len(a.select("m")[0].chunks) == len(b.select("m")[0].chunks)


def test_put_many_unsorted_batch():
    db = TimeSeriesDB(chunk_size=4)
    ref = ListBackedTSDB()
    times = [1800, 0, 600, 600, 1200]
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    db.put_many("m", {"h": "x"}, times, values)
    ref.put_many("m", {"h": "x"}, times, values)
    t, v = _arrays(db, h="x")
    rt, rv = _arrays(ref, h="x")
    assert list(t) == list(rt) and list(v) == list(rv)


def test_put_many_empty_batch_is_noop():
    db = TimeSeriesDB()
    epoch = db.epoch
    assert db.put_many("m", {"h": "x"}, [], []) == 0
    assert db.epoch == epoch and db.n_series() == 0


def test_prune_drops_whole_chunks_by_metadata():
    db = TimeSeriesDB(chunk_size=10)
    for i in range(40):
        db.put("m", {"h": "x"}, i * 600, float(i))
    s = db.select("m")[0]
    assert len(s.chunks) == 4
    # horizon at a chunk boundary: two chunks expire outright
    dropped = db.prune(before=20 * 600)
    assert dropped == 20
    assert len(s.chunks) == 2
    t, _ = s.arrays()
    assert list(t) == [i * 600 for i in range(20, 40)]


def test_prune_decodes_only_straddling_chunk():
    db = TimeSeriesDB(chunk_size=10)
    for i in range(30):
        db.put("m", {"h": "x"}, i * 600, float(i))
    dropped = db.prune(before=15 * 600)  # mid-chunk horizon
    assert dropped == 15
    t, v = _arrays(db, h="x")
    assert list(t) == [i * 600 for i in range(15, 30)]
    assert list(v) == [float(i) for i in range(15, 30)]


def test_prune_time_range_reads_after():
    """Pushdown reads agree with the store state after pruning."""
    db = TimeSeriesDB(chunk_size=8)
    for i in range(32):
        db.put("m", {"h": "x"}, i * 600, float(i))
    db.prune(before=10 * 600)
    s = db.select("m")[0]
    t, v = s.arrays(time_range=(12 * 600, 20 * 600))
    assert list(t) == [i * 600 for i in range(12, 20)]


def test_time_range_pushdown_equals_post_filter():
    db = TimeSeriesDB(chunk_size=8)
    rng = np.random.default_rng(3)
    for ts in rng.permutation(100):
        db.put("m", {"h": "x"}, int(ts) * 600, float(ts))
    s = db.select("m")[0]
    lo, hi = 17 * 600, 63 * 600
    t_push, v_push = s.arrays(time_range=(lo, hi))
    t_full, v_full = s.arrays()
    m = (t_full >= lo) & (t_full < hi)
    assert np.array_equal(t_push, t_full[m])
    assert np.array_equal(v_push, v_full[m])


def test_per_metric_index_tracks_insert_and_prune():
    db = TimeSeriesDB()
    db.put("a", {"h": "x"}, 0, 1.0)
    db.put("a", {"h": "y"}, 0, 1.0)
    db.put("b", {"h": "x"}, 5000, 1.0)
    assert db.metrics() == ["a", "b"]
    assert len(db.select("a")) == 2
    # metric-filtered prune touches only 'a'; 'b' survives untouched
    assert db.prune(before=1000, metric="a") == 2
    assert db.metrics() == ["b"]
    assert db.select("a") == []
    assert len(db.select("b")) == 1
    assert db.tag_values("h") == ["x"]


def test_storage_bytes_shrink_after_seal():
    db = TimeSeriesDB(chunk_size=10**9)  # never auto-seal
    for i in range(1000):
        db.put("m", {"h": "x"}, i * 600, 1e9 + i * 1e5)
    raw = db.storage_bytes()
    assert raw == 16 * 1000              # head is uncompressed columns
    db.seal_heads()
    assert db.n_chunks() == 1
    assert db.storage_bytes() < raw / 2  # compression actually engaged
    t, v = _arrays(db, h="x")
    assert len(t) == 1000 and v[0] == 1e9


# -- batched scan + read caches (ISSUE 6) -------------------------------------

def _filled(chunk_size=8, n=40, hosts=("a", "b", "c"), **kw):
    db = TimeSeriesDB(chunk_size=chunk_size, **kw)
    for h in hosts:
        for i in range(n):
            db.put("m", {"host": h}, i * 600, float(i) + ord(h[0]))
    db.seal_heads()
    return db


def test_scan_matches_per_series_arrays():
    db = _filled()
    for time_range in (None, (600 * 5, 600 * 25), (10**9, 10**9 + 1)):
        for _ in range(2):  # cold, then through the buffer cache
            series = db.select("m")
            cols = db.scan(series, time_range)
            assert len(cols) == len(series)
            for s, (t, v) in zip(series, cols):
                rt, rv = s.arrays(time_range)
                assert np.array_equal(t, rt)
                assert np.array_equal(v, rv)


def test_drop_read_caches_forces_fresh_decode():
    db = _filled()
    # every scan, windowed or not, files its chunk decodes
    db.scan(db.select("m"), (600 * 2, 600 * 30))
    assert len(db.buffer_cache) > 0
    db.drop_read_caches()
    assert len(db.buffer_cache) == 0
    before = db.buffer_cache.misses
    db.scan(db.select("m"), None)
    assert db.buffer_cache.misses > before


def test_a_second_unwindowed_scan_hits_every_chunk_it_plans():
    """An unwindowed scan files its decodes in the buffer cache like a
    windowed one: a second scan of an unchanged store decodes nothing."""
    db = _filled()
    series = db.select("m")
    planned = sum(len(s.chunks) for s in series)
    assert planned > len(series)
    first = db.scan(series, None)
    bc = db.buffer_cache
    hits, misses = bc.hits, bc.misses
    again = db.scan(series, None)
    assert (bc.hits - hits, bc.misses - misses) == (planned, 0)
    for (t, v), (t2, v2) in zip(first, again):
        assert np.array_equal(t, t2) and np.array_equal(v, v2)


def test_prune_invalidates_buffer_cache_entries():
    """Decode-cache invalidation rule: chunk ids die with their chunks,
    so a pruned or resealed chunk can never serve stale columns."""
    db = _filled(chunk_size=8, n=32, hosts=("a",))
    db.scan(db.select("m"), (0, 600 * 32))  # windowed: fills buffer cache
    s = db.select("m")[0]
    cached_ids = set(db.buffer_cache._entries)
    assert {c.chunk_id for c in s.chunks} <= cached_ids
    horizon = 600 * 12  # kills one whole chunk, straddles another
    db.prune(horizon)
    live_ids = {c.chunk_id for c in s.chunks}
    assert all(
        cid in live_ids or cid not in db.buffer_cache._entries
        for cid in cached_ids
    )
    t, v = s.arrays()
    assert t[0] >= horizon
    # the resealed straddler got a fresh id and decodes correctly
    cols = db.scan(db.select("m"), None)
    assert np.array_equal(cols[0][0], t)


def test_scan_unordered_series_falls_back():
    db = TimeSeriesDB(chunk_size=4)
    for i in (0, 5, 3, 8, 2, 9, 1, 7, 6, 4):  # shuffled arrivals
        db.put("m", {"host": "a"}, i, float(i))
    db.seal_heads()
    s = db.select("m")[0]
    assert not s._ordered
    (t, v), = db.scan([s], (2, 8))
    assert np.array_equal(t, np.arange(2, 8))
    assert np.array_equal(v, np.arange(2, 8, dtype=np.float64))


def test_read_stats_counts_scan_activity():
    db = _filled()
    db.scan(db.select("m"), None)
    stats = db.read_stats()
    assert stats["buffer_cache"]["misses"] > 0
    db.scan(db.select("m"), None)
    # second scan is answered from the buffer cache: no new decode misses
    assert db.read_stats()["buffer_cache"]["misses"] == (
        stats["buffer_cache"]["misses"]
    )


# -- the scan plan on window edges (ISSUE 22) ---------------------------------

_SCAN_VALUES = st.one_of(
    st.integers(-40, 40).map(lambda i: i / 2),
    st.sampled_from([float("nan"), float("inf"), -0.0]),
)
#: per series, how far the next timestamp moves from the newest so far:
#: always forward, late and duplicate arrivals, duplicates only
_SCAN_STEPS = {
    "ordered": st.integers(1, 9),
    "late": st.integers(-7, 9),
    "dup": st.integers(0, 3),
}
_BUFFER_CACHES = {
    "default": dict,
    # every decode filed evicts the one before it
    "one": lambda: {"buffer_cache": BufferCache(maxsize=1)},
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cache=st.sampled_from(sorted(_BUFFER_CACHES)))
def test_scan_plan_equals_the_list_engine_on_window_edges(data, cache):
    """Windows that start or end inside a chunk, exactly on a chunk's
    ``t_min`` / ``t_max``, between chunks, empty, inverted and wider than
    the series — over in-order, out-of-order and duplicate-timestamp
    series, sealed or with open heads, before and after a prune re-seals
    a straddling chunk, with the buffer cache at its default and at one
    entry: bit-equal to the list engine, one cache lookup counted
    per chunk read, and nothing a scan returned is ever rewritten."""
    db = TimeSeriesDB(chunk_size=4, **_BUFFER_CACHES[cache]())
    oracle = ListBackedTSDB()
    newest = dict.fromkeys(_SCAN_STEPS, 100)

    def write(n):
        for kind, step in _SCAN_STEPS.items():
            for _ in range(n):
                ts = max(0, newest[kind] + data.draw(step))
                newest[kind] = max(newest[kind], ts)
                v = data.draw(_SCAN_VALUES)
                for store in (db, oracle):
                    store.put("m", {"s": kind}, ts, v)

    write(data.draw(st.integers(1, 14)))
    if data.draw(st.booleans()):
        db.seal_heads()
    if data.draw(st.booleans()):
        before = data.draw(st.integers(95, max(newest.values()) + 2))
        db.prune(before)
        oracle.prune(before)
    write(data.draw(st.integers(0, 5)))
    if data.draw(st.booleans()):
        db.seal_heads()

    def edges():
        out = {0, max(newest.values()) + 5}
        for s in db.select("m"):
            for c in s.chunks:
                out.update((c.t_min - 1, c.t_min, c.t_min + 1,
                            (c.t_min + c.t_max) // 2,
                            c.t_max - 1, c.t_max, c.t_max + 1))
            out.update(s.head()[0].tolist())
        return sorted(out)

    bc = db.buffer_cache
    held = []
    for _ in range(data.draw(st.integers(1, 5))):
        edge = st.sampled_from(edges())
        window = data.draw(st.none() | st.tuples(edge, edge))
        series, listed = db.select("m"), oracle.select("m")
        assert [s.tags for s in series] == [s.tags for s in listed]
        lookups = sum(
            1 for s in series for c in s.chunks
            if window is None
            or not (c.t_max < window[0] or c.t_min >= window[1])
        )
        counted = bc.hits + bc.misses
        got = db.scan(series, window)
        assert bc.hits + bc.misses - counted == lookups
        assert len(bc) <= bc.maxsize
        want = oracle.scan(listed, window)
        for s, (t, v), (wt, wv) in zip(series, got, want):
            assert (t.dtype, v.dtype) == (np.int64, np.float64)
            assert (t.tolist(), bits(v)) == (wt.tolist(), bits(wv)), (
                s.tags, window)
            at, av = s.arrays(window)    # the same plan, one series
            assert (at.tolist(), bits(av)) == (wt.tolist(), bits(wv))
            held.append((t, v, t.tolist(), bits(v)))
        if data.draw(st.booleans()):
            write(data.draw(st.integers(1, 5)))
    for t, v, t_was, v_was in held:
        assert (t.tolist(), bits(v)) == (t_was, v_was)


# -- series that share a chunk layout read as one run -------------------------

#: one point a minute; chunks of 8 cut every 480 s
_STEP, _N = 60, 40


def _mixed_layouts(stores):
    """Write into every store one metric whose series a scan has to read
    every way at once: four series with one layout (each written on
    its own, sealed at the same points), two written as a group slab,
    one with that layout plus open points, one with an out-of-order and
    a duplicate write, one whose chunks are cut at other points, and
    two irregular series (``t_step`` None) whose chunks have equal
    ``(t_min, count)`` but other timestamps inside."""
    rng = np.random.default_rng(5)
    t = np.arange(_N, dtype=np.int64) * _STEP

    def put_many(tags, times, values):
        for store in stores:
            store.put_many("m", tags, times, values)

    def seal():
        for store in stores:
            store.seal_heads()

    def values(n=_N):
        v = rng.normal(size=n)
        v[rng.random(n) < 0.1] = np.nan
        return v

    put_many({"s": "cut"}, t[:3], values(3))
    seal()  # a chunk of 3: every later chunk of "cut" starts elsewhere
    put_many({"s": "cut"}, t[3:], values(_N - 3))
    for h in "abcd":
        put_many({"s": "same", "h": h}, t, values())
    put_many({"s": "open"}, t, values())
    slab = values(2 * _N).reshape(_N, 2)
    for store in stores:
        tag_sets = [{"s": "slab", "h": h} for h in "xy"]
        if isinstance(store, TimeSeriesDB):  # one (n, 2) head block
            store.put_many("m", store.group("m", tag_sets), t, slab)
        else:
            for tags, column in zip(tag_sets, slab.T):
                store.put_many("m", tags, t, column)
    put_many({"s": "late"}, t, values())
    jitter = np.arange(_N) % 3 == 1
    put_many({"s": "irr", "h": "1"}, t + np.where(jitter, 7, 0), values())
    put_many({"s": "irr", "h": "2"}, t + np.where(jitter, 9, 0), values())
    seal()
    put_many({"s": "open"}, t[-1] + _STEP * np.arange(1, 4), values(3))
    put_many({"s": "late"}, [t[5] + 1, t[7]], values(2))  # late, duplicate


def _layout_windows(db):
    """Windows at, inside and beyond chunk edges, empty and inverted
    ones, and the whole series."""
    edges = {-100, 10**6}
    for s in db.select("m"):
        for c in s.chunks:
            edges.update((c.t_min - 1, c.t_min, c.t_min + 1,
                          c.t_max, c.t_max + 1))
    edges = sorted(edges)
    return ([(a, b) for a, b in zip(edges, edges[3:])]
            + [(0, 0), (500, 400), (-100, 10**6), None])


@pytest.mark.parametrize("cache", sorted(_BUFFER_CACHES))
def test_a_scan_of_mixed_layouts_equals_the_list_engine(cache):
    """Every series of a mixed-layout scan is bit-equal to the list
    engine, on every window, cold, through the buffer cache and after
    the unwindowed scan memoised the columns; read from chunks, the
    series that share a layout come back on one time column, and
    nobody else joins them."""
    db = TimeSeriesDB(chunk_size=8, **_BUFFER_CACHES[cache]())
    oracle = ListBackedTSDB()
    _mixed_layouts([db, oracle])
    series, listed = db.select("m"), oracle.select("m")
    assert [s.tags for s in series] == [s.tags for s in listed]
    kinds = [s.tags["s"] for s in series]
    for memoised in (False, True):
        for window in _layout_windows(db):
            got = db.scan(series, window)
            want = oracle.scan(listed, window)
            for kind, (t, v), (wt, wv) in zip(kinds, got, want):
                assert (t.dtype, v.dtype) == (np.int64, np.float64)
                assert (t.tolist(), bits(v)) == (wt.tolist(), bits(wv)), (
                    kind, window)
            shared = {id(t) for k, (t, _) in zip(kinds, got)
                      if k in ("same", "slab") and len(t)}
            others = {id(t) for k, (t, _) in zip(kinds, got)
                      if k not in ("same", "slab") and len(t)}
            if not memoised and window is not None and shared:
                assert len(shared) == 1 and not shared & others, window


@pytest.mark.parametrize("shards,workers", [(1, 0), (3, 0), (1, 1), (3, 1)])
def test_a_sharded_scan_of_mixed_layouts_equals_the_store(shards, workers):
    """The same through the shard coordinator, in process and over the
    worker pipe, where a run's rows leave a shard as views of one
    block: every column, and every query over them, is the store's."""
    db = TimeSeriesDB(chunk_size=8)
    sharded = ShardedTSDB(shards=shards, workers=workers, chunk_size=8)
    try:
        _mixed_layouts([db, sharded])
        series, handles = db.select("m"), sharded.select("m")
        assert [h.key for h in handles] == [s.key[1] for s in series]
        for window in _layout_windows(db):
            got = sharded.scan(handles, window)
            for (t, v), (wt, wv) in zip(got, db.scan(series, window)):
                assert (t.tolist(), bits(v)) == (wt.tolist(), bits(wv)), (
                    window)
            kw = {"group_by": ("s",), "downsample": (120, "avg"),
                  "time_range": window}
            ra, rb = sharded.query("m", **kw), db.query("m", **kw)
            assert len(ra) == len(rb), window
            for a, b in zip(ra.series, rb.series):
                assert (a.tags, a.times.tolist(), bits(a.values)) == (
                    b.tags, b.times.tolist(), bits(b.values)), window
    finally:
        sharded.close()
