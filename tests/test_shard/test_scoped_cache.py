"""The sharded store's result cache: kept across the writes that miss.

A cached ``query`` and a cached ``window_stats`` through
:class:`~repro.shard.ShardedTSDB` must equal, bit for bit, the same
read recomputed with the result cache emptied — after a write that
misses their window, one that lands in it, an ``ingest`` and (with a
worker process to restart) a ``respawn``, at ``workers=0`` and
``workers=1`` — where the coordinator, which cannot see a series made or
put out of order in a worker, files a write as touching its whole
metric.  A live feed writes straight into the in-process shard
stores; that case is in ``test_stream_shard.py``.  Each step also pins
which reads the cache answered, so a cache that never kept anything
would fail here too.
"""

import numpy as np
import pytest

from repro.shard import ShardedTSDB, StoreSource

from .conftest import CHUNK_SIZE, TYPES


def _bits(value):
    """Bytes-exact form of a query result or a ``window_stats`` list."""
    if hasattr(value, "series"):
        return [(s.tags, s.times.tobytes(), np.asarray(s.values).tobytes())
                for s in value.series]
    return [(s.tags, s.points, s.count, s.first_ts, s.last_ts, np.array(
        [s.sum, s.min, s.max, s.first, s.last]).tobytes()) for s in value]


class Reads:
    """Two windows — the day's first third, and everything from the
    last hour on — each read as a rate query and as ``window_stats``."""

    def __init__(self, db, t0, t1):
        self.db = db
        self.windows = {
            "early": (t0, t0 + (t1 - t0) // 3),
            "tail": (t1 - 3600, t1 + 10**6),
        }

    def _read(self, kind, window):
        if kind == "query":
            return self.db.query("stats", group_by=("host",), rate=True,
                                 time_range=window)
        return self.db.window_stats("stats", time_range=window)

    def check(self, kept):
        """Every read equals its recompute; the cache answered exactly
        the reads of the windows named in ``kept``."""
        cache, answered, got = self.db.cache, set(), {}
        for name, window in self.windows.items():
            for kind in ("query", "stats"):
                hits = cache.hits
                got[name, kind] = _bits(self._read(kind, window))
                if cache.hits > hits:
                    answered.add(name)
        cache.clear()
        for (name, kind), bits in got.items():
            assert _bits(self._read(kind, self.windows[name])) == bits, (
                name, kind)
        assert answered == set(kept)
        return got


@pytest.mark.parametrize("workers", [0, 1])
def test_cached_reads_equal_recomputes_across_every_mutation(
        fleet_day, workers):
    source = StoreSource(fleet_day.store.root)
    hosts = source.hosts()
    with ShardedTSDB(shards=3, workers=workers,
                     chunk_size=CHUNK_SIZE) as db:
        db.ingest(source, hosts=hosts[:4], types=TYPES)
        times = np.concatenate(
            [t for t, _ in db.scan(db.select("stats"))])
        t0, t1 = int(times.min()), int(times.max())
        reads = Reads(db, t0, t1)
        reads.check(kept=())
        series = {"host": hosts[0], "type": "x", "device": "0",
                  "event": "e"}
        # another metric, in every window
        db.put_many("other", series, [t0, t1], [1.0, 2.0])
        reads.check(kept={"early", "tail"})
        # a new series touches the whole metric: window_stats gains a row
        db.put_many("stats", series, [t1 + 5 * 10**6], [1.0])
        reads.check(kept=())
        # a write newer than both windows and than its series; a worker
        # process's store says nothing of its series, so there it
        # touches the whole metric
        db.put_many("stats", series, [t1 + 6 * 10**6], [2.0])
        reads.check(kept=() if workers else {"early", "tail"})
        # one into the tail window, older than what its series holds:
        # out of order, so it touches the whole metric
        db.put("stats", series, t1 + 60, 3.0)
        reads.check(kept=())
        # in order, into the tail window only
        tail = dict(series, event="f")
        db.put_many("stats", tail, [t1 + 120], [5.0])
        reads.check(kept=())
        db.put_many("stats", tail, [t1 + 180, t1 + 240], [6.0, 7.0])
        reads.check(kept=() if workers else {"early"})

        db.ingest(source, hosts=hosts[4:], types=TYPES)
        before = reads.check(kept=())
        if workers:
            db.respawn(0)  # every shard of the one worker, empty again
            assert reads.check(kept=()) != before


def test_no_stale_hit_while_a_feed_writes_the_shard_stores():
    """Readers race a writer that appends straight into the in-process
    shard stores, as a sharded live feed does — half its points inside
    the read window, half after it.  A reader that starts after ``n``
    in-window points were written must see at least ``n``: a result
    kept across a write it should not have survived would show fewer."""
    import sys
    import threading
    import time

    db = ShardedTSDB(shards=3)
    window = (0, 10**6)
    hosts = [f"h{i}" for i in range(6)]
    for h in hosts:
        db.put_many("m", {"host": h, "k": "in"}, [0], [0.0])
        db.put_many("m", {"host": h, "k": "out"}, [2 * 10**6], [0.0])
    stores = db.backend.stores
    written = [0]  # in-window points written, read by every reader
    stop, failures = threading.Event(), []

    def writer():
        t = 1
        while not stop.is_set():
            for h in hosts:
                store = stores[db.map.place_tags("m", {"host": h})]
                for _ in range(3):  # mostly after the window
                    store.put("m", {"host": h, "k": "out"}, 2 * 10**6 + t, 1.0)
                    t += 1
                store.put("m", {"host": h, "k": "in"}, t, 1.0)
                written[0] += 1
            t += 1

    def reader():
        try:
            while not stop.is_set():
                floor = written[0]
                got = sum(s.points for s in db.window_stats(
                    "m", time_range=window) if s.tags["k"] == "in")
                assert got - len(hosts) >= floor, (got, floor)
                floor = written[0]
                res = db.query("m", tags={"k": "in"}, group_by=("host",),
                               time_range=window)
                got = sum(len(s.times) for s in res.series)
                assert got - len(hosts) >= floor, (got, floor)
        except Exception as exc:  # noqa: BLE001 - the assertion itself
            failures.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)]
        for th in threads:
            th.start()
        time.sleep(1.5)
        stop.set()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert failures == []
    assert written[0] > 0 and db.cache.hits > 0
