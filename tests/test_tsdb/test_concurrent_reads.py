"""Concurrent readers over one store whose buffer cache holds two chunks.

``window_stats`` and ``query`` share the store's one read step: the
chunks a call reads are looked up in one ``get_many`` and held from
then on, so another reader's decodes may evict them at any moment
without changing an answer.  Here K threads run both entry points over
overlapping windows of one store with ``BufferCache(maxsize=2)`` — so
nearly every call evicts what another is about to fold — and every
answer must equal the same call made serially, floats compared by
their bytes.  Each call clears the result cache first, so it runs
the read path rather than answering from another call's result.
"""

import struct
import sys
import threading

import numpy as np

from repro.tsdb import BufferCache, TimeSeriesDB, window_stats
from repro.tsdb.query import query

K_THREADS = 8
ROUNDS = 4
STEP = 600
CHUNK = 16


def _store() -> TimeSeriesDB:
    db = TimeSeriesDB(chunk_size=CHUNK, buffer_cache=BufferCache(maxsize=2))
    rng = np.random.default_rng(11)
    t = np.arange(150, dtype=np.int64) * STEP
    for h in range(12):
        v = rng.normal(size=len(t))
        v[rng.integers(0, len(t), 4)] = np.nan
        if h % 4 == 3:  # out of order, with a rewrite: the merge path
            tt = t.copy()
            tt[[20, 21]] = tt[[21, 20]]
            db.put_many("m", {"host": f"h{h:02d}"}, tt, v)
            db.put("m", {"host": f"h{h:02d}"}, int(t[40]), 7.5)
        else:  # sealed chunks plus an open head
            db.put_many("m", {"host": f"h{h:02d}"}, t, v)
    return db


def _calls():
    """Overlapping windows: cut through chunks, cover some whole, and
    reach into the open heads."""
    windows = [None] + [
        (lo * STEP + off, hi * STEP + off)
        for lo, hi in ((0, 40), (10, 70), (30, 31), (50, 149), (5, 120))
        for off in (0, 7)
    ]
    return [(kind, w) for w in windows for kind in ("ws", "q")]


def _run(db, call):
    kind, w = call
    db.cache.clear()  # compute, do not answer from a filed result
    if kind == "ws":
        return [
            (
                sorted(st.tags.items()), st.points, st.count,
                struct.pack(
                    "<5d", st.sum, st.min, st.max, st.first, st.last
                ),
                st.first_ts, st.last_ts,
            )
            for st in window_stats(db, "m", time_range=w)
        ]
    res = query(db, "m", group_by=("host",), time_range=w)
    return [
        (sorted(s.tags.items()), s.times.tobytes(), s.values.tobytes())
        for s in res.series
    ]


def test_concurrent_window_stats_and_query_equal_serial():
    db = _store()
    calls = _calls()
    want = [_run(db, c) for c in calls]
    start = threading.Barrier(K_THREADS)
    errors = []

    def reader(tid):
        try:
            start.wait()
            for r in range(ROUNDS):
                for i in range(len(calls)):
                    k = (i + 5 * tid + r) % len(calls)  # per-thread order
                    got = _run(db, calls[k])
                    if got != want[k]:
                        errors.append((tid, calls[k]))
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(K_THREADS)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand over mid-read as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    bc = db.buffer_cache
    assert len(bc) <= 2
    assert bc.misses > 0 and bc.hits > 0  # the cache was really contended
