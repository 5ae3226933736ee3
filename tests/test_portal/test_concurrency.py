"""Concurrent portal access over a live store while a writer appends.

The ISSUE-8 hammer: ≥8 threads cycling mixed routes against one
PortalApp whose TSDB is being written to concurrently, asserting

* no exceptions escape any route (a 4xx/5xx *Response* is fine, an
  uncaught exception is not),
* responses for routes backed by immutable state (the job DB) are
  bit-identical to a serial render,
* cache accounting stays consistent: every lookup is either a hit or
  a miss, even interleaved (hits + misses == lookups).
"""

import sys
import threading

import numpy as np
import pytest

from repro.analysis.popgen import generate_population
from repro.db import BooleanField, Database, IntegerField, Model, TextField
from repro.db.fields import JSONField
from repro.pipeline.records import JobRecord
from repro.portal.app import PortalApp
from repro.tsdb import TimeSeriesDB
from repro.tsdb.cache import BufferCache, QueryCache

N_THREADS = 8
ROUNDS = 6


class _FakeAlerts:
    def __init__(self):
        self.ledger = []
        self.suppressed = 0

    def recent(self, n):
        return []


class _FakeAnalyzer:
    inflight = 0


class _FakeStream:
    """The minimal stream surface /tsdb and /fleet need."""

    def __init__(self, tsdb):
        self.tsdb = tsdb
        self.metric = "stats"
        self.samples = 0
        self.analyzer = _FakeAnalyzer()
        self.alerts = _FakeAlerts()


def _seed_tsdb(tsdb, hosts=4, points=512):
    for h in range(hosts):
        t = (np.arange(points) * 60).tolist()
        v = (np.arange(points, dtype=float) * (h + 1)).tolist()
        tsdb.put_many("stats", {"host": f"n{h}"}, t, v)


@pytest.fixture()
def live_app():
    db = Database()
    generate_population(db, 300, seed=33)
    JobRecord.bind(db)
    tsdb = TimeSeriesDB()
    _seed_tsdb(tsdb)
    return PortalApp(db, stream=_FakeStream(tsdb)), tsdb


def _mixed_paths(jobids):
    return [
        "/",
        "/search?status=COMPLETED",
        "/search?min_runtime=600",
        "/date/2015-10-15",
        "/fleet",
        "/tsdb",
        "/tsdb?group_by=host&downsample=600:avg",
        "/tsdb?agg=avg&rate=1",
    ] + [f"/job/{j}" for j in jobids]


def test_hammer_mixed_routes_with_live_writer(live_app):
    app, tsdb = live_app
    jobids = [r.jobid for r in JobRecord.objects.all()[:4]]
    paths = _mixed_paths(jobids)
    # the DB is immutable during the run: these must render
    # bit-identically no matter what the TSDB writer does
    stable = [p for p in paths if not p.startswith(("/tsdb", "/fleet"))]
    serial = {p: app.get_url(p).body for p in stable}

    cache = tsdb.cache
    lookups = []  # list.append is atomic: a thread-safe tally
    orig_get = cache.get

    def counted_get(key, epoch, unchanged=None):
        lookups.append(None)
        return orig_get(key, epoch, unchanged)

    cache.get = counted_get
    hits0, misses0 = cache.hits, cache.misses

    stop = threading.Event()
    failures = []

    def writer():
        t = 512 * 60
        while not stop.is_set():
            tsdb.put("stats", {"host": "n0"}, t, float(t))
            t += 60

    def reader(tid):
        try:
            for r in range(ROUNDS):
                for p in paths:
                    resp = app.get_url(p)
                    assert resp.status in (200, 400, 404), (p, resp.status)
                    if p in serial:
                        assert resp.body == serial[p], p
        except Exception as exc:  # noqa: BLE001 - the assertion itself
            failures.append((tid, repr(exc)))

    w = threading.Thread(target=writer, daemon=True)
    w.start()
    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    stop.set()
    w.join(timeout=10)
    cache.get = orig_get

    assert failures == []
    assert not any(t.is_alive() for t in threads)
    # every lookup resolved to exactly one of hit/miss
    assert (cache.hits - hits0) + (cache.misses - misses0) == len(lookups)


def test_hammer_responses_identical_after_writer_stops(live_app):
    """Once writes stop, concurrent /tsdb renders converge bit-identically.

    The footer's live cache-hit counter is the one legitimate
    difference between renders of identical data, so it is normalised
    out before comparing.
    """
    import re

    app, tsdb = live_app
    path = "/tsdb?group_by=host&downsample=600:avg"

    def render(p):
        return re.sub(r"cache \d+/\d+ hits", "cache N hits",
                      app.get_url(p).body)

    want = render(path)
    bodies = [None] * N_THREADS

    def reader(i):
        bodies[i] = render(path)

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert all(b == want for b in bodies)


def test_first_hydration_of_a_model_from_many_threads():
    """The hydration plan of a result shape is compiled on first use
    and kept on the model class: 8 pool threads reading a model nobody
    has read yet must each get every row right and leave one plan."""

    class Fresh(Model):
        table_name = "fresh"
        name = TextField()
        rank = IntegerField(default=0)
        live = BooleanField(default=False)
        extra = JSONField(null=True)

    db = Database()
    Fresh.bind(db)
    Fresh.create_table()
    Fresh.objects.bulk_create([
        Fresh(name=f"r{i}", rank=i, live=bool(i % 2), extra={"i": [i]})
        for i in range(50)
    ])
    want = [(f"r{i}", i, bool(i % 2), {"i": [i]}) for i in range(50)]
    assert Fresh._hydrators == {}

    def race(read):
        barrier = threading.Barrier(N_THREADS)
        got = [None] * N_THREADS
        failures = []

        def reader(tid):
            try:
                barrier.wait(timeout=30)
                got[tid] = read()
            except Exception as exc:  # noqa: BLE001
                failures.append((tid, repr(exc)))

        threads = [
            threading.Thread(target=reader, args=(i,))
            for i in range(N_THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        return got

    got = race(lambda: [
        (r.name, r.rank, r.live, r.extra)
        for r in Fresh.objects.all().order_by("rank")
    ])
    assert all(rows == want for rows in got)
    assert len(Fresh._hydrators) == 1
    # one more shape: a projection nobody has read yet compiles its own
    # plan beside the full one, and the race again leaves one of it
    got = race(lambda: [
        vars(r) for r in Fresh.objects.all().order_by("rank")
        .only("extra", "live")
    ])
    assert all(rows == [
        {"id": i + 1, "live": live, "extra": extra}
        for i, (_, _, live, extra) in enumerate(want)
    ] for rows in got)
    assert len(Fresh._hydrators) == 2


# -- direct cache hammers --------------------------------------------------

def test_query_cache_thread_safety():
    cache = QueryCache(maxsize=32)
    errors = []

    def worker(tid):
        try:
            for i in range(2000):
                key = ("q", (tid + i) % 64)
                if cache.get(key, epoch=i % 3) is None:
                    cache.put(key, i % 3, ("result", tid, i))
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert errors == []
    assert len(cache) <= 32
    assert cache.hits + cache.misses == N_THREADS * 2000


def test_buffer_cache_thread_safety():
    cache = BufferCache(maxsize=64)
    t = np.arange(4)
    v = np.arange(4.0)
    errors = []

    def worker(tid):
        try:
            for i in range(2000):
                cid = (tid * 7 + i) % 128
                if cache.get_many([cid]) == [None]:
                    cache.put_many([(cid, (t, v))])
                if i % 100 == 0:
                    cache.invalidate([cid])
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
    ]
    for t_ in threads:
        t_.start()
    for t_ in threads:
        t_.join(timeout=60)
    assert errors == []
    assert len(cache) <= 64
    assert cache.hits + cache.misses == N_THREADS * 2000
