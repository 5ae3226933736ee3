"""CI gates for the chunked columnar TSDB storage engine.

Four promises back the engine, each measured against the retained
list-backed reference (:mod:`tests.test_tsdb.reference`) on one
deterministic counter corpus and recorded in ``BENCH_tsdb.json`` for
the artifact upload:

* **write throughput** — batched :meth:`TimeSeriesDB.put_many` must
  land points at ≥3× the rate of per-point :meth:`put` on the same
  engine (the ISSUE 5 bar; in practice it is far higher).  The batched
  fill takes a few milliseconds, so it is timed as the best of
  ``WRITE_REPEATS`` fresh stores: one scheduler stall must not decide
  the ratio;
* **compression** — sealed chunks must hold the corpus at ≤8
  bytes/point, at least 4 bytes/point under the 16 B/point raw
  columns (constant-cadence timestamp elision + XOR values);
* **cold reads** — over the portal-session battery (fleet summary,
  plot queries, dashboard aggregates — every query issued against
  dropped read caches) the chunked engine's p50 must be ≥5× faster
  than the list baseline and its p99 must not exceed the list p99.
  Grid-style aggregation queries alone are additionally gated at
  "never slower than the list engine" (PR 5 allowed 1.3×);
* **result cache** — warm repeats of the same battery must answer at
  least 5× faster than computing;
* **batched seal** — :func:`~repro.tsdb.chunks.seal_many` over a
  rack-day's worth of 144-point heads must encode ≥3× the chunks/s of
  one ``Chunk.seal`` call per head (512-point heads are recorded, not
  gated);
* **store scaling** — a host-pinned ``select``, the same with
  ``type=cpu``, and a ``seal_heads`` with nothing open must cost at
  most 2× as much on a store of 21 120 series as on one of 2 112 (a
  same-process ratio, so it travels across machines): a read or a seal
  costs what it touches, not what the store holds;
* **one read step** — a ``window_stats`` over 64 series, half of them
  written out of order, makes at most 2 ``BufferCache.get_many`` and
  2 ``decode_concat`` calls, and the same on twice the series and
  twice the chunks (counts, so they travel across machines);
* **one slab per head block** — a ``window_stats`` over one host's
  33-series head block and a ``seal_heads`` of a bench-shaped rack
  (8 such blocks of 144 points) each make at most their recorded
  number of Python calls + 15 % (cProfile counts); microseconds a slab
  are reported beside them, not gated.

Cold here means *truly* cold: :meth:`TimeSeriesDB.drop_read_caches`
(chunked) / per-series ``drop_read_cache`` (list) run before every
single query, so the chunked side pays full decode and the list side
pays full re-materialisation — neither engine smuggles warm arrays
into the measurement.  The list side runs the frozen pre-vectorisation
query path (:func:`~tests.test_tsdb.reference.baseline_query`) plus a plain
materialise-and-reduce loop for the summary queries, i.e. exactly what
the engine did before this work.

Wall-time numbers (points/s, p50/p95/p99 µs) are hardware-dependent
and reported for trend tracking; the gates above are the hard
assertions.
"""

import cProfile
import pstats
import time
from pathlib import Path

import numpy as np

from benchmarks._support import record_bench, report
from repro import obs
from repro.tsdb import TimeSeriesDB, window_stats
from tests.test_tsdb.reference import ListBackedTSDB, baseline_query
from repro.tsdb.chunks import Chunk, seal_many
from repro.tsdb.query import query

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_tsdb.json"

#: corpus shape: 2 simulated days at 600 s cadence across a small fleet
HOSTS = 8
EVENTS = 8
POINTS = 2 * 86400 // 600  # 288 samples per series
RAW_BYTES_PER_POINT = 16.0  # one int64 + one float64
T0 = 1_400_000_000

#: gates
WRITE_SPEEDUP_FLOOR = 3.0
BYTES_PER_POINT_CEILING = 8.0
COLD_SPEEDUP_FLOOR = 5.0
GRID_PARITY_MARGIN = 1.0  # grid queries may never be slower than list
CACHE_SPEEDUP_FLOOR = 5.0

SEAL_SPEEDUP_FLOOR = 3.0  # seal_many vs per-chunk, 144-point heads

#: repeats of the 5-query portal battery
ROUNDS = 30
#: fresh stores the batched fill is timed on (best of)
WRITE_REPEATS = 3


def _corpus():
    """Deterministic per-series columns: cadenced Lustre-ish counters."""
    rng = np.random.default_rng(20151001)
    times = np.arange(POINTS, dtype=np.int64) * 600 + T0
    out = []
    for h in range(HOSTS):
        for e in range(EVENTS):
            values = np.cumsum(
                rng.integers(0, 200_000, size=POINTS).astype(np.float64)
            ) + 1e9 * (h + 1)
            tags = {
                "host": f"n{h:03d}", "type": "llite",
                "device": "scratch", "event": f"ev{e}",
            }
            out.append((tags, times, values))
    return out


def _fill_per_point(db, corpus):
    t0 = time.perf_counter()
    for tags, times, values in corpus:
        for ts, val in zip(times.tolist(), values.tolist()):
            db.put("stats", tags, ts, val)
    return time.perf_counter() - t0


def _fill_batched(db, corpus):
    t0 = time.perf_counter()
    for tags, times, values in corpus:
        db.put_many("stats", tags, times, values)
    return time.perf_counter() - t0


# -- the portal-session battery ----------------------------------------------
#
# One round = the reads behind one portal session: the /fleet page's
# summary tables (window_stats — answered from sealed pre-aggregates
# on the chunked engine), a per-host plot page, and the dashboard's
# fleet-wide aggregation panels.  Every query runs cold.

def _list_window_stats(ldb, metric, tags=None, time_range=None):
    """Fleet summary on the list engine: materialise + reduce."""
    out = []
    for s in ldb.select(metric, tags):
        t, v = s.arrays(time_range)
        cnt = int(np.count_nonzero(~np.isnan(v)))
        with np.errstate(all="ignore"):
            out.append((
                s.tags, len(v), cnt, float(np.nansum(v)),
                float(np.nanmin(v)) if cnt else float("nan"),
                float(np.nanmax(v)) if cnt else float("nan"),
            ))
    return out


_SPAN = (T0 + 600 * POINTS // 4, T0 + 600 * POINTS // 2)

#: (name, kind, kwargs); kind selects the API on each engine
BATTERY = [
    ("summary_event", "stats", dict(tags={"event": "ev0"})),
    ("plot_host", "grid", dict(tags={"host": "n003"}, group_by=("event",))),
    ("summary_fleet", "stats", dict()),
    ("fleet_rate", "grid", dict(group_by=("host",), rate=True)),
    ("fleet_downsample", "grid", dict(rate=True, downsample=(3600, "avg"))),
]
GRID_QUERIES = [name for name, kind, _ in BATTERY if kind == "grid"]


def _run_battery_chunked(db, rounds=ROUNDS, drop=True):
    """Per-query wall µs, keyed by battery entry name."""
    lat = {name: [] for name, _, _ in BATTERY}
    for _ in range(rounds):
        for name, kind, kw in BATTERY:
            if drop:
                db.drop_read_caches()
            t0 = time.perf_counter()
            if kind == "grid":
                res = query(db, "stats", **kw)
                assert res.series
            else:
                assert window_stats(db, "stats", **kw)
            lat[name].append((time.perf_counter() - t0) * 1e6)
    return lat


def _run_battery_list(ldb, rounds=ROUNDS):
    lat = {name: [] for name, _, _ in BATTERY}
    for _ in range(rounds):
        for name, kind, kw in BATTERY:
            for s in ldb.select("stats"):
                s.drop_read_cache()
            t0 = time.perf_counter()
            if kind == "grid":
                res = baseline_query(ldb, "stats", **kw)
                assert res.series
            else:
                assert _list_window_stats(ldb, "stats", **kw)
            lat[name].append((time.perf_counter() - t0) * 1e6)
    return lat


def _pooled(lat, names=None):
    pool = []
    for name, vals in lat.items():
        if names is None or name in names:
            pool.extend(vals)
    return np.sort(np.asarray(pool))


def _p(lat, q):
    return float(lat[min(len(lat) - 1, int(q * len(lat)))])


def test_tsdb_engine_gates():
    obs.reset()
    corpus = _corpus()
    n_total = sum(len(t) for _, t, _ in corpus)

    # -- write path ---------------------------------------------------------
    per_point_db = TimeSeriesDB()
    per_point_s = _fill_per_point(per_point_db, corpus)
    batched_s = float("inf")
    for _ in range(WRITE_REPEATS):
        batched_db = TimeSeriesDB()
        batched_s = min(batched_s, _fill_batched(batched_db, corpus))
    list_db = ListBackedTSDB()
    list_s = _fill_per_point(list_db, corpus)
    assert per_point_db.n_points() == batched_db.n_points() == n_total

    per_point_rate = n_total / per_point_s
    batched_rate = n_total / batched_s
    write_speedup = batched_rate / per_point_rate

    # -- at-rest size -------------------------------------------------------
    batched_db.seal_heads()
    bytes_per_point = batched_db.storage_bytes() / batched_db.n_points()

    # -- cold reads ---------------------------------------------------------
    lat_chunked = _run_battery_chunked(batched_db)
    lat_list = _run_battery_list(list_db)
    cold = _pooled(lat_chunked)
    cold_list = _pooled(lat_list)
    grid = _pooled(lat_chunked, GRID_QUERIES)
    grid_list = _pooled(lat_list, GRID_QUERIES)
    preagg_skips = batched_db.preagg_chunks_skipped

    # -- warm reads (result cache) ------------------------------------------
    cached_db = TimeSeriesDB(chunk_size=batched_db.chunk_size)
    _fill_batched(cached_db, corpus)
    cached_db.seal_heads()
    _run_battery_chunked(cached_db, rounds=1, drop=False)  # populate
    lat_cached = _run_battery_chunked(cached_db, drop=False)
    warm = _pooled(lat_cached)

    cold_speedup = _p(cold_list, 0.50) / _p(cold, 0.50)
    payload = {
        "scenario": (
            f"{HOSTS * EVENTS} series x {POINTS} points "
            f"(2 days @ 600 s), counter-style values; portal-session "
            f"battery (2 summaries, 1 plot, 2 fleet aggregates), every "
            f"query against dropped read caches"
        ),
        "points": n_total,
        "write_per_point_points_per_s": round(per_point_rate),
        "write_put_many_points_per_s": round(batched_rate),
        "write_list_baseline_points_per_s": round(n_total / list_s),
        "write_speedup_put_many": round(write_speedup, 2),
        "write_speedup_floor": WRITE_SPEEDUP_FLOOR,
        "bytes_per_point_at_rest": round(bytes_per_point, 3),
        "bytes_per_point_raw": RAW_BYTES_PER_POINT,
        "bytes_per_point_ceiling": BYTES_PER_POINT_CEILING,
        "compression_ratio": round(RAW_BYTES_PER_POINT / bytes_per_point, 2),
        "chunks": batched_db.n_chunks(),
        "query_p50_us_chunked": round(_p(cold, 0.50), 1),
        "query_p95_us_chunked": round(_p(cold, 0.95), 1),
        "query_p99_us_chunked": round(_p(cold, 0.99), 1),
        "query_p50_us_list": round(_p(cold_list, 0.50), 1),
        "query_p95_us_list": round(_p(cold_list, 0.95), 1),
        "query_p99_us_list": round(_p(cold_list, 0.99), 1),
        "query_cold_speedup_p50": round(cold_speedup, 2),
        "query_cold_speedup_floor": COLD_SPEEDUP_FLOOR,
        "query_grid_p50_us_chunked": round(_p(grid, 0.50), 1),
        "query_grid_p99_us_chunked": round(_p(grid, 0.99), 1),
        "query_grid_p50_us_list": round(_p(grid_list, 0.50), 1),
        "query_grid_p99_us_list": round(_p(grid_list, 0.99), 1),
        "query_p50_us_cached": round(_p(warm, 0.50), 1),
        "query_by_class_p50_us_chunked": {
            name: round(float(np.median(vals)), 1)
            for name, vals in lat_chunked.items()
        },
        "query_by_class_p50_us_list": {
            name: round(float(np.median(vals)), 1)
            for name, vals in lat_list.items()
        },
        "preagg_chunks_skipped": int(preagg_skips),
        "grid_parity_margin": GRID_PARITY_MARGIN,
        "cache_speedup_floor": CACHE_SPEEDUP_FLOOR,
    }
    record_bench(BENCH_JSON, "engine_gates", payload)
    report("tsdb engine (chunked columnar vs list baseline)", [
        ("write put()", f"{per_point_rate:,.0f} pts/s", "chunked engine"),
        ("write put_many()", f"{batched_rate:,.0f} pts/s",
         f"{write_speedup:.1f}x (floor {WRITE_SPEEDUP_FLOOR}x)"),
        ("at rest", f"{bytes_per_point:.2f} B/pt",
         f"raw {RAW_BYTES_PER_POINT:.0f} B/pt, "
         f"ceiling {BYTES_PER_POINT_CEILING:.0f}"),
        ("cold p50/p95/p99", f"{_p(cold, .5):,.0f}/{_p(cold, .95):,.0f}/"
         f"{_p(cold, .99):,.0f} us",
         f"list {_p(cold_list, .5):,.0f}/{_p(cold_list, .95):,.0f}/"
         f"{_p(cold_list, .99):,.0f} us"),
        ("cold p50 speedup", f"{cold_speedup:.1f}x",
         f"floor {COLD_SPEEDUP_FLOOR:.0f}x"),
        ("grid-only p50", f"{_p(grid, .5):,.0f} us",
         f"list {_p(grid_list, .5):,.0f} us"),
        ("preagg skips", f"{preagg_skips}", "chunk decodes avoided"),
        ("cached p50", f"{_p(warm, .5):,.0f} us",
         f"hit ratio {cached_db.cache.hit_ratio:.2f}"),
    ], ["measure", "value", "detail"])
    obs.reset()

    assert write_speedup >= WRITE_SPEEDUP_FLOOR, (
        f"put_many is only {write_speedup:.2f}x per-point put "
        f"(floor {WRITE_SPEEDUP_FLOOR}x)"
    )
    assert bytes_per_point <= BYTES_PER_POINT_CEILING, (
        f"{bytes_per_point:.2f} B/point at rest exceeds the "
        f"{BYTES_PER_POINT_CEILING} B/point ceiling"
    )
    assert bytes_per_point <= RAW_BYTES_PER_POINT - 4.0, (
        "compression saves less than 4 B/point over raw columns"
    )
    assert cold_speedup >= COLD_SPEEDUP_FLOOR, (
        f"cold battery p50 is only {cold_speedup:.2f}x the list "
        f"baseline (floor {COLD_SPEEDUP_FLOOR}x): "
        f"{_p(cold, .5):.0f} us vs {_p(cold_list, .5):.0f} us"
    )
    assert _p(cold, 0.99) <= _p(cold_list, 0.99), (
        f"chunked cold p99 {_p(cold, .99):.0f} us exceeds the list "
        f"baseline p99 {_p(cold_list, .99):.0f} us"
    )
    assert _p(grid, 0.50) <= GRID_PARITY_MARGIN * _p(grid_list, 0.50), (
        f"grid query p50 {_p(grid, .5):.0f} us regressed past "
        f"{GRID_PARITY_MARGIN}x the list baseline {_p(grid_list, .5):.0f} us"
    )
    assert preagg_skips > 0, (
        "the summary queries never skipped a chunk decode — "
        "pre-aggregates are not engaging"
    )
    assert _p(warm, 0.50) * CACHE_SPEEDUP_FLOOR <= _p(cold, 0.50), (
        "result-cache hits are not meaningfully faster than computing"
    )


# -- batched seal --------------------------------------------------------------

#: heads per call: one benchmark rack (8 hosts x 264 series) of day heads
SEAL_HEADS = 2112


def _best_seconds(fn, repeats=5, reset=None):
    """Best wall seconds of ``fn()``; ``reset()``, if given, runs before
    each call, outside the timer."""
    best = float("inf")
    for _ in range(repeats):
        if reset is not None:
            reset()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_seal_many_gate():
    rng = np.random.default_rng(20151001)
    payload = {"heads": SEAL_HEADS, "speedup_floor_144": SEAL_SPEEDUP_FLOOR}
    rows = []
    for n in (144, 512):
        times = np.arange(n, dtype=np.int64) * 600 + T0
        heads = [
            (times, np.cumsum(rng.integers(0, 200_000, n).astype(np.float64)))
            for _ in range(SEAL_HEADS)
        ]
        per_chunk_s = _best_seconds(
            lambda: [Chunk.seal(t, v) for t, v in heads]
        )
        batched_s = _best_seconds(lambda: seal_many(heads))
        speedup = per_chunk_s / batched_s
        payload[f"per_chunk_chunks_per_s_{n}"] = round(SEAL_HEADS / per_chunk_s)
        payload[f"seal_many_chunks_per_s_{n}"] = round(SEAL_HEADS / batched_s)
        payload[f"speedup_{n}"] = round(speedup, 2)
        rows.append((
            f"{n}-point heads", f"{SEAL_HEADS / batched_s:,.0f} chunks/s",
            f"per-chunk {SEAL_HEADS / per_chunk_s:,.0f} chunks/s, "
            f"{speedup:.1f}x",
        ))
    record_bench(BENCH_JSON, "seal_many", payload)
    report("tsdb seal (seal_many vs one Chunk.seal per head)", rows,
           ["heads", "seal_many", "detail"])
    assert payload["speedup_144"] >= SEAL_SPEEDUP_FLOOR, (
        f"seal_many is only {payload['speedup_144']}x per-chunk sealing "
        f"on 144-point heads (floor {SEAL_SPEEDUP_FLOOR}x)"
    )


# -- cost against store size ---------------------------------------------------

#: one host as ``bench/corpus.prefill_tsdb`` shapes it: 4 cores x 7
#: events, lnet and mdc x 2, mem x 1 — 33 series, 28 of them ``type=cpu``
SCALING_DEVICES = (
    [("cpu", str(core), 7) for core in range(4)]
    + [("lnet", "0", 2), ("mdc", "t", 2), ("mem", "0", 1)]
)
SCALING_HOSTS = (64, 640)  # 2 112 and 21 120 series
SCALING_RATIO_CEILING = 2.0
#: calls per timed batch: one call is a few microseconds
SCALING_CALLS = 64


def _sealed_fleet(hosts):
    db = TimeSeriesDB()
    times = np.arange(4, dtype=np.int64) * 600 + T0
    for h in range(hosts):
        group = db.group("stats", [
            {"host": f"p{h:03d}", "type": type_name, "device": device,
             "event": f"ev{e}"}
            for type_name, device, width in SCALING_DEVICES
            for e in range(width)
        ])
        db.put_many("stats", group, times, np.ones((4, len(group))))
    db.seal_heads()
    return db


def test_store_scaling_gate():
    ops = {
        "select_host": lambda db, host: db.select("stats", {"host": host}),
        "select_host_cpu": lambda db, host: db.select(
            "stats", {"host": host, "type": "cpu"}),
        "seal_heads_nothing_open": lambda db, host: db.seal_heads(),
    }
    us = {}
    for hosts in SCALING_HOSTS:
        db = _sealed_fleet(hosts)
        assert db.n_series() == 33 * hosts and not db._blocks
        assert len(db.select("stats", {"host": "p007", "type": "cpu"})) == 28
        pinned = [f"p{h:03d}" for h in range(SCALING_CALLS)]  # on both
        for name, op in ops.items():
            us[name, hosts] = 1e6 / SCALING_CALLS * _best_seconds(
                lambda: [op(db, host) for host in pinned], repeats=20
            )
    small, large = SCALING_HOSTS
    payload = {
        "series": [33 * hosts for hosts in SCALING_HOSTS],
        "ratio_ceiling": SCALING_RATIO_CEILING,
    }
    rows = []
    for name in ops:
        ratio = us[name, large] / us[name, small]
        payload[name] = {
            "us_small": round(us[name, small], 2),
            "us_large": round(us[name, large], 2),
            "ratio": round(ratio, 2),
        }
        rows.append((
            name, f"{us[name, small]:.2f} us", f"{us[name, large]:.2f} us",
            f"{ratio:.2f}x (ceiling {SCALING_RATIO_CEILING}x)",
        ))
    record_bench(BENCH_JSON, "store_scaling", payload)
    report("tsdb cost against store size (best of 20, per call)", rows,
           ["op", f"{33 * small} series", f"{33 * large} series", "ratio"])
    for name in ops:
        assert payload[name]["ratio"] <= SCALING_RATIO_CEILING, (
            f"{name} costs {payload[name]['ratio']}x as much on "
            f"{33 * large} series as on {33 * small} "
            f"(ceiling {SCALING_RATIO_CEILING}x)"
        )


# -- one read step per window_stats ---------------------------------------------

#: (series, chunks per series): twice the series and twice the chunks
#: must cost the same number of read-step calls
READ_STORES = ((64, 8), (128, 16))
READ_CALLS_CEILING = 2
#: the same script at 4d9db80, whose planner fetched a resident edge
#: chunk by itself and read each out-of-order series on its own
PARENT_READ_CALLS = {
    "64x8": {"get_many": 64, "decode_concat": 33},
    "128x16": {"get_many": 128, "decode_concat": 65},
}


def _mixed_store(series, chunks):
    """``series`` series of ``chunks`` sealed 16-point chunks each; every
    other one written out of order."""
    db = TimeSeriesDB(chunk_size=16)
    t = np.arange(16 * chunks, dtype=np.int64) * 600 + T0
    rng = np.random.default_rng(5)
    for h in range(series):
        tt = t.copy()
        if h % 2:
            tt[[3, 4]] = tt[[4, 3]]
        db.put_many("stats", {"host": f"h{h:03d}"}, tt, rng.normal(size=len(t)))
    return db


def _read_calls(monkeypatch, series, chunks):
    """Calls into the buffer cache and the batch decoder made by one
    ``window_stats`` whose left edge chunk is resident and whose right
    edge chunk is not."""
    import repro.tsdb.chunks as chunks_mod
    import repro.tsdb.store as store_mod
    from repro.tsdb.cache import BufferCache

    db = _mixed_store(series, chunks)
    n = 16 * chunks
    window_stats(db, "stats", time_range=(T0 + 600 * 8, T0 + 600 * n // 2 + 5))
    db.cache.clear()
    calls = {"get_many": 0, "decode_concat": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(BufferCache, "get_many",
                  counted("get_many", BufferCache.get_many))
        decode = counted("decode_concat", chunks_mod.decode_concat)
        m.setattr(chunks_mod, "decode_concat", decode)
        m.setattr(store_mod, "decode_concat", decode)
        stats = window_stats(
            db, "stats", time_range=(T0 + 600 * 8, T0 + 600 * (n - 8))
        )
    assert len(stats) == series and db.buffer_cache.hits > 0
    return calls


def test_window_stats_read_calls_gate(monkeypatch):
    payload = {"ceiling": READ_CALLS_CEILING, "parent_4d9db80": {},
               "change": {}}
    rows = []
    for series, chunks in READ_STORES:
        key = f"{series}x{chunks}"
        got = _read_calls(monkeypatch, series, chunks)
        payload["change"][key] = got
        payload["parent_4d9db80"][key] = PARENT_READ_CALLS[key]
        rows.append((
            f"{series} series x {chunks} chunks",
            f"{got['get_many']} / {got['decode_concat']}",
            "{get_many} / {decode_concat}".format(**PARENT_READ_CALLS[key]),
        ))
    record_bench(BENCH_JSON, "window_stats_read_calls", payload)
    report("calls per window_stats (half the series out of order)", rows,
           ["store", "get_many / decode_concat", "parent"])
    counts = list(payload["change"].values())
    assert all(c == counts[0] for c in counts), (
        f"read-step calls grow with the store: {payload['change']}"
    )
    for name in ("get_many", "decode_concat"):
        assert counts[0][name] <= READ_CALLS_CEILING, (
            f"{counts[0][name]} {name} calls per window_stats "
            f"(ceiling {READ_CALLS_CEILING})"
        )


# -- one slab per head block ---------------------------------------------------

#: Python + builtin calls under cProfile: one ``window_stats`` over one
#: host's 33-series head block, and one ``seal_heads`` of a bench-shaped
#: rack (8 such blocks, 144 points each) — as recorded by this test
SLAB_CALLS = {"window_stats_host": 771, "seal_heads_rack": 3146}
#: the same script at 3f1c3d6: one partial per head series, one
#: ``Chunk`` built per index
SLAB_CALLS_AT_3F1C3D6 = {"window_stats_host": 1926, "seal_heads_rack": 3098}
SLAB_CALLS_MARGIN = 1.15
SLAB_HOSTS = 8
SLAB_POINTS = 144


def _open_rack():
    """A rack of head blocks as a rack-day's load leaves it: one
    33-series group a host, ``SLAB_POINTS`` rows, nothing sealed."""
    db = TimeSeriesDB()
    rng = np.random.default_rng(20151001)
    times = np.arange(SLAB_POINTS, dtype=np.int64) * 600 + T0
    for h in range(SLAB_HOSTS):
        group = db.group("stats", [
            {"host": f"s{h:03d}", "type": type_name, "device": device,
             "event": f"ev{e}"}
            for type_name, device, width in SCALING_DEVICES
            for e in range(width)
        ])
        rows = np.cumsum(rng.integers(
            0, 200_000, (SLAB_POINTS, len(group))).astype(np.float64), axis=0)
        db.put_many("stats", group, times, rows)
    return db


def _profiled_calls(fn):
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


def test_head_slab_calls_gate():
    """A head block is reduced and sealed as one slab: count, do not
    time.  Gate: each count ≤ the recorded one + 15 %.  Microseconds a
    slab (best of 20) are reported next to it, not gated."""
    db = _open_rack()
    assert len(db._blocks) == SLAB_HOSTS
    host = {"host": "s003"}
    stats = window_stats(db, "stats", tags=host)
    assert len(stats) == 33 and all(s.count == SLAB_POINTS for s in stats)
    # every counted or timed call computes: none answers from the
    # result the one before it filed
    db.cache.clear()
    calls = {"window_stats_host": _profiled_calls(
        lambda: window_stats(db, "stats", tags=host))}
    us = {"window_stats_host": 1e6 * _best_seconds(
        lambda: window_stats(db, "stats", tags=host), repeats=20,
        reset=db.cache.clear)}
    assert db.cache.hits == 0
    calls["seal_heads_rack"] = _profiled_calls(db.seal_heads)
    assert db.n_chunks() == 33 * SLAB_HOSTS and not db._blocks
    racks = [_open_rack() for _ in range(20)]
    us["seal_heads_rack"] = 1e6 / SLAB_HOSTS * _best_seconds(
        lambda: racks.pop().seal_heads(), repeats=20)
    payload = {
        "scenario": f"{SLAB_HOSTS} hosts x one 33-series head block of "
                    f"{SLAB_POINTS} points; window_stats over one host, "
                    f"seal_heads over the rack",
        "calls": calls,
        "calls_recorded": SLAB_CALLS,
        "calls_at_3f1c3d6": SLAB_CALLS_AT_3F1C3D6,
        "margin": SLAB_CALLS_MARGIN,
        "us_per_slab_best_of_20": {k: round(v, 1) for k, v in us.items()},
    }
    record_bench(BENCH_JSON, "head_slab_calls", payload)
    report("one slab per head block (calls; us a slab, not gated)", [
        (name, calls[name], SLAB_CALLS_AT_3F1C3D6[name], f"{us[name]:.1f}")
        for name in calls
    ], ["op", "calls", "at 3f1c3d6", "us / slab"])
    for name, got in calls.items():
        assert got <= SLAB_CALLS_MARGIN * SLAB_CALLS[name], (
            f"{name}: {got} calls, recorded {SLAB_CALLS[name]} "
            f"(gate +{SLAB_CALLS_MARGIN - 1:.0%})"
        )
