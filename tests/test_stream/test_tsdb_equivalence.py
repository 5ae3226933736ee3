"""Storage-engine equivalence on the 2-day soak corpus.

The chunked columnar engine's correctness bar: every query the
reproduction issues — plain aggregation, group-by, counter→rate with
rollover correction, downsampling, windowed reads — must return
*bit-identical* results to the retained list-backed reference engine
(:mod:`tests.test_tsdb.reference`) when both are loaded with the same
multi-day corpus.  A tiny ``chunk_size`` forces hundreds of seals so
chunk boundaries, pushdown and the head/sealed merge path are all
exercised, not just the head.
"""

import numpy as np
import pytest

from repro.tsdb import BufferCache, TimeSeriesDB, ingest_store, window_stats
from tests.test_tsdb.reference import (
    ListBackedTSDB, baseline_query, stats_bytes, window_stats_reference,
)
from repro.tsdb.query import query

#: small enough that the soak corpus seals many chunks per series
CHUNK_SIZE = 32


@pytest.fixture(scope="module")
def engines(soak_run):
    """The soak corpus loaded into both engines (read-only!)."""
    chunked = TimeSeriesDB(chunk_size=CHUNK_SIZE)
    listed = ListBackedTSDB()
    n1 = ingest_store(chunked, soak_run.sess.store, types=["mdc"])
    n2 = ingest_store(listed, soak_run.sess.store, types=["mdc"])
    assert n1 == n2 > 0
    assert chunked.n_chunks() > 50, "corpus too small to stress sealing"
    return chunked, listed


@pytest.fixture(scope="module")
def engine_matrix(soak_run):
    """Chunked engines in every read-path configuration under test:

    the default buffer cache, and one of a single entry (every decode
    filed evicts the one before) — both loaded with the same soak
    corpus as the frozen list baseline.
    """
    configs = {
        "buffered": TimeSeriesDB(chunk_size=CHUNK_SIZE),
        "one_entry": TimeSeriesDB(
            chunk_size=CHUNK_SIZE, buffer_cache=BufferCache(maxsize=1)
        ),
    }
    listed = ListBackedTSDB()
    n_ref = ingest_store(listed, soak_run.sess.store, types=["mdc"])
    for db in configs.values():
        assert ingest_store(db, soak_run.sess.store, types=["mdc"]) == n_ref
    return configs, listed


def assert_results_bit_identical(ra, rb, ctx=""):
    assert len(ra) == len(rb), ctx
    for sa, sb in zip(ra.series, rb.series):
        assert sa.tags == sb.tags, ctx
        assert np.array_equal(sa.times, sb.times), ctx
        # uint64 views: NaN-safe, distinguishes -0.0, exact to the bit
        assert np.array_equal(
            np.asarray(sa.values, dtype=np.float64).view(np.uint64),
            np.asarray(sb.values, dtype=np.float64).view(np.uint64),
        ), ctx


#: the query battery: everything §VI-A and the portal actually use
QUERIES = [
    {},
    {"aggregate": "avg"},
    {"aggregate": "max"},
    {"aggregate": "min"},
    {"group_by": ("host",)},
    {"group_by": ("host", "event")},
    {"tags": {"event": "reqs"}, "group_by": ("host",)},
    {"rate": True},
    {"rate": True, "counter_width": 2.0**32},
    {"rate": True, "group_by": ("event",)},
    {"downsample": (3600, "avg")},
    {"rate": True, "downsample": (3600, "avg"), "group_by": ("host",)},
    {"tags": {"event": ["reqs", "wait_us"]}, "group_by": ("event",)},
]


@pytest.mark.parametrize(
    "kw", QUERIES, ids=[str(sorted(q)) for q in QUERIES]
)
def test_query_battery_bit_identical(engines, kw):
    chunked, listed = engines
    ra = query(chunked, "stats", **kw)
    rb = query(listed, "stats", **kw)
    assert ra.series, f"empty result would prove nothing: {kw}"
    assert_results_bit_identical(ra, rb, ctx=str(kw))


def test_windowed_queries_bit_identical(engines):
    """Pushdown windows sweeping the corpus, including chunk interiors."""
    chunked, listed = engines
    t0 = min(s.arrays()[0][0] for s in listed.select("stats"))
    t1 = max(s.arrays()[0][-1] for s in listed.select("stats"))
    span = int(t1 - t0)
    windows = [
        (int(t0), int(t0) + span // 7),
        (int(t0) + span // 3, int(t0) + span // 2 + 17),
        (int(t0) + span // 2, int(t1) + 1),
        (int(t0) - 10_000, int(t1) + 10_000),  # superset window
        (int(t1) + 1, int(t1) + 2),            # empty window
    ]
    for window in windows:
        for kw in (
            {"group_by": ("host",)},
            {"rate": True, "group_by": ("host", "event")},
            {"rate": True, "downsample": (1800, "avg")},
        ):
            ra = query(chunked, "stats", time_range=window, **kw)
            rb = query(listed, "stats", time_range=window, **kw)
            assert_results_bit_identical(ra, rb, ctx=f"{window} {kw}")


def test_live_streamed_store_matches_reference_replay(soak_run):
    """The store the live pipeline actually built (chunked, batched
    put_many writes, retention pruning) agrees with a list-backed
    replay of the archived raw data for every surviving raw series."""
    live = soak_run.stream.tsdb
    ref = ListBackedTSDB()
    ingest_store(ref, soak_run.sess.store, types=["mdc"])
    # the live feed prunes by horizon; replay the same horizon
    now = soak_run.stream.last_seen
    ref.prune(now - soak_run.stream.writer.policy.raw_horizon)
    for s in live.select("stats"):
        counterpart = ref.select("stats", s.tags)
        assert len(counterpart) == 1, s.tags
        t_live, v_live = s.arrays()
        t_ref, v_ref = counterpart[0].arrays()
        assert np.array_equal(t_live, t_ref), s.tags
        assert np.array_equal(
            v_live.view(np.uint64), v_ref.view(np.uint64)
        ), s.tags


def test_interference_analysis_identical_end_to_end(engines, soak_run):
    """§VI-A rides entirely on query(); the report must not notice the
    engine swap."""
    from repro.analysis.timeseries import interference_report

    chunked, listed = engines
    jobs = soak_run.sess.cluster.jobs
    users = {j.user for j in jobs.values()}
    assert "mduser" in users
    ra = interference_report(chunked, jobs, "mduser")
    rb = interference_report(listed, jobs, "mduser")
    assert ra.suspect_hosts == rb.suspect_hosts
    assert ra.bystander_hosts == rb.bystander_hosts
    assert (ra.correlation == rb.correlation) or (
        np.isnan(ra.correlation) and np.isnan(rb.correlation)
    )
    assert ra.load_share == rb.load_share
    assert ra.implicated == rb.implicated


# -- ISSUE 6: cache-mode matrix vs the frozen baseline ------------------------

def test_battery_vs_frozen_baseline_all_cache_modes(engine_matrix):
    """The full battery, bit-identical to the *frozen* pre-vectorisation
    query path (`tests/test_tsdb/reference.py`), with the decoded-buffer cache
    at its default and at one entry.  Each query runs twice
    per configuration so the second pass reads through whatever caches
    the configuration keeps (result cache, buffer cache)."""
    configs, listed = engine_matrix
    for kw in QUERIES:
        expected = baseline_query(listed, "stats", **kw)
        assert expected.series, f"empty result would prove nothing: {kw}"
        for name, db in configs.items():
            for attempt in ("cold", "warm"):
                ra = query(db, "stats", **kw)
                assert_results_bit_identical(
                    ra, expected, ctx=f"{name}/{attempt}/{kw}"
                )


def test_windowed_battery_vs_frozen_baseline_all_cache_modes(engine_matrix):
    configs, listed = engine_matrix
    t0 = min(s.arrays()[0][0] for s in listed.select("stats"))
    t1 = max(s.arrays()[0][-1] for s in listed.select("stats"))
    span = int(t1 - t0)
    windows = [
        (int(t0) + span // 3, int(t0) + span // 2 + 17),
        (int(t0) - 10_000, int(t1) + 10_000),
    ]
    for window in windows:
        for kw in (
            {"group_by": ("host",)},
            {"rate": True, "downsample": (1800, "avg")},
        ):
            expected = baseline_query(
                listed, "stats", time_range=window, **kw
            )
            for name, db in configs.items():
                for _ in range(2):
                    ra = query(db, "stats", time_range=window, **kw)
                    assert_results_bit_identical(
                        ra, expected, ctx=f"{name}/{window}/{kw}"
                    )


def test_window_stats_matches_list_recompute_on_soak(engine_matrix):
    """Fleet summaries (the /fleet page) agree bit-for-bit with a
    materialise-and-reduce pass over the list engine, and byte for byte
    the frozen full-decode body."""
    configs, listed = engine_matrix
    t0 = min(s.arrays()[0][0] for s in listed.select("stats"))
    t1 = max(s.arrays()[0][-1] for s in listed.select("stats"))
    mid = (int(t0) + int(t1)) // 2
    for time_range in (None, (int(t0), mid), (mid, int(t1) + 1)):
        ref = {}
        for s in listed.select("stats"):
            t, v = s.arrays(time_range)
            cnt = int(np.count_nonzero(~np.isnan(v)))
            with np.errstate(all="ignore"):
                ref[tuple(sorted(s.tags.items()))] = (
                    len(v), cnt,
                    np.float64(np.nansum(v)).tobytes(),
                    np.float64(np.nanmin(v) if cnt else np.nan).tobytes(),
                    np.float64(np.nanmax(v) if cnt else np.nan).tobytes(),
                )
        for name, db in configs.items():
            got = window_stats(db, "stats", time_range=time_range)
            assert stats_bytes(got) == stats_bytes(window_stats_reference(
                db, "stats", time_range=time_range, use_preagg=False
            )), f"{name}/{time_range}"
            assert len(got) == len(ref)
            for st in got:
                key = tuple(sorted(st.tags.items()))
                n, cnt, s_b, mn_b, mx_b = ref[key]
                ctx = f"{name}/{time_range}/{key}"
                assert st.points == n and st.count == cnt, ctx
                assert np.float64(st.sum).tobytes() == s_b, ctx
                assert np.float64(st.min).tobytes() == mn_b, ctx
                assert np.float64(st.max).tobytes() == mx_b, ctx
