"""The row-wise live write path against its per-series oracle.

``StreamPipeline`` writes one ``(n, K)`` block per delivery through
``RetainingWriter.put_many`` → ``TimeSeriesDB.put_many(group, ...)``;
:mod:`tests.test_stream.reference` keeps the code it replaced (one
``put_many`` per series, one scalar bucket per series and tier).  Both
are fed the same deliveries and must leave the same store bit for bit:
raw points, every rollup metric, ``rollup_points``, ``pruned`` and the
alert ledger.  Series *creation order* differs (group-major), so stores
are compared by key.
"""

import typing

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.broker import Broker, Delivery, Message
from repro.stream import StreamPipeline
from repro.stream.retention import (
    RetainingWriter,
    RetentionPolicy,
    RetentionTier,
)
from repro.tsdb import TimeSeriesDB
from tests.test_tsdb.reference import ListBackedTSDB
from tests.test_stream.reference import (
    ReferenceRetainingWriter,
    ReferenceStreamPipeline,
    store_dump,
)

#: every aggregate at two intervals, horizons short enough to prune
TIGHT = RetentionPolicy(
    raw_horizon=6 * 3600,
    tiers=(
        RetentionTier(3600, 86400, "avg"),
        RetentionTier(3600, 86400, "min"),
        RetentionTier(7200, 86400, "max"),
        RetentionTier(1800, 43200, "sum"),
    ),
    prune_interval=3600,
)


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    yield
    obs.reset()


def deliver(pipeline, host, body, now):
    pipeline._on_delivery(None, Delivery(
        message=Message(body=body, routing_key=f"stats.{host}",
                        headers={"host": host}),
        delivery_tag=0, queue="replay", delivered_at=now,
    ))


def replay(cls, deliveries, **kw):
    """Feed ``(host, body, delivered_at)`` through a fresh pipeline."""
    obs.reset()
    pipeline = cls(Broker(), **kw)
    for host, body, now in deliveries:
        deliver(pipeline, host, body, now)
    pipeline.finalize()
    pruned = obs.counter("repro_stream_points_pruned_total").total()
    return pipeline, pruned


def ledger(pipeline):
    return [
        (a.rule, a.jobid, a.fired_at, a.data_time, a.value, a.threshold)
        for a in pipeline.alerts.ledger
    ]


def assert_same_outcome(new, ref):
    got, want = store_dump(new.tsdb), store_dump(ref.tsdb)
    assert set(got) == set(want)
    for key in want:
        assert got[key] == want[key], key
    assert new.samples == ref.samples
    assert new.points == ref.points
    assert new.writer.rollup_points == ref.writer.rollup_points
    assert new.writer.pruned == ref.writer.pruned
    assert ledger(new) == ledger(ref)


# -- the 2-day soak ------------------------------------------------------------

def test_soak_store_equals_the_oracle_store(soak_run):
    """The session's own streamed store, against an oracle replay of
    the deliveries the session's probe queue recorded."""
    ref, _ = replay(
        ReferenceStreamPipeline, soak_run.deliveries,
        jobs=soak_run.sess.cluster.jobs, types=["mdc"],
    )
    new = soak_run.stream
    assert new.tsdb.n_points() > 10_000
    assert new.writer.rollup_points > 0
    assert len(ledger(new)) > 0
    assert_same_outcome(new, ref)


def test_soak_replay_under_a_pruning_policy(soak_run):
    """Same traffic, every aggregate, horizons short enough that the
    prune pass and the rollup flushes interleave all run long."""
    kw = dict(
        jobs=soak_run.sess.cluster.jobs, types=["mdc", "mem", "net"],
        retention=TIGHT,
    )
    new, new_pruned = replay(StreamPipeline, soak_run.deliveries, **kw)
    ref, ref_pruned = replay(
        ReferenceStreamPipeline, soak_run.deliveries, **kw)
    assert new.writer.pruned > 10_000
    assert new_pruned == ref_pruned == new.writer.pruned
    assert {"stats.avg3600s", "stats.min3600s", "stats.max7200s",
            "stats.sum1800s"} <= set(new.tsdb.metrics())
    assert_same_outcome(new, ref)


# -- hand-built deliveries -------------------------------------------------------

HEADER = "$hostname {host}\n!x a,E b,E\n!y v\n"


def record(ts, lines, jobs="-"):
    return f"{ts} {jobs}\n" + "".join(line + "\n" for line in lines)


def both(deliveries, **kw):
    kw.setdefault("retention", TIGHT)
    new, _ = replay(StreamPipeline, deliveries, **kw)
    ref, _ = replay(ReferenceStreamPipeline, deliveries, **kw)
    assert_same_outcome(new, ref)
    return new


def test_device_appearing_late_is_a_new_layout_with_open_buckets_kept():
    deliveries = [("h1", HEADER.format(host="h1") + record(
        0, ["x 0 1 2", "y - 5"]), 1)]
    for i in range(1, 4):
        deliveries.append(
            ("h1", record(600 * i, [f"x 0 {i} {2 * i}", "y - 5"]), 600 * i))
    # device x/1 joins mid-bucket, x/0 and y carry on; then it leaves
    for i in range(4, 16):
        deliveries.append(("h1", record(600 * i, [
            f"x 0 {i} {2 * i}", f"x 1 {3 * i} {4 * i}", "y - 6"]), 600 * i))
    for i in range(16, 30):
        deliveries.append(
            ("h1", record(600 * i, [f"x 0 {i} {2 * i}", "y - 7"]), 600 * i))
    new = both(deliveries)
    late = new.tsdb.select("stats.avg3600s", {"device": "1", "event": "a"})
    (series,) = late
    t, v = series.arrays()
    # first bucket holds samples 4 and 5 only: (12 + 15) / 2
    assert (t[0], v[0]) == (0, 13.5)


def test_schema_redefined_mid_stream():
    h = "$hostname h1\n"
    deliveries = [
        ("h1", h + "!x a,E b,E\n" + record(0, ["x 0 1 2"]), 1),
        ("h1", record(600, ["x 0 3 4"]), 601),
        # a restarted daemon re-announces the same schema ...
        ("h1", h + "!x a,E b,E\n" + record(1200, ["x 0 5 6"]), 1201),
        # ... and a new build adds a counter and renames one
        ("h1", h + "!x a,E c,E d,E\n" + record(1800, ["x 0 7 8 9"]), 1801),
        ("h1", record(2400, ["x 0 10 11 12"]), 2401),
        ("h1", record(4000, ["x 0 13 14 15"]), 4001),
    ]
    new = both(deliveries)
    events = {s.tags["event"] for s in new.tsdb.select("stats")}
    assert events == {"a", "b", "c", "d"}
    (a,) = new.tsdb.select("stats.sum1800s", {"event": "a"})
    assert a.arrays()[1].tolist() == [1 + 3 + 5, 7 + 10, 13]


def test_types_filter_and_unknown_schema_leave_columns_out():
    body = "$hostname h1\n!x a,E b,E\n!y v\n" + record(
        0, ["x 0 1 2", "y - 5", "z 0 9 9"])
    new = both([("h1", body, 1),
                ("h1", record(600, ["y - 6", "x 0 3 4"]), 601)],
               types=["y", "z"])
    assert {s.tags["type"] for s in new.tsdb.select("stats")} == {"y"}
    assert new.points == 2
    # nothing to write at all is not an error either
    empty = both([("h1", body, 1)], types=["nope"])
    assert empty.points == 0 and empty.samples == 1


def test_multi_sample_delivery_with_a_repeated_timestamp():
    """Begin/end marks put several records in one message; a repeated
    timestamp must keep last-write-wins per series."""
    body = HEADER.format(host="h1") + "".join([
        record(1000, ["x 0 1 2", "y - 1"], jobs="7"),
        record(1000, ["x 0 10 20", "y - 2"], jobs="7"),
        record(400, ["x 0 5 6", "y - 3"]),          # out of order
        record(1600, ["x 0 7 8", "x 1 1 1", "y - 4"]),  # layout changes
        record(1600, ["x 0 70 80", "y - 5"]),       # ... and back
    ])
    new = both([("h1", body, 1700), ("h1", record(9000, ["y - 9"]), 9001)])
    (a,) = new.tsdb.select("stats", {"device": "0", "event": "a"})
    t, v = a.arrays()
    assert t.tolist() == [400, 1000, 1600]
    assert v.tolist() == [5.0, 10.0, 70.0]


def test_nonfinite_values_fold_like_python_min_max():
    rows = [
        ["x 0 nan 1", "y - -0.0"],
        ["x 0 2 nan", "y - 0.0"],
        ["x 0 inf -inf", "y - -0.0"],
        ["x 0 nan nan", "y - nan"],
        ["x 0 -3 4", "y - -inf"],
    ]
    deliveries = [("h1", HEADER.format(host="h1") + record(0, rows[0]), 1)]
    deliveries += [
        ("h1", record(300 * i, rows[i % len(rows)]), 300 * i)
        for i in range(1, 40)
    ]
    # an all-NaN bucket too: max stays -inf, min stays +inf, sum is NaN
    deliveries += [
        ("h2", HEADER.format(host="h2") + record(0, rows[3]), 1),
        ("h2", record(300, rows[3]), 301),
    ]
    new = both(deliveries)
    (mx,) = new.tsdb.select(
        "stats.max7200s", {"host": "h2", "type": "y"})
    assert mx.arrays()[1].tolist() == [float("-inf")]
    (zero,) = new.tsdb.select(
        "stats.min3600s", {"host": "h1", "type": "y"})
    assert np.isneginf(zero.arrays()[1]).any()


def test_list_series_store_takes_rows_too():
    deliveries = [("h1", HEADER.format(host="h1") + record(
        0, ["x 0 1 2", "y - 5"]), 1)]
    deliveries += [
        ("h1", record(600 * i, [f"x 0 {i} {i}", f"y - {i}"]), 600 * i)
        for i in range(1, 50)
    ]
    obs.reset()
    new = StreamPipeline(Broker(), tsdb=ListBackedTSDB(), retention=TIGHT)
    ref = ReferenceStreamPipeline(
        Broker(), tsdb=ListBackedTSDB(), retention=TIGHT)
    for pipeline in (new, ref):
        for host, body, now in deliveries:
            deliver(pipeline, host, body, now)
        pipeline.finalize()
    assert new.writer.pruned > 0
    assert_same_outcome(new, ref)


def test_schema_line_inside_a_record_applies_from_the_next_record():
    """A ``!`` line between a record's data and the next record: the
    record is written under the schema it was read with, the next one
    under the new — live as in the reference."""
    body = "$hostname h1\n!x a,E b,E\n" + record(0, ["x 0 1 2"]) \
        + "!x a,E\n" + record(600, ["x 0 3"])
    new = both([("h1", body, 1)])
    assert {s.tags["event"]: s.arrays()[1].tolist()
            for s in new.tsdb.select("stats")} == {"a": [1.0, 3.0],
                                                   "b": [2.0]}


# -- the prune rule ---------------------------------------------------------------

def test_prune_check_runs_once_after_the_whole_block():
    """A late point older than ``raw_horizon`` goes with the call that
    carried it, whichever series of the row it sits in.  (The per-series
    writer checked after the *first* series, so the late points of
    series 2…K outlived one more ``prune_interval``.)"""
    policy = RetentionPolicy(raw_horizon=1000, tiers=(), prune_interval=100)
    tag_sets = [{"host": "n1", "event": e} for e in "abc"]

    db = TimeSeriesDB()
    w = RetainingWriter(db, policy)
    group = db.group("m", tag_sets)
    w.put_many("m", group, [0], [[1.0, 1.0, 1.0]])
    w.put_many("m", group, [5000], [[2.0, 2.0, 2.0]])
    w.put_many("m", group, [5100, 10], [[3.0] * 3, [4.0] * 3])
    for s in db.select("m"):
        assert s.arrays()[0].tolist() == [5000, 5100], s.tags
    assert w.pruned == 3 + 3

    ref_db = TimeSeriesDB()
    ref = ReferenceRetainingWriter(ref_db, policy)
    for times, value in (([0], [1.0]), ([5000], [2.0]),
                         ([5100, 10], [3.0, 4.0])):
        for tags in tag_sets:
            ref.put_many("m", tags, times, value)
    survivors = [s.arrays()[0].tolist() for s in ref_db.select("m")]
    assert survivors == [[5000, 5100], [10, 5000, 5100], [10, 5000, 5100]]


# -- SeriesGroup on the store ------------------------------------------------------

TAG_SETS = [{"host": "n1", "event": e} for e in ("a", "b", "c")]


def series_state(s):
    t, v = s.arrays()
    return (
        [(c.t_min, c.t_max, c.count) for c in s.chunks],
        s.head()[0].tolist(),
        s.head()[1].view(np.uint64).tolist(),
        s._ordered, s._max_ts,
        t.tolist(), np.asarray(v).view(np.uint64).tolist(),
    )


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, width=64)


# sealing a head of ±inf/1e308 values warns while summing its pre-aggregate
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(
        st.lists(
            st.tuples(st.integers(0, 40), st.tuples(*[finite_or_not] * 3)),
            min_size=1, max_size=12,
        ),
        min_size=1, max_size=6,
    ),
)
# one block that crosses ``chunk_size`` twice, then late rows on the rest
@example(blocks=[
    [(ts, (float(ts), -0.0, float("nan"))) for ts in range(19)],
    [(20, (1.0, 2.0, 3.0)), (7, (4.0, 5.0, 6.0)), (20, (7.0, 8.0, 9.0))],
    [(ts, (0.5, 0.25, 0.125)) for ts in range(21, 27)],
])
def test_group_rows_equal_k_one_series_writes(blocks):
    """``put_many(group, t, V)`` ≡ K × ``put_many(tags_j, t, V[:, j])``:
    out-of-order and repeated rows, heads crossing ``chunk_size``."""
    rows, cols = TimeSeriesDB(chunk_size=8), TimeSeriesDB(chunk_size=8)
    group = rows.group("m", TAG_SETS)
    for block in blocks:
        t = np.array([ts * 10 for ts, _ in block], dtype=np.int64)
        V = np.array([vals for _, vals in block], dtype=np.float64)
        epoch = rows.epoch
        assert rows.put_many("m", group, t, V) == V.size
        assert rows.epoch == epoch + 1
        for j, tags in enumerate(TAG_SETS):
            cols.put_many("m", tags, t, V[:, j])
    assert rows.n_series() == cols.n_series() == 3
    for a, b in zip(rows.select("m"), cols.select("m")):
        assert a.tags == b.tags
        assert series_state(a) == series_state(b)


def test_group_write_is_validated_before_anything_is_written():
    db = TimeSeriesDB()
    group = db.group("m", TAG_SETS)
    bad = [
        ("m", group, [0, 10], [[1.0, 2.0, 3.0]]),      # rows != times
        ("m", group, [0], [[1.0, 2.0]]),                # K mismatch
        ("m", group, [0], [1.0, 2.0, 3.0]),             # not a block
        ("m", group, [[0]], [[1.0, 2.0, 3.0]]),         # times not 1-d
        ("other", group, [0], [[1.0, 2.0, 3.0]]),       # metric mismatch
        ("m", TimeSeriesDB().group("m", TAG_SETS), [0], [[1.0, 2.0, 3.0]]),
    ]
    for metric, g, times, values in bad:
        with pytest.raises(ValueError):
            db.put_many(metric, g, times, values)
    assert db.n_series() == 0 and db.epoch == 0 and db.metrics() == []
    with pytest.raises(ValueError, match="twice"):
        db.group("m", TAG_SETS + [dict(TAG_SETS[0])])
    # an empty block is no write
    assert db.put_many("m", group, [], np.empty((0, 3))) == 0
    assert db.n_series() == 0 and db.epoch == 0


def test_rejected_one_series_write_leaves_no_ghost_series():
    """``ValueError`` before anything is written means before the
    series is created, too: no empty series in any index."""
    db = TimeSeriesDB()
    db.put("kept", {"a": "x"}, 0, 1.0)
    before = (db.n_series(), db.metrics(), db.tag_values("a"), db.epoch)
    with pytest.raises(ValueError):
        db.put_many("m", {"a": "b"}, [1, 2], [1.0])             # ragged
    with pytest.raises(ValueError):
        db.put_many("m", {"a": "b"}, [1, 2], [[1.0], [2.0]])    # 2-d column
    with pytest.raises(ValueError):
        db.put("m", {"a": "b"}, "noon", 1.0)                    # not a time
    assert (db.n_series(), db.metrics(), db.tag_values("a"), db.epoch) \
        == before


def test_stale_handle_reregisters_after_prune():
    db = TimeSeriesDB()
    group = db.group("m", TAG_SETS)
    db.put_many("m", group, [0, 10], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    detached = db.select("m")
    assert db.prune(1000) == 6 and db.n_series() == 0
    assert db.tag_values("event") == [] and db.metrics() == []
    # the one-series path re-creates one of them in between
    db.put("m", TAG_SETS[1], 2000, 7.0)
    recreated = db.select("m", {"event": "b"})[0]

    db.put_many("m", group, [2010], [[8.0, 9.0, 10.0]])
    assert all(len(s) == 0 for s in detached)
    assert db.n_series() == 3
    assert db.tag_values("event") == ["a", "b", "c"]
    assert db.metrics() == ["m"]
    assert db.select("m", {"event": "b"})[0] is recreated
    assert recreated.arrays()[0].tolist() == [2000, 2010]
    assert [s.arrays()[1].tolist() for s in db.select("m")] == \
        [[8.0], [7.0, 9.0], [10.0]]


def test_writer_handle_survives_a_prune_that_empties_its_series():
    policy = RetentionPolicy(
        raw_horizon=1000, tiers=(RetentionTier(600, 10**6, "avg"),),
        prune_interval=100,
    )
    db, ref_db = TimeSeriesDB(), TimeSeriesDB()
    w, ref = RetainingWriter(db, policy), ReferenceRetainingWriter(
        ref_db, policy)
    group = db.group("m", TAG_SETS)
    # every gap empties (and deletes) the raw series before the next row
    for ts in (0, 300, 50_000, 50_300, 50_900, 120_000):
        row = [float(ts), float(ts + 1), float(ts + 2)]
        w.put_many("m", group, [ts], [row])
        for tags, x in zip(TAG_SETS, row):
            ref.put_many("m", tags, [ts], [x])
    w.flush(), ref.flush()
    assert w.pruned == ref.pruned > 0
    assert w.rollup_points == ref.rollup_points
    assert store_dump(db) == store_dump(ref_db)


def test_one_series_and_row_writes_share_open_buckets():
    """A series written by tag mapping and then through a group (or the
    other way round) keeps one open bucket per tier."""
    policy = RetentionPolicy(
        raw_horizon=10**9, tiers=(RetentionTier(600, 10**9, "avg"),),
        prune_interval=10**9,
    )
    db, ref_db = TimeSeriesDB(), TimeSeriesDB()
    w, ref = RetainingWriter(db, policy), ReferenceRetainingWriter(
        ref_db, policy)
    group = db.group("m", TAG_SETS)
    pair = db.group("m", TAG_SETS[:2])
    w.put("m", TAG_SETS[0], 0, 1.0)
    w.put_many("m", group, [100], [[3.0, 30.0, 300.0]])
    w.put_many("m", pair, [200], [[5.0, 50.0]])
    # ``group`` lost two of its three columns to ``pair``: takes them back
    w.put_many("m", group, [250], [[6.0, 60.0, 600.0]])
    w.put("m", TAG_SETS[2], 300, 500.0)
    w.put_many("m", group, [700], [[7.0, 70.0, 700.0]])
    for tags, t, v in (
        (TAG_SETS[0], [0, 100, 200, 250, 700], [1.0, 3.0, 5.0, 6.0, 7.0]),
        (TAG_SETS[1], [100, 200, 250, 700], [30.0, 50.0, 60.0, 70.0]),
        (TAG_SETS[2], [100, 250, 300, 700], [300.0, 600.0, 500.0, 700.0]),
    ):
        ref.put_many("m", tags, t, v)
    w.flush(), ref.flush()
    assert w.rollup_points == ref.rollup_points == 6
    assert store_dump(db) == store_dump(ref_db)
    (a,) = db.select("m.avg600s", {"event": "a"})
    assert a.arrays()[1].tolist() == [3.75, 7.0]


# -- satellites -----------------------------------------------------------------------

def test_pipeline_annotations_resolve():
    """``pipeline.py`` once annotated with a ``Tuple`` it never imported."""
    for name, member in vars(StreamPipeline).items():
        if callable(member):
            typing.get_type_hints(member)
