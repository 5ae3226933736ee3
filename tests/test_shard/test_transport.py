"""The zero-copy shard RPC plane: codec, round trips, chaos.

Two layers under test:

* the **frame codec** — protocol-5 envelopes with out-of-band column
  buffers must round-trip bit-exactly (NaN, ±inf, ``-0.0``, empty and
  single-point columns included), decode to zero-copy read-only
  views over the received frame, and refuse *any* truncated frame
  rather than surface a truncated column;
* the **pool protocol** — worker ``w`` owns the shards
  ``s % workers == w``, a death during ``recv`` raises
  :class:`ShardWorkerDied` (never ``UnboundLocalError``), every
  command — a write too — is one round trip, and a bad write or a
  worker killed mid-frame or between two writes raises from the call
  that met it, with no silent data loss.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ShardedTSDB, StoreSource
from repro.shard.pool import ShardWorkerDied, ShardWorkerPool
from repro.shard.transport import FrameError, decode, encode
from repro.tsdb.store import _tagkey

from .conftest import CHUNK_SIZE, TYPES

# -- frame codec: round-trips -------------------------------------------------


def _roundtrip(msg):
    frame, _ = encode(msg)
    out, _ = decode(frame)
    return out


def _frame_of(arr):
    """The bytes object a decoded column is a view over."""
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base, memoryview)
    return base.obj


def assert_cols_bitwise(got, want):
    t_g, v_g = got
    t_w, v_w = want
    assert np.array_equal(t_g, t_w)
    assert t_g.dtype == t_w.dtype
    assert v_g.dtype == v_w.dtype
    assert np.array_equal(
        np.asarray(v_g, dtype=np.float64).view(np.uint64),
        np.asarray(v_w, dtype=np.float64).view(np.uint64),
    )


def test_plain_envelope_roundtrip():
    msg = ("ok", {"a": 1, "b": [1.5, None, "x"]}, ())
    assert _roundtrip(msg) == msg


@pytest.mark.parametrize("values", [
    [],                                  # empty column
    [0.0],                               # single point
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0],
    [1e-308, -1e308, 2.0**-1074],        # subnormal edges
])
def test_special_value_columns_roundtrip_bitwise(values):
    t = np.arange(len(values), dtype=np.int64)
    v = np.asarray(values, dtype=np.float64)
    out = _roundtrip(("ok", [(t, v)], ()))
    assert out[0] == "ok" and out[2] == ()
    assert_cols_bitwise(out[1][0], (t, v))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        max_size=200,
    ),
    st.integers(min_value=-2**40, max_value=2**40),
)
def test_codec_roundtrip_property(values, t0):
    t = t0 + np.arange(len(values), dtype=np.int64) * 7
    v = np.asarray(values, dtype=np.float64)
    msg = ("ok", [(t, v), (t[:1], v[:1])], ("err one", "err two"))
    out = _roundtrip(msg)
    assert out[0] == "ok" and out[2] == ("err one", "err two")
    assert_cols_bitwise(out[1][0], (t, v))
    assert_cols_bitwise(out[1][1], (t[:1], v[:1]))


def test_decoded_inline_columns_are_readonly_views():
    v = np.arange(1000, dtype=np.float64)
    out = _roundtrip(("ok", [v], ()))
    arr = out[1][0]
    assert np.array_equal(arr, v)
    # a view over the received frame, not a list-materialised copy
    assert not arr.flags.writeable


# -- frame codec: truncation & corruption -------------------------------------


def test_any_truncated_frame_raises_frame_error():
    t = np.arange(512, dtype=np.int64)
    v = np.sqrt(np.arange(512, dtype=np.float64))
    frame, _ = encode(("ok", [(t, v)], ()))
    # every strict prefix must refuse to decode: a short read can
    # never silently deliver a truncated column
    for cut in list(range(0, 64)) + [len(frame) // 2, len(frame) - 1]:
        with pytest.raises(FrameError):
            decode(frame[:cut])
    # the full frame still decodes
    out, _ = decode(frame)
    assert_cols_bitwise(out[1][0], (t, v))


def test_bad_magic_and_unknown_kind_raise():
    frame, _ = encode(("ok", [np.arange(8, dtype=np.int64)], ()))
    with pytest.raises(FrameError):
        decode(b"XXXX" + frame[4:])
    mangled = bytearray(frame)
    mangled[12] = 9  # the envelope length's high word
    with pytest.raises(FrameError):
        decode(bytes(mangled))


def test_trailing_bytes_raise():
    frame, _ = encode(("ok", [np.arange(8, dtype=np.int64)], ()))
    with pytest.raises(FrameError):
        decode(frame + b"\x00")


# -- pool protocol: death, round trips, write errors -------------------------


def put_many(pool, sid, tags, times, values):
    pool.call("put_many", {sid: ("stats", tags, times, values)})


def test_recv_death_raises_shard_worker_died():
    """The satellite pin: a death during recv is ShardWorkerDied —
    not the UnboundLocalError the old ``status, result = conn.recv()``
    control flow would produce if the death path ever fell through."""
    pool = ShardWorkerPool(2, 2, chunk_size=32)
    try:
        pool._procs[0].terminate()
        pool._procs[0].join()
        with pytest.raises(ShardWorkerDied) as err:
            pool._recv_reply(0)
        assert err.value.worker == 0
        assert err.value.shards == list(pool.assignment[0])
        # the death is recorded: the next use raises cleanly too
        with pytest.raises(ShardWorkerDied):
            pool._exchange(0, "stats", {pool.assignment[0][0]: ()})
    finally:
        pool.close()


def test_kill_mid_frame_raises_died_never_truncated():
    """Kill a worker while a multi-megabyte reply is mid-pipe: the
    coordinator must raise ShardWorkerDied, never hand back a
    truncated column."""
    pool = ShardWorkerPool(2, 2, chunk_size=4096)
    try:
        sid = pool.assignment[0][0]
        n = 500_000  # 8 MB of values: far beyond any pipe buffer
        t = np.arange(n, dtype=np.int64)
        v = np.sqrt(np.arange(n, dtype=np.float64))
        put_many(pool, sid, {"host": "h"}, t, v)
        pool._send(0, "scan", {sid: ("stats", [_tagkey({"host": "h"})], None)})
        # wait until the reply starts flowing — the worker is now
        # blocked mid-frame (the message dwarfs the pipe buffer)
        assert pool._conns[0].poll(30.0)
        pool._procs[0].terminate()
        pool._procs[0].join()
        with pytest.raises(ShardWorkerDied):
            pool._recv_reply(0)
    finally:
        pool.close()


def battery(db):
    """Every point and every window statistic, as comparable bytes."""
    result = db.query("stats", group_by=("host", "event"))
    return (
        [(s.tags, s.times.tobytes(), s.values.tobytes())
         for s in result.series],
        [repr(st) for st in db.window_stats("stats")],
    )


def test_kill_between_writes_raises_at_the_next_write_and_respawn_recovers(
    fleet_day,
):
    """A worker killed between two writes: the second ``put_many``
    raises ShardWorkerDied itself, and respawn plus a re-ingest of the
    lost shards' raw files gives the same queries bit for bit."""
    source = StoreSource(str(fleet_day.store.root))
    db = ShardedTSDB(shards=2, workers=2, chunk_size=CHUNK_SIZE)
    try:
        db.ingest(source, types=TYPES)
        want = battery(db)
        tags = next({"host": f"probe{i}"} for i in range(100)
                    if db.map.place_tags("probe", {"host": f"probe{i}"}) == 0)
        db.put_many("probe", tags, [0], [1.0])
        db.backend._procs[0].kill()
        db.backend._procs[0].join()
        with pytest.raises(ShardWorkerDied) as err:
            db.put_many("probe", tags, [10], [2.0])
        assert err.value.worker == 0
        lost = db.respawn(0)
        assert lost == [0]
        db.ingest(source, types=TYPES, hosts=[
            h for h in source.hosts() if db.map.place(h) in lost])
        assert battery(db) == want
    finally:
        db.close()


@pytest.mark.parametrize("workers, raised, match", [
    (0, ValueError, "^times/values must be aligned"),
    (1, RuntimeError, "^shard worker 0: ValueError: times/values"),
], ids=["local", "pool"])
def test_a_bad_write_raises_at_that_call(workers, raised, match, fleet_day):
    """Misaligned columns: the in-process store's ``ValueError`` is
    raised by the ``put_many`` itself, and through a worker as a
    ``RuntimeError`` carrying it; the store keeps what it held and
    answers as before."""
    source = StoreSource(str(fleet_day.store.root))
    db = ShardedTSDB(shards=2, workers=workers, chunk_size=CHUNK_SIZE)
    try:
        db.ingest(source, types=TYPES)
        want = battery(db), db.n_points()
        host = source.hosts()[0]
        with pytest.raises(raised, match=match):
            db.put_many("stats", {"host": host}, [1, 2, 3], [1.0])
        assert (battery(db), db.n_points()) == want
    finally:
        db.close()


def test_scatter_err_reply_is_not_marked_stale():
    """An "err"-status reply is fully consumed before ``_recv_reply``
    raises; marking it stale would make the next call to that worker
    discard its *fresh* reply and block forever on the pipe."""
    pool = ShardWorkerPool(2, 2, chunk_size=32)
    try:
        sid0 = pool.assignment[0][0]
        sid1 = pool.assignment[1][0]
        bad = {sid0: ("stats", [_tagkey({"host": "nope"})], None)}
        with pytest.raises(RuntimeError, match="shard worker 0"):
            pool._scatter({0: ("scan", bad), 1: ("stats", {sid1: ()})})
        # worker 0's err frame was read: only worker 1's genuinely
        # unread reply is stale, and the pool still answers
        assert pool._stale[0] == 0
        assert pool._stale[1] == 1
        stats = pool.call("stats", {sid0: (), sid1: ()})
        assert stats[sid0]["points"] == 0
        assert pool._stale == [0, 0]  # stale reply drained exactly once
    finally:
        pool.close()


def test_harvest_err_reply_is_a_miss_not_an_abort():
    """A worker answering ``obs_snapshot`` with an "err" reply joins
    the report's ``missing`` list like a dead worker does; aborting
    the gather would leave the other workers' queued replies unread
    and desynchronise their streams."""
    from repro.obs.harvest import HarvestMerger

    pool = ShardWorkerPool(2, 2, chunk_size=32)
    try:
        real = pool._recv_reply

        def flaky(w):
            snap = real(w)  # consume the frame, like a real err reply
            if w == 0:
                raise RuntimeError("shard worker 0: snapshot failed")
            return snap

        pool._recv_reply = flaky
        report = pool.harvest_obs(HarvestMerger())
        assert report.missing == ["w0"]
        assert report.sources == ["w1"]
        pool._recv_reply = real
        assert pool.call("stats", {0: (), 1: ()})  # streams still in sync
    finally:
        pool.close()


def test_large_scan_reply_is_bit_identical_views_over_the_frame():
    """A 64 k-point scan through a real worker: both columns arrive
    bit-exact, read-only, and backed by the one received frame."""
    t = 1_443_657_600 + np.arange(65536, dtype=np.int64) * 10
    v = np.where(t % 97 == 0, np.nan, np.sqrt(np.arange(65536.0)))
    with ShardWorkerPool(1, 1, chunk_size=8192) as pool:
        put_many(pool, 0, {"host": "h"}, t, v)
        got_t, got_v = pool.call(
            "scan", {0: ("stats", [_tagkey({"host": "h"})], None)})[0][0]
    assert_cols_bitwise((got_t, got_v), (t, v))
    assert not got_t.flags.writeable and not got_v.flags.writeable
    frame = _frame_of(got_t)
    assert isinstance(frame, bytes) and _frame_of(got_v) is frame
    assert len(frame) >= t.nbytes + v.nbytes


@pytest.mark.parametrize("shards, workers", [(4, 1), (7, 2), (3, 6)])
def test_assignment_is_shard_modulo_workers(shards, workers):
    with ShardWorkerPool(shards, workers, chunk_size=32) as pool:
        want = [[s for s in range(shards) if s % workers == w]
                for w in range(workers)]
        assert pool.assignment == want
        for w in range(workers):
            assert pool.respawn(w) == want[w]
        assert pool.assignment == want
