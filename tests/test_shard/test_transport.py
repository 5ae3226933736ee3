"""The zero-copy shard RPC plane: codec, pipelining, chaos.

Two layers under test:

* the **frame codec** — protocol-5 envelopes with out-of-band column
  buffers must round-trip bit-exactly (NaN, ±inf, ``-0.0``, empty and
  single-point columns included), decode to zero-copy read-only
  views over the received frame, and refuse *any* truncated frame
  rather than surface a truncated column;
* the **pool protocol** — worker ``w`` owns the shards
  ``s % workers == w``, a death during ``recv`` raises
  :class:`ShardWorkerDied` (never ``UnboundLocalError``), a worker
  killed mid-frame or mid-pipelined-window surfaces at the next
  barrier with no silent data loss, and deferred worker-side write
  errors arrive at ``flush()``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.pool import ShardWorkerDied, ShardWorkerPool
from repro.shard.transport import FrameError, decode, encode
from repro.tsdb.store import _tagkey

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


# -- pool protocol: death, pipelining, barriers -------------------------------


def put_many(pool, sid, tags, times, values):
    pool.post("put_many", sid, ("stats", tags, times, values))


def points(pool, sid):
    return pool.call("stats", {sid: ()})[sid]["points"]


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
        pool.flush()
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


def test_kill_mid_window_surfaces_at_flush_and_respawn_recovers():
    """The acceptance chaos: pipelined writes + SIGKILL mid-window →
    ShardWorkerDied at the next barrier, then respawn + re-write
    restores full service with no silent loss."""
    pool = ShardWorkerPool(2, 2, chunk_size=64, rpc_window=10_000)
    try:
        sid = pool.assignment[0][0]
        for i in range(50):
            put_many(pool, sid, {"host": "h"}, [i * 10], [float(i)])
        pool._procs[0].kill()
        pool._procs[0].join()
        with pytest.raises(ShardWorkerDied) as err:
            pool.flush()
        assert err.value.worker == 0
        # recovery: respawn empty, re-ingest the durable copy
        assert pool.respawn(0) == sorted(pool.assignment[0])
        for i in range(50):
            put_many(pool, sid, {"host": "h"}, [i * 10], [float(i)])
        pool.flush()
        assert points(pool, sid) == 50
    finally:
        pool.close()


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


def test_deferred_errors_survive_a_stale_discarded_reply():
    """A stale-discarded reply may be the one carrying buffered
    pipelined-write failures out of the worker (``reply()`` drains the
    deferred buffer on *every* acked exchange); the discard must keep
    the errors for the next barrier, or they are silently lost."""
    pool = ShardWorkerPool(2, 2, chunk_size=32)
    try:
        sid0 = pool.assignment[0][0]
        sid1 = pool.assignment[1][0]
        # misaligned columns: worker 1 buffers a deferred write error
        put_many(pool, sid1, {"host": "x"}, [1, 2, 3], [1.0])
        # a scatter in which worker 0 errs first: worker 1's reply —
        # the one draining the deferred error — is marked stale
        bad = {sid0: ("stats", [_tagkey({"host": "nope"})], None)}
        with pytest.raises(RuntimeError, match="shard worker 0"):
            pool._scatter({0: ("scan", bad), 1: ("stats", {sid1: ()})})
        assert pool._stale[1] == 1
        # the stale reply is discarded at the next barrier, but the
        # write failure it carried must still raise there
        with pytest.raises(RuntimeError, match="pipelined shard writes"):
            pool.flush()
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


def test_pipelined_write_errors_surface_at_barrier():
    pool = ShardWorkerPool(2, 1, chunk_size=32)
    try:
        # misaligned columns: the worker-side extend raises, the
        # error is buffered, and the *flush* is where it surfaces
        put_many(pool, 0, {"host": "x"}, [1, 2, 3], [1.0])
        with pytest.raises(RuntimeError, match="pipelined shard writes"):
            pool.flush()
        # one barrier drains the buffer: the pool stays usable
        put_many(pool, 0, {"host": "x"}, [1, 2], [1.0, 2.0])
        pool.flush()
        assert points(pool, 0) == 2
    finally:
        pool.close()


def test_query_is_a_write_barrier():
    pool = ShardWorkerPool(2, 1, chunk_size=32)
    try:
        put_many(pool, 0, {"host": "x"}, [5, 6], [1.0])
        with pytest.raises(RuntimeError, match="pipelined shard writes"):
            pool.call("window_stats", {0: ("stats",), 1: ("stats",)})
    finally:
        pool.close()


def test_window_exhaustion_inserts_sync_barrier():
    pool = ShardWorkerPool(1, 1, chunk_size=32, rpc_window=4)
    try:
        # the 4th posted write trips the window and syncs: unacked
        # drops back to zero without an explicit flush
        for i in range(4):
            pool.post("put", 0, ("stats", {"host": "x"}, i, float(i)))
        assert pool._unacked[0] == 0
        pool.post("put", 0, ("stats", {"host": "x"}, 99, 1.0))
        assert pool._unacked[0] == 1
        pool.flush()
        assert pool._unacked[0] == 0
        assert points(pool, 0) == 5
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
