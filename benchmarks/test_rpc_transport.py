"""Transport gate: what the frame codec buys.

Machine-speed-independent counts, recorded in ``BENCH_rpc.json``
(stamped with ``commit`` and ``cpu_count``) and enforced on every run
(no CPU-count escape hatch):

* **scan reply codec** — a 64k-point scan reply through a real worker
  must (a) put at most ``MAX_FRAME_OVERHEAD`` bytes on the pipe above
  the raw column bytes, (b) decode with a ``tracemalloc`` peak at least
  ``MIN_ALLOC_RATIO``× below ``pickle.loads`` of the legacy
  ``("ok", [(list(t), list(v))])`` reply, and (c) hand back columns
  that do not own their data (views over the received frame).  The
  frame is *larger* than the legacy pickle (8 bytes a point against
  pickle's compact ints), so a byte ratio would gate the wrong thing:
  what the codec buys is no per-point Python object on either side.

Wall times and throughput ride along in the payload for the curve's
sake but are never gated.
"""

import gc
import pickle
import time
import tracemalloc
from pathlib import Path

import numpy as np

from benchmarks._support import record_bench, report
from repro import obs
from repro.shard.pool import ShardWorkerPool
from repro.shard.transport import decode, encode
from repro.tsdb.store import _tagkey

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_rpc.json"

N_SCAN = 65536          # the gated scan reply: 64k points, 1 MiB of columns
MAX_FRAME_OVERHEAD = 300  # frame bytes above the raw column bytes
MIN_ALLOC_RATIO = 100.0   # legacy loads peak / frame decode peak
T0 = 1_443_657_600


def _alloc_peak(fn) -> int:
    """Peak bytes ``tracemalloc`` sees while ``fn()`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak


def test_scan_reply_codec_gate():
    rng = np.random.default_rng(2016)
    t = T0 + np.arange(N_SCAN, dtype=np.int64) * 10
    v = rng.standard_normal(N_SCAN)
    wire = obs.counter("repro_shard_rpc_wire_bytes_total", "")

    with ShardWorkerPool(1, 1, chunk_size=8192) as pool:
        pool.call("put_many", {0: ("stats", {"host": "h0"}, t, v)})
        rx0 = wire.value(dir="rx")
        t_start = time.perf_counter()
        cols = pool.call(
            "scan", {0: ("stats", [_tagkey({"host": "h0"})], None)})[0]
        wall = time.perf_counter() - t_start
        rx_bytes = wire.value(dir="rx") - rx0

    got_t, got_v = cols[0]
    assert np.array_equal(got_t, t)
    assert np.array_equal(np.asarray(got_v).view(np.uint64), v.view(np.uint64))

    column_bytes = t.nbytes + v.nbytes
    overhead = rx_bytes - column_bytes
    # the worker's reply, re-encoded here: the same frame byte for byte
    frame, _ = encode(("ok", {0: [(t, v)]}))
    assert len(frame) == rx_bytes
    # the protocol the codec replaced: default-pickle envelope with the
    # columns materialised as Python lists
    legacy = pickle.dumps(("ok", [(t.tolist(), v.tolist())]))
    decode_peak = _alloc_peak(lambda: decode(frame))
    legacy_peak = _alloc_peak(lambda: pickle.loads(legacy))
    alloc_ratio = legacy_peak / max(1, decode_peak)
    views = not got_t.flags.owndata and not got_v.flags.owndata

    payload = {
        "points": N_SCAN,
        "column_bytes": int(column_bytes),
        "rx_wire_bytes": int(rx_bytes),
        "frame_overhead_bytes": int(overhead),
        "legacy_reply_bytes": len(legacy),
        "decode_peak_bytes": int(decode_peak),
        "legacy_loads_peak_bytes": int(legacy_peak),
        "alloc_ratio": round(alloc_ratio, 1),
        "columns_are_views": views,
        "scan_wall_s": round(wall, 4),
        "points_per_s": round(N_SCAN / wall) if wall > 0 else None,
        "gate": (f"enforced: overhead <= {MAX_FRAME_OVERHEAD} B, "
                 f">= {MIN_ALLOC_RATIO:.0f}x smaller decode peak, "
                 f"columns are views"),
    }
    record_bench(BENCH_JSON, "scan_reply_codec", payload)
    report(
        f"scan reply ({N_SCAN} points, {column_bytes:,} B of columns)",
        [("legacy pickle", f"{len(legacy):,} B", f"{legacy_peak:,} B"),
         ("RSF1 frame", f"{int(rx_bytes):,} B", f"{decode_peak:,} B")],
        ["encoding", "pipe bytes", "decode alloc peak"],
    )
    assert overhead <= MAX_FRAME_OVERHEAD, (
        f"scan reply frame carries {overhead} B above its columns "
        f"(gate {MAX_FRAME_OVERHEAD} B)"
    )
    assert alloc_ratio >= MIN_ALLOC_RATIO, (
        f"decode peak {decode_peak} B vs legacy {legacy_peak} B — only "
        f"{alloc_ratio:.1f}x (gate {MIN_ALLOC_RATIO:.0f}x)"
    )
    assert views, "decoded scan columns should be views over the frame"
