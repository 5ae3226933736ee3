"""Transport gate: zero-copy shard RPC must beat the legacy encoding.

Two wall-clock-independent ratios, recorded in ``BENCH_rpc.json`` and
enforced on every run (no CPU-count escape hatch — both gates compare
byte and message *counts*, which do not depend on machine speed):

* **scan reply wire bytes** — a 64k-point scan reply with the
  shared-memory arena enabled must put at least ``4×`` fewer bytes on
  the pipe than the legacy ``conn.send(("ok", [(list(t), list(v))]))``
  encoding would (in practice the frame carries only the envelope, so
  the measured ratio is in the hundreds);
* **streaming write round-trips** — ``N`` pipelined ``put_many`` calls
  under the default credit window must cost at least ``5×`` fewer
  synchronous round-trips than the legacy one-reply-per-write
  protocol's ``N``.

Wall times and throughput ride along in the payload for the curve's
sake but are never gated.
"""

import json
import pickle
import time
from pathlib import Path

import numpy as np

from benchmarks._support import report
from repro import obs
from repro.shard.pool import ShardWorkerPool
from repro.tsdb.store import _tagkey

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_rpc.json"

N_SCAN = 65536          # the gated scan reply: 64k points, 1 MiB of columns
N_WRITES = 512          # pipelined micro-batches on the write path
WINDOW = 64             # default credit window
MIN_WIRE_RATIO = 4.0    # legacy bytes / measured rx bytes
MIN_RTT_RATIO = 5.0     # legacy round-trips / measured round-trips
T0 = 1_443_657_600


def record_bench(section: str, payload: dict) -> None:
    """Merge one benchmark's numbers into BENCH_rpc.json."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_scan_reply_wire_bytes_gate():
    rng = np.random.default_rng(2016)
    t = T0 + np.arange(N_SCAN, dtype=np.int64) * 10
    v = rng.standard_normal(N_SCAN)
    wire = obs.counter("repro_shard_rpc_wire_bytes_total", "")
    oob = obs.counter("repro_shard_rpc_oob_bytes_total", "")

    with ShardWorkerPool(1, 1, chunk_size=8192) as pool:
        pool.post("put_many", 0, ("stats", {"host": "h0"}, t, v))
        pool.flush()
        rx0 = wire.value(dir="rx")
        arena0 = oob.value(placement="arena")
        t_start = time.perf_counter()
        cols = pool.call(
            "scan", {0: ("stats", [_tagkey({"host": "h0"})], None)})[0]
        wall = time.perf_counter() - t_start
        rx_bytes = wire.value(dir="rx") - rx0
        arena_bytes = oob.value(placement="arena") - arena0

        got_t, got_v = cols[0]
        assert np.array_equal(got_t, t)
        assert np.array_equal(
            np.asarray(got_v).view(np.uint64), v.view(np.uint64)
        )

    # the protocol this PR replaced: default-pickle envelope with the
    # columns materialised as Python lists
    legacy_bytes = len(pickle.dumps(("ok", [(t.tolist(), v.tolist())])))
    ratio = legacy_bytes / max(1, rx_bytes)

    payload = {
        "points": N_SCAN,
        "column_bytes": int(t.nbytes + v.nbytes),
        "legacy_reply_bytes": legacy_bytes,
        "rx_wire_bytes": int(rx_bytes),
        "arena_bytes_by_reference": int(arena_bytes),
        "wire_ratio": round(ratio, 1),
        "scan_wall_s": round(wall, 4),
        "points_per_s": round(N_SCAN / wall) if wall > 0 else None,
        "gate": f"enforced: >= {MIN_WIRE_RATIO}x fewer wire bytes",
    }
    record_bench("scan_reply_wire", payload)
    report(
        f"scan reply wire bytes ({N_SCAN} points, arena on)",
        [("legacy pickle", f"{legacy_bytes:,} B", "1.0x"),
         ("zero-copy frame", f"{int(rx_bytes):,} B", f"{ratio:.0f}x")],
        ["encoding", "pipe bytes", "reduction"],
    )
    assert arena_bytes >= t.nbytes + v.nbytes and rx_bytes <= 300, (
        "scan columns should travel by shared-memory reference"
    )
    assert ratio >= MIN_WIRE_RATIO, (
        f"scan reply moved {rx_bytes} wire bytes vs {legacy_bytes} "
        f"legacy — only {ratio:.1f}x (gate {MIN_WIRE_RATIO}x)"
    )


def test_streaming_write_roundtrips_gate():
    rtt = obs.counter("repro_shard_rpc_roundtrips_total", "")
    posted = obs.counter("repro_shard_rpc_writes_pipelined_total", "")

    with ShardWorkerPool(1, 1, chunk_size=8192, rpc_window=WINDOW) as pool:
        r0, p0 = rtt.total(), posted.total()
        t_start = time.perf_counter()
        for i in range(N_WRITES):
            pool.post("put_many", 0, (
                "stats", {"host": f"h{i % 8}"}, [T0 + i * 10], [float(i)],
            ))
        pool.flush()
        wall = time.perf_counter() - t_start
        roundtrips = rtt.total() - r0
        pipelined = posted.total() - p0
        assert pool.call("stats", {0: ()})[0]["points"] == N_WRITES

    legacy = N_WRITES  # the replaced protocol: one reply awaited per write
    ratio = legacy / max(1, roundtrips)

    payload = {
        "writes": N_WRITES,
        "rpc_window": WINDOW,
        "legacy_roundtrips": legacy,
        "roundtrips": int(roundtrips),
        "writes_pipelined": int(pipelined),
        "roundtrip_ratio": round(ratio, 1),
        "write_wall_s": round(wall, 4),
        "writes_per_s": round(N_WRITES / wall) if wall > 0 else None,
        "gate": f"enforced: >= {MIN_RTT_RATIO}x fewer round-trips",
    }
    record_bench("streaming_write_roundtrips", payload)
    report(
        f"streaming write path ({N_WRITES} micro-batches, window {WINDOW})",
        [("legacy sync", f"{legacy}", "1.0x"),
         ("pipelined", f"{int(roundtrips)}", f"{ratio:.0f}x")],
        ["protocol", "round-trips", "reduction"],
    )
    assert pipelined == N_WRITES
    assert roundtrips == N_WRITES // WINDOW  # one sync per full window
    assert ratio >= MIN_RTT_RATIO, (
        f"{N_WRITES} writes cost {roundtrips} round-trips — only "
        f"{ratio:.1f}x better than legacy (gate {MIN_RTT_RATIO}x)"
    )
