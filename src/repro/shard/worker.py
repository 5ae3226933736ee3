"""The shard op table, and the two places it runs.

:data:`OPS` is the whole shard-local command set: one row per command,
a function of *one* shard's :class:`~repro.tsdb.store.TimeSeriesDB`
and the command's arguments.  How a call's arguments split by shard
and how the shards' replies merge is
:class:`~repro.shard.coordinator.ShardedTSDB`'s business; both backends
are the same one-verb proxy over the table,
``call(op, {shard: args}) -> {shard: result}``:

* **in-process** (``workers=0``): :class:`LocalShards` holds the shard
  stores and calls the row — deterministic, sim-friendly, and the
  configuration the equivalence suites pin bit-for-bit against the
  single store;
* **multi-process**: :func:`worker_main`, the spawn entry point of a
  :class:`~repro.shard.pool.ShardWorkerPool` process, serves a
  :class:`LocalShards` of its own over a duplex pipe.  Everything
  crossing the pipe (sources, tag dicts, NumPy columns,
  :class:`~repro.tsdb.query.SeriesStats`) pickles losslessly, so a
  scatter-gathered result is bit-identical to the in-process one.

An ingest command carries a picklable *source*
(:mod:`repro.shard.ingest`), the host names to pull from it, and the
blocks the coordinator's own ETL pass already parsed of some of them
(their columns only, out-of-band); a worker parses the other hosts' files
itself.  Every host goes through the same
:func:`~repro.tsdb.store.ingest_file` the single-process loader uses.
Raw text never crosses the pipe.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.rawfile import HostBlock
from repro.obs.harvest import snapshot_process
from repro.tsdb.query import window_stats
from repro.tsdb.store import TagKey, TimeSeriesDB, ingest_file

__all__ = ["OPS", "LocalShards", "worker_main"]


def _ingest(
    store: TimeSeriesDB,
    source,
    hosts: Sequence[str],
    types: Optional[Sequence[str]],
    metric: str,
    blocks: Mapping[str, HostBlock],
) -> Dict[str, float]:
    """Load ``hosts`` into this shard: each through
    :func:`~repro.tsdb.store.ingest_file`, as the block ``blocks``
    carries for it (parsed by the coordinator's ETL pass), else as the
    file ``source`` opens, parsed here.  A regular host file is one
    block write (one ``put_many``, one head block).

    Returns ``{points, samples, seconds}`` — the per-shard report
    behind ``repro_shard_points_total`` and ``repro_shard_ingest_seconds``.
    """
    points = samples = 0
    t0 = time.perf_counter()
    for host in hosts:
        src = blocks.get(host)
        if src is None:
            with source.open(host) as fh:
                src = fh.read()
        n, k = ingest_file(store, host, src, types=types, metric=metric)
        points += n
        samples += k
    return {
        "points": points, "samples": samples,
        "seconds": time.perf_counter() - t0,
    }


def _select(
    store: TimeSeriesDB, metric: str, tags: Optional[Mapping[str, object]]
) -> list:
    """Tags of every matching series (handles never cross the pipe)."""
    return [dict(s.tags) for s in store.select(metric, tags)]


def _scan(
    store: TimeSeriesDB,
    metric: str,
    keys: Sequence[TagKey],
    time_range: Optional[Tuple[int, int]],
):
    """Materialise the named series in request order — the store's
    scan: one buffer-cache lookup and one batched decode
    (``decode_concat``) across everything asked of this shard."""
    return store.scan([store._series[(metric, k)] for k in keys], time_range)


def _stats(store: TimeSeriesDB) -> Dict[str, int]:
    return {
        "points": store.n_points(),
        "series": store.n_series(),
        "chunks": store.n_chunks(),
        "bytes": store.storage_bytes(),
    }


#: command → ``fn(store, *args)``, run on one shard's store.  The names
#: are the only ones a worker answers to; a command added here is
#: reachable through both backends and must be merged in ShardedTSDB.
#: The rows that are a store method as it stands call it through the
#: store, not as ``TimeSeriesDB.put``: a wrapper put on the class later
#: (``bench/spans.py`` times ``seal_heads`` that way) must be what runs.
OPS: Dict[str, Callable] = {
    "put": lambda store, *args: store.put(*args),
    "put_many": lambda store, *args: store.put_many(*args),
    "ingest": _ingest,
    "prune": lambda store, *args: store.prune(*args),
    "select": _select,
    "scan": _scan,
    # each shard folds its own per-chunk partials (sealed pre-aggregates
    # for covered chunks): the expensive half runs where the data lives
    "window_stats": window_stats,
    "stats": _stats,
    "drop_read_caches": lambda store: store.drop_read_caches(),
    "seal_heads": lambda store: store.seal_heads(),
}


class LocalShards:
    """The in-process backend: the shard stores, and the one verb."""

    def __init__(self, shard_ids: Iterable[int], chunk_size: int) -> None:
        self.stores: Dict[int, TimeSeriesDB] = {
            int(s): TimeSeriesDB(chunk_size=int(chunk_size))
            for s in shard_ids
        }

    def call(
        self, op: str, args_by_shard: Mapping[int, tuple]
    ) -> Dict[int, object]:
        """Run ``OPS[op]`` on each named shard with its own arguments."""
        fn = OPS.get(op)
        if fn is None:
            raise ValueError(f"unknown shard op {op!r}")
        return {
            shard: fn(self.stores[shard], *args)
            for shard, args in args_by_shard.items()
        }

    def close(self) -> None:
        """No process to stop."""


def worker_main(
    conn,
    shard_ids: Sequence[int],
    chunk_size: int,
) -> None:
    """Process entry point: serve :data:`OPS` over ``conn``.

    Spawn-safe: importable at module top level with picklable
    arguments only.  Every request is one
    :mod:`repro.shard.transport` frame carrying ``(cmd, payload, ctx)``
    — ``payload`` is ``{shard: args}`` and ``ctx`` is the coordinator's
    ``(trace_id, span_id)`` or ``None`` — and every request is answered
    by one frame, ``("ok", {shard: result})`` or ``("err", message)``.
    ``cmd`` is looked up in :data:`OPS` and nowhere else: any other
    name, whatever attribute it spells, fails like a failed command.

    Reply columns travel out-of-band inside the reply frame.  The loop
    exits on ``close`` or a dropped pipe (coordinator death must not
    leak workers).

    Every shard operation runs inside a ``shard.worker.<cmd>`` span
    joined to the coordinator's trace via ``ctx``; the
    ``obs_snapshot`` command (answered here, not a row of the table)
    ships the worker's cumulative metrics and finished spans
    back for the coordinator-side
    :class:`~repro.obs.harvest.HarvestMerger`.  The snapshot itself is
    deliberately *untraced* — every span in it is finished before the
    reply leaves, which is what makes the merger's span-id cursor a
    valid dedup watermark.
    """
    from repro.shard import transport

    shards = LocalShards(shard_ids, chunk_size)

    def reply(status: str, result) -> None:
        frame, _ = transport.encode((status, result))
        conn.send_bytes(frame)

    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            (cmd, payload, ctx), _ = transport.decode(frame)
        except Exception:  # corrupt request: die visibly, not wrongly
            break
        try:
            if cmd == "close":
                reply("ok", None)
                break
            if cmd == "obs_snapshot":
                reply("ok", snapshot_process())
                continue
            with obs.span(f"shard.worker.{cmd}", remote_parent=ctx):
                result = shards.call(cmd, payload)
            reply("ok", result)
        except Exception as exc:  # surfaced coordinator-side
            try:
                reply("err", f"{type(exc).__name__}: {exc}")
            except Exception:  # reply itself unserialisable/dead
                break
    conn.close()
