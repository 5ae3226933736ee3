"""Multi-process scale-out: consistent-hash sharding for the TSDB.

One collector box stops being enough somewhere between a rack and a
fleet (the paper's deployment watches 50k+ hosts); this package scales
the ingest and query load across OS processes without changing a
single result bit:

* :mod:`repro.shard.ring` — :class:`ShardMap`, a consistent-hash ring
  with virtual nodes giving every ``(host, metric)`` partition key a
  deterministic owner shard;
* :mod:`repro.shard.coordinator` — :class:`ShardedTSDB`, the one
  sharded store: it routes writes through the ring, splits each
  command's arguments by shard and merges the shards' replies;
* :mod:`repro.shard.worker` — the op table (what each command does to
  one shard's store), the in-process backend that calls it, and the
  spawn-safe worker entry point that serves it;
* :mod:`repro.shard.pool` — :class:`ShardWorkerPool`, the same one
  verb (``call``) over OS processes behind duplex pipes; worker ``w``
  owns the shards ``s % workers == w``, and answers every command;
* :mod:`repro.shard.transport` — the framed pickle-5 codec every
  message crosses a pipe in, columns out-of-band inside the frame;
* :mod:`repro.shard.stream` — the sharded streaming pipeline: the
  live feed's rows written through one retention writer per shard.

The contract, enforced by the equivalence suites: any query answered
by a :class:`ShardedTSDB` — at any shard count, in-process or across
workers — is *bit-identical* to the same query on one
:class:`~repro.tsdb.store.TimeSeriesDB` holding the same data.

>>> from repro.shard import ShardMap, ShardedTSDB
>>> ShardMap(shards=4).place("c001-003")
3
>>> db = ShardedTSDB(shards=4)
>>> _ = db.put_many("stats", {"host": "c001-003"}, [0, 10], [1.0, 2.0])
>>> [s.count for s in db.window_stats("stats")]
[2]

See docs/scaling.md for the design and the scaling benchmark.
"""

from repro.shard.coordinator import (
    RemoteSeries,
    ShardedTSDB,
    ShardIngestReport,
)
from repro.shard.ingest import StoreSource, TemplateSource
from repro.shard.pool import ShardWorkerDied, ShardWorkerPool
from repro.shard.ring import DEFAULT_VNODES, ShardMap
from repro.shard.stream import ShardedStreamPipeline
from repro.shard.worker import worker_main

__all__ = [
    "DEFAULT_VNODES",
    "RemoteSeries",
    "ShardIngestReport",
    "ShardMap",
    "ShardWorkerDied",
    "ShardWorkerPool",
    "ShardedStreamPipeline",
    "ShardedTSDB",
    "StoreSource",
    "TemplateSource",
    "worker_main",
]
