"""The sharded streaming pipeline: one tap, a writer per shard.

A sharded live feed is the plain
:class:`~repro.stream.pipeline.StreamPipeline` — one queue on the
daemon exchange, one parse per delivery, one analyzer, one alert
router — whose rows land in the stores of an in-process
:class:`~repro.shard.coordinator.ShardedTSDB`.  A host's series live
on the shard the consistent-hash ring gives it, the owner batch ingest
picks, and each shard store has its own
:class:`~repro.stream.retention.RetainingWriter`, so shards never
share write state.  Jobs span hosts and therefore shards, but every
sample still reaches the one analyzer in delivery order: flags and
the alert ledger equal the plain pipeline's as fired, and reads stay
bit-identical to a single-store run over the same traffic (the
equivalence suite pins ``shards=1`` and ``shards=3``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.broker import Broker
from repro.shard.coordinator import ShardedTSDB
from repro.stream.pipeline import StreamPipeline
from repro.stream.retention import RetainingWriter
from repro.tsdb.store import TimeSeriesDB

__all__ = ["ShardedStreamPipeline"]


class ShardedStreamPipeline(StreamPipeline):
    """A :class:`StreamPipeline` that owns a :class:`ShardedTSDB`.

    ``pipeline_args`` are the plain pipeline's, ``tsdb`` excepted.
    Rows go into the shard stores directly; the sharded store's
    ``epoch`` counts those writes, so ``query(pipe.tsdb, ...)`` and a
    portal over ``pipe.tsdb`` never serve a result cached before them.
    """

    def __init__(
        self, broker: Broker, shards: int = 1, **pipeline_args
    ) -> None:
        super().__init__(broker, tsdb=ShardedTSDB(shards), **pipeline_args)
        self.map = self.tsdb.map

    def _stores(self) -> List[TimeSeriesDB]:
        stores = self.tsdb.backend.stores
        return [stores[k] for k in range(self.tsdb.n_shards)]

    def _writer_for(self, host: str) -> RetainingWriter:
        return self.writers[self.map.place(host, self.metric)]

    # -- reads (scatter-gather, same store as batch shards) ------------------
    def window_stats(self, metric: str, **kw):
        return self.tsdb.window_stats(metric, **kw)

    def shard_points(self) -> Dict[int, int]:
        return {
            k: r["points"] for k, r in self.tsdb.shard_stats().items()
        }
