"""Resource-aware shard→worker assignment.

The pool has more shards than workers (shards are the unit of data
placement; workers are the unit of parallelism), so somebody must
decide which worker hosts which shards.  :class:`ResourceScheduler`
does it the way Klever's native/resource scheduler packs jobs onto
nodes: every shard carries an observed load, and shards are placed
longest-processing-time-first onto the currently least-loaded worker
— the classic LPT greedy, within 4/3 of the optimal makespan.

Loads come from two places, in preference order:

1. **observed** — per-shard ``{points, seconds}`` reported back by
   the workers after an ingest round (:meth:`observe`), mirrored into
   the :mod:`repro.obs` registry
   (``repro_shard_points_total{shard=…}``,
   ``repro_shard_ingest_seconds``) so the portal's ``/obs`` page and
   the next :meth:`plan` read the same numbers;
2. **hinted** — before anything ran, per-host hints from the source
   (raw file sizes for a :class:`~repro.shard.ingest.StoreSource`)
   summed per shard and handed to :meth:`plan` as ``loads``.

``plan()`` with no information at all degrades to round-robin (every
shard load 1.0), which is also exactly what a fresh ring gets.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro import obs

__all__ = ["ResourceScheduler"]


class ResourceScheduler:
    """LPT packing of shards onto workers by observed load."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        #: shard → accumulated observed load (seconds, else points)
        self._loads: Dict[int, float] = {}

    # -- load accounting -----------------------------------------------------
    def observe(
        self, shard: int, points: int = 0, seconds: float = 0.0
    ) -> None:
        """Post-run observation from a worker's ingest report."""
        obs.counter(
            "repro_shard_points_total",
            "points ingested per shard across the worker pool",
        ).inc(points, shard=shard)
        if seconds:
            obs.histogram(
                "repro_shard_ingest_seconds",
                "wall seconds each shard's ingest slice took",
            ).observe(seconds, shard=shard)
        # observed time dominates any pre-run hint once available
        self._loads[shard] = self._loads.get(shard, 0.0) + (
            seconds if seconds else float(points)
        )

    # -- assignment ----------------------------------------------------------
    def plan(
        self,
        shards: Sequence[int],
        loads: Optional[Mapping[int, float]] = None,
    ) -> List[List[int]]:
        """Assign ``shards`` to ``self.workers`` workers, LPT greedy.

        Returns one shard-id list per worker (some may be empty when
        workers exceed shards).  Deterministic: ties break on shard
        id, so every process computes the same plan.
        """
        merged = dict(self._loads)
        for s, w in (loads or {}).items():
            merged[s] = merged.get(s, 0.0) + float(w)
        order = sorted(
            shards, key=lambda s: (-merged.get(s, 1.0), s)
        )
        assignment: List[List[int]] = [[] for _ in range(self.workers)]
        totals = [0.0] * self.workers
        for s in order:
            w = min(range(self.workers), key=lambda i: (totals[i], i))
            assignment[w].append(s)
            totals[w] += merged.get(s, 1.0)
        for w, sids in enumerate(assignment):
            obs.gauge(
                "repro_shard_worker_load",
                "planned load per worker under the current assignment",
            ).set(totals[w], worker=w)
            sids.sort()
        return assignment
