"""Bounded-memory retention for the live TSDB feed.

A fleet publishing every counter at a 10-minute cadence grows the
time-series store without bound; the paper's §VI-A OpenTSDB ambition
only works operationally with the standard TSDB answer: keep raw
points for a short horizon, keep progressively coarser rollups for
longer ones, and prune everything past its horizon.

:class:`RetainingWriter` wraps a :class:`~repro.tsdb.store.TimeSeriesDB`
with exactly that: every raw point is written through, each
:class:`RetentionTier` folds it into a fixed-interval bucket, and a
completed bucket is flushed as one point of the rollup metric
``<metric>.<aggregate><interval>s`` (e.g. ``stats.avg3600s``).  Pruning
runs off the *data* clock — the max timestamp written — so behaviour is
deterministic under the sim clock and needs no background thread.

The unit of work is the **row**: the live feed writes one host sample
as one ``(1, K)`` block across a :class:`~repro.tsdb.store.SeriesGroup`
of its K series, each tier keeps its K open buckets as three aligned
arrays, and a row folds into them with one array operation per tier.
When the buckets of a group roll over together — the normal case, all
K series share the sample's timestamp — they flush as one row of the
rollup metric's own group.  A single series is the K = 1 case of the
same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import handles
from repro.tsdb.store import SeriesGroup, TagKey, TimeSeriesDB, _tagkey

__all__ = ["RetentionTier", "RetentionPolicy", "RetainingWriter"]

_AGGREGATES = ("avg", "sum", "max", "min")

_ROLLUP_POINTS = handles.counter(
    "repro_stream_rollup_points_total",
    "downsampled rollup points flushed into the live TSDB",
)
_PRUNED = handles.counter(
    "repro_stream_points_pruned_total",
    "live-TSDB points dropped past their retention horizon",
)


@dataclass(frozen=True)
class RetentionTier:
    """One rollup tier: bucket ``interval`` seconds, keep ``horizon``."""

    interval: int
    horizon: int
    aggregate: str = "avg"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("tier interval must be positive")
        if self.aggregate not in _AGGREGATES:
            raise ValueError(
                f"unknown aggregate {self.aggregate!r}; use {_AGGREGATES}"
            )

    def rollup_metric(self, metric: str) -> str:
        return f"{metric}.{self.aggregate}{self.interval}s"


@dataclass(frozen=True)
class RetentionPolicy:
    """Raw horizon plus downsampling tiers (seconds of sim time)."""

    raw_horizon: int = 2 * 86400
    tiers: Tuple[RetentionTier, ...] = (
        RetentionTier(interval=3600, horizon=14 * 86400),
        RetentionTier(interval=86400, horizon=365 * 86400),
    )
    #: how often (in data time) the pruning pass runs
    prune_interval: int = 3600


#: what an empty bucket's accumulator holds, per aggregate
_EMPTY = {
    "avg": 0.0, "sum": 0.0, "max": float("-inf"), "min": float("inf"),
}


class _TierState:
    """One tier's open buckets for one group: a column per series.

    ``acc`` is the running sum for ``avg``/``sum`` tiers and the
    running extreme for ``min``/``max`` tiers.  ``start`` and ``count``
    are per column, not per group, because a bucket can move between
    groups while it is open (see :meth:`RetainingWriter._claim`): the
    columns of one group then roll over at different times.
    """

    __slots__ = ("start", "count", "acc", "empty")

    def __init__(self, k: int, aggregate: str) -> None:
        self.empty = _EMPTY[aggregate]
        self.start = np.zeros(k, dtype=np.int64)
        self.count = np.zeros(k, dtype=np.int64)
        self.acc = np.full(k, self.empty)


class _GroupState:
    """Everything the writer keeps for one group it has written."""

    __slots__ = ("tiers", "rollups", "owned")

    def __init__(self, group: SeriesGroup, policy: RetentionPolicy) -> None:
        self.tiers = [
            _TierState(len(group), tier.aggregate) for tier in policy.tiers
        ]
        #: per tier, the rollup metric's group (made at the first flush)
        self.rollups: List[Optional[SeriesGroup]] = [None] * len(self.tiers)
        #: columns whose open buckets live here (the rest moved on)
        self.owned = 0


class RetainingWriter:
    """Write-through TSDB writer applying a :class:`RetentionPolicy`.

    :meth:`put_many` is the write entry point, in the two shapes of
    :meth:`~repro.tsdb.store.TimeSeriesDB.put_many`.  The order of work
    inside one call is fixed: the whole block goes to the store, then
    every row is folded into the tiers in arrival order (flushing the
    buckets it closes), and only then does the prune check run — **once
    per call, after all rows of all series are written**.  A late point
    older than ``raw_horizon`` is therefore gone as soon as the call
    that carried it returns whenever a pruning pass is due, whichever
    series of the block it sits in.
    """

    def __init__(
        self,
        tsdb: TimeSeriesDB,
        policy: Optional[RetentionPolicy] = None,
    ) -> None:
        self.tsdb = tsdb
        self.policy = policy or RetentionPolicy()
        self._states: Dict[SeriesGroup, _GroupState] = {}
        #: series key → (group, column) holding its open buckets
        self._owner: Dict[Tuple[str, TagKey], Tuple[SeriesGroup, int]] = {}
        #: one-series groups, for callers that write by tag mapping
        self._singles: Dict[Tuple[str, TagKey], SeriesGroup] = {}
        #: every rollup metric this writer has made → its tier, which
        #: says how long the metric is kept whatever raw metrics exist
        self._rollups: Dict[str, RetentionTier] = {}
        self._max_ts: Optional[int] = None
        self._last_prune: Optional[int] = None
        self.pruned = 0
        self.rollup_points = 0

    def put(
        self, metric: str, tags: Mapping[str, str], ts: int, value: float
    ) -> None:
        """One raw point: write through, fold into tiers, maybe prune."""
        self.put_many(metric, tags, (ts,), (value,))

    def put_many(
        self,
        metric: str,
        tags: Union[Mapping[str, str], SeriesGroup],
        times: Sequence[int],
        values: Sequence[float],
    ) -> int:
        """Batched raw points: one write-through call.

        ``tags`` is one series' tag mapping with aligned ``(n,)``
        columns, or a :class:`~repro.tsdb.store.SeriesGroup` of this
        writer's store with an ``(n, K)`` block of rows.  Rows fold
        into the tiers one at a time in arrival order, so every series
        sees the same sequence of bucket folds and flushes as if its
        points had been :meth:`put` one by one.  Returns points
        written.
        """
        t = np.asarray(times, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if isinstance(tags, SeriesGroup):
            group = tags
        else:
            key = (metric, _tagkey(tags))
            group = self._singles.get(key)
            if group is None:
                group = self._singles[key] = self.tsdb.group(metric, [tags])
            if v.ndim == 1:
                v = v[:, None]
        n = self.tsdb.put_many(metric, group, t, v)
        if not n:
            return 0
        state = self._states.get(group)
        if state is None or state.owned < len(group):
            state = self._claim(group, state)
        for ts, row in zip(t.tolist(), v):
            self._fold_row(group, state, ts, row)
        last = int(t.max())
        if self._max_ts is None or last > self._max_ts:
            self._max_ts = last
        self._maybe_prune()
        return n

    def _claim(
        self, group: SeriesGroup, state: Optional[_GroupState]
    ) -> _GroupState:
        """Make ``group`` the holder of all its series' open buckets.

        Two groups may share series — a host whose device set or schema
        changed mid-stream writes through a new group, a caller may mix
        one-series and row writes — and a series' open bucket must
        carry on across the switch.  So each series has one owner, and
        a group about to fold takes over the columns another group
        still holds.
        """
        if state is None:
            state = self._states[group] = _GroupState(group, self.policy)
        for j, key in enumerate(group.keys):
            other, jo = self._owner.get(key, (group, j))
            if other is not group:
                theirs = self._states[other]
                for mine, old in zip(state.tiers, theirs.tiers):
                    mine.start[j] = old.start[jo]
                    mine.count[j] = old.count[jo]
                    mine.acc[j] = old.acc[jo]
                    old.count[jo] = 0
                theirs.owned -= 1
                if not theirs.owned:
                    del self._states[other]
            self._owner[key] = (group, j)
        state.owned = len(group)
        return state

    def _fold_row(
        self, group: SeriesGroup, state: _GroupState, ts: int,
        row: np.ndarray,
    ) -> None:
        """Fold one row into every tier's open buckets."""
        for i, tier in enumerate(self.policy.tiers):
            st = state.tiers[i]
            start = (ts // tier.interval) * tier.interval
            moved = st.start != start
            if moved.any():
                self._flush_columns(group, state, i, moved & (st.count > 0))
                st.start[moved] = start
            st.count += 1
            # a scalar min()/max() fold keeps the incumbent unless the
            # newcomer compares strictly beyond it, so a NaN never
            # replaces a value (np.minimum/np.maximum would let it)
            if tier.aggregate == "max":
                np.copyto(st.acc, row, where=row > st.acc)
            elif tier.aggregate == "min":
                np.copyto(st.acc, row, where=row < st.acc)
            else:
                # elementwise in arrival order: the same float sequence
                # per series as a scalar running total
                st.acc += row

    def _flush_columns(
        self, group: SeriesGroup, state: _GroupState, i: int,
        mask: np.ndarray,
    ) -> int:
        """Write the open buckets under ``mask`` as rollup points."""
        cols = np.flatnonzero(mask)
        if not len(cols):
            return 0
        tier, st = self.policy.tiers[i], state.tiers[i]
        values = st.acc[cols]
        if tier.aggregate == "avg":
            values = values / st.count[cols]
        starts = st.start[cols]
        rollup = state.rollups[i]
        if rollup is None:
            # the same layout under the rollup metric: its tag sets and
            # sorted keys are the raw group's own
            rollup = state.rollups[i] = self.tsdb.group(
                tier.rollup_metric(group.metric), group
            )
            self._rollups.setdefault(rollup.metric, tier)
        if len(cols) == len(group) and (starts == starts[0]).all():
            self.tsdb.put_many(
                rollup.metric, rollup, starts[:1], values[None, :]
            )
        else:
            # buckets that moved between groups roll over on their own
            for j, ts, x in zip(cols.tolist(), starts.tolist(),
                                values.tolist()):
                self.tsdb.put_many(
                    rollup.metric, rollup.tag_sets[j], (ts,), (x,)
                )
        st.count[cols] = 0
        st.acc[cols] = st.empty
        self.rollup_points += len(cols)
        _ROLLUP_POINTS.inc(len(cols))
        return len(cols)

    def flush(self) -> int:
        """Flush every open bucket (end of run); returns points written."""
        n = 0
        for group, state in list(self._states.items()):
            for i, st in enumerate(state.tiers):
                n += self._flush_columns(group, state, i, st.count > 0)
        return n

    def _maybe_prune(self) -> None:
        now = self._max_ts
        assert now is not None
        if (
            self._last_prune is not None
            and now - self._last_prune < self.policy.prune_interval
        ):
            return
        self._last_prune = now
        self.prune(now)

    def prune(self, now: int) -> int:
        """Apply every horizon relative to data-time ``now``.

        A metric is a rollup when this writer made it, and is kept for
        its tier's horizon — also once its raw metric is gone; every
        other metric is raw.  Each raw metric's pass also covers every
        tier's rollup of it, made yet or not.
        """
        metrics = self.tsdb.metrics()
        raw = [m for m in metrics if m not in self._rollups]
        passes = [(m, self.policy.raw_horizon) for m in raw] + [
            (tier.rollup_metric(m), tier.horizon)
            for tier in self.policy.tiers
            for m in raw
        ]
        covered = {m for m, _ in passes}
        passes += [
            (m, self._rollups[m].horizon)
            for m in metrics
            if m in self._rollups and m not in covered
        ]
        dropped = 0
        for m, horizon in passes:
            dropped += self.tsdb.prune(now - horizon, metric=m)
        if dropped:
            self.pruned += dropped
            _PRUNED.inc(dropped)
        return dropped
