"""Continuous fleet analytics: sketches, job classes, efficiency scores.

The paper's §V workflow is offline: collect two days of raw stats,
then batch-compute Table I metrics and flag offenders.  Production
system-wide monitors (PerSyst at LRZ, the TACC Stats web portal) run
the same judgement *continuously* — every finished job is scored the
moment it completes, scores aggregate per user and per application,
and outliers surface against the live fleet distribution instead of a
fixed threshold.  This module is that always-on layer:

* :class:`TieredSketch` — one value feed's distribution under tiered
  retention: an all-time :class:`~repro.obs.sketch.QuantileSketch`
  plus aligned rolling windows (hour/day by default), each window
  keeping current + previous panes so a freshly rotated view never
  starts empty;
* :class:`ContinuousScorer` — PerSyst-style property scoring.  A
  job's Table I metric vector becomes six ``[0, 1]`` properties
  (balance, steadiness, compute, metadata, ethernet, memory), their
  mean is the job's *efficiency*, and a bounded counter-signature
  vector feeds online leader clustering into *job classes* — the
  "similar jobs" axis the paper's §V-B case studies eyeball by hand;
* :class:`FleetAnalytics` — the pipeline-facing hub: ingests live
  counter batches into per-feed sketches, scores completed jobs,
  maintains per-user / per-app efficiency sketches in the obs
  registry, and flags *fleet outliers* by sketch quantile
  (test-before-observe, so a verdict never depends on the job's own
  contribution to the distribution).

Everything here is deterministic given the sim clock and job stream:
sketches merge exactly, clustering order is delivery order, and
anomaly checks read the sketch state *before* folding the new value
in.  Alert routing stays in :mod:`repro.stream.pipeline` — this
module only reports :class:`Anomaly` records, keeping ``repro.obs``
free of upper-layer imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro.obs.registry import MetricRegistry
from repro.obs.sketch import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_BINS,
    QuantileSketch,
    observe_segments,
)

__all__ = [
    "ANALYTICS_METRICS",
    "DEFAULT_WINDOWS",
    "Anomaly",
    "ContinuousScorer",
    "FleetAnalytics",
    "JobScore",
    "TieredSketch",
]

#: the Table I metric vector jobs are scored on (order fixed — the
#: signature and centroid vectors index by it); the live flag analyzer
#: computes exactly these, as ``repro.stream.STREAM_METRICS``
ANALYTICS_METRICS: Tuple[str, ...] = (
    "MetaDataRate", "GigEBW", "MemUsage", "idle", "catastrophe", "cpi",
)

#: tiered-retention windows, sim seconds: one hour, one day
DEFAULT_WINDOWS: Tuple[int, ...] = (3600, 86400)

#: feed values staged before a fold is forced: the size of the one
#: staging buffer (4 MiB of float64) — a memory bound, not a tuning
#: knob.  A fold costs a few milliseconds whatever its size, so a small
#: fleet wants them rare; reads never see the difference (they fold
#: first, the registry's mirror sketch included)
FEED_FLUSH_LIMIT = 1 << 19


class TieredSketch:
    """One feed's value distribution under tiered retention.

    The all-time tier is a single ever-growing (but bounded-memory)
    sketch.  Each window tier keeps two panes — the current aligned
    window and the previous one — and serves their merge, so a view
    always covers between one and two windows of history instead of
    collapsing to nothing at each rotation.  Rotation is driven by
    the caller's (sim) clock, never the wall clock.
    """

    __slots__ = ("alpha", "max_bins", "all", "_panes")

    def __init__(
        self,
        windows: Sequence[int] = DEFAULT_WINDOWS,
        alpha: float = DEFAULT_ALPHA,
        max_bins: int = DEFAULT_MAX_BINS,
    ) -> None:
        self.alpha = float(alpha)
        self.max_bins = int(max_bins)
        self.all = QuantileSketch(alpha=self.alpha, max_bins=self.max_bins)
        #: window width → [pane index, current pane, previous pane]
        self._panes: Dict[int, list] = {
            int(w): [None, self._fresh(), self._fresh()]
            for w in sorted(set(int(w) for w in windows))
        }

    def _fresh(self) -> QuantileSketch:
        return QuantileSketch(alpha=self.alpha, max_bins=self.max_bins)

    def pane_at(self, window: int, idx: int) -> QuantileSketch:
        """Rotate ``window`` to pane index ``idx``; its current pane."""
        pane = self._panes[window]
        if pane[0] is None:
            pane[0] = idx
        elif idx == pane[0] + 1:
            pane[0], pane[2], pane[1] = idx, pane[1], self._fresh()
        elif idx > pane[0] + 1:
            # a whole window went by silently: nothing from the
            # previous pane is recent enough to keep
            pane[0], pane[1], pane[2] = idx, self._fresh(), self._fresh()
        return pane[1]

    def place(
        self, window: int, indices: Sequence[int]
    ) -> List[Optional[QuantileSketch]]:
        """Rotate ``window`` through non-decreasing pane ``indices``.

        Returns, per index, the pane that values seen then belong in —
        or ``None`` where that pane is rotated out again before the
        last index is reached, so nothing needs folding into it.  The
        panes end up exactly as if every index had been visited.
        """
        at = self._panes[window][0]
        # an index behind the window's own lands in its current pane
        last = indices[-1] if at is None else max(indices[-1], at)
        return [
            self.pane_at(window, idx)
            if (idx if at is None else max(idx, at)) >= last - 1 else None
            for idx in indices
        ]

    def observe_many(self, values, now: int) -> None:
        if not len(values):
            return
        now = int(now)
        self.all.observe_many(values)
        for w in self._panes:
            self.pane_at(w, now // w).observe_many(values)

    def observe(self, value: float, now: int) -> None:
        self.observe_many([value], now)

    @property
    def windows(self) -> Tuple[int, ...]:
        return tuple(self._panes)

    def view(self, window: Optional[int] = None) -> QuantileSketch:
        """A merged sketch of the requested tier (``None`` = all time)."""
        if window is None:
            return self.all.copy()
        pane = self._panes[int(window)]
        out = pane[2].copy()
        out.merge(pane[1])
        return out


@dataclass(frozen=True)
class Anomaly:
    """A completed job landed outside the fleet distribution."""

    rule: str
    value: float
    threshold: float
    detail: str


@dataclass
class JobScore:
    """One job's continuous-scoring verdict."""

    jobid: str
    user: str
    app: str
    job_class: int
    efficiency: float
    #: property name → [0, 1] score (NaN-metric properties omitted)
    properties: Dict[str, float] = field(default_factory=dict)
    #: bounded signature the job was classified on
    signature: Tuple[float, ...] = ()


class _JobClass:
    """One leader-clustering class: a running-mean centroid."""

    __slots__ = ("centroid", "count")

    def __init__(self, signature: Sequence[float]) -> None:
        self.centroid = list(signature)
        self.count = 1

    def distance(self, signature: Sequence[float]) -> float:
        return math.sqrt(sum(
            (a - b) ** 2 for a, b in zip(self.centroid, signature)
        ))

    def absorb(self, signature: Sequence[float]) -> None:
        self.count += 1
        inv = 1.0 / self.count
        for i, v in enumerate(signature):
            self.centroid[i] += (v - self.centroid[i]) * inv


class ContinuousScorer:
    """PerSyst-style property scoring + online leader clustering.

    Properties map each Table I metric onto ``[0, 1]`` where 1 is
    "no concern" (the orientation PerSyst uses for its strategy
    maps):

    * ``balance`` — ``idle`` is the min/max per-node CPU-usage ratio,
      already 1.0 for perfectly balanced jobs; clamped.
    * ``steadiness`` — ``catastrophe`` is the ratio of mean usage in
      the best and worst time windows; 1.0 means no sudden collapse.
    * ``compute`` — ``min(1, 1/cpi)``: a CPI at or under 1.0 scores
      full marks, memory-bound jobs decay smoothly.
    * ``metadata`` — ``1/(1 + rate/1000)``: soft penalty starting at
      the same order the §V-A threshold (1000 req/s) worries about.
    * ``ethernet`` — ``1/(1 + bw/10)``: MPI-over-GigE shows up as
      tens of MB/s, which drags this toward 0.
    * ``memory`` — usage relative to ``mem_per_node`` (waste of
      big-memory nodes is the paper's ``largemem_waste`` flag); with
      no capacity context it scores usage against 32 GB.

    Efficiency is the mean of whichever properties were computable
    (NaN metrics drop out rather than poisoning the score).

    Classification is leader clustering over a bounded signature
    ``x = v / (1 + |v|)`` per metric (NaN → 0): the first job founds
    class 0, each later job joins the nearest centroid within
    ``radius`` (updating it) or founds a new class.  Deterministic in
    delivery order, O(classes) per job, no training pass — the right
    trade for an always-on monitor.
    """

    def __init__(
        self, radius: float = 0.35, mem_per_node_gb: float = 32.0
    ) -> None:
        self.radius = float(radius)
        self.mem_per_node_gb = float(mem_per_node_gb)
        self.classes: List[_JobClass] = []

    # -- signatures ----------------------------------------------------------
    def signature(self, metrics: Mapping[str, float]) -> Tuple[float, ...]:
        sig = []
        for name in ANALYTICS_METRICS:
            v = float(metrics.get(name, math.nan))
            sig.append(0.0 if math.isnan(v) else v / (1.0 + abs(v)))
        return tuple(sig)

    def classify(self, signature: Sequence[float]) -> int:
        best, best_d = -1, math.inf
        for i, cls in enumerate(self.classes):
            d = cls.distance(signature)
            if d < best_d:
                best, best_d = i, d
        if best >= 0 and best_d <= self.radius:
            self.classes[best].absorb(signature)
            return best
        self.classes.append(_JobClass(signature))
        return len(self.classes) - 1

    # -- properties ----------------------------------------------------------
    @staticmethod
    def _clamp01(v: float) -> float:
        return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)

    def properties(self, metrics: Mapping[str, float]) -> Dict[str, float]:
        m = {k: float(metrics.get(k, math.nan)) for k in ANALYTICS_METRICS}
        props: Dict[str, float] = {}
        if not math.isnan(m["idle"]):
            props["balance"] = self._clamp01(m["idle"])
        if not math.isnan(m["catastrophe"]):
            props["steadiness"] = self._clamp01(m["catastrophe"])
        if not math.isnan(m["cpi"]) and m["cpi"] > 0:
            props["compute"] = min(1.0, 1.0 / m["cpi"])
        if not math.isnan(m["MetaDataRate"]) and m["MetaDataRate"] >= 0:
            props["metadata"] = 1.0 / (1.0 + m["MetaDataRate"] / 1000.0)
        if not math.isnan(m["GigEBW"]) and m["GigEBW"] >= 0:
            props["ethernet"] = 1.0 / (1.0 + m["GigEBW"] / 10.0)
        if not math.isnan(m["MemUsage"]) and m["MemUsage"] >= 0:
            props["memory"] = self._clamp01(
                1.0 - m["MemUsage"] / self.mem_per_node_gb
            )
        return props

    @staticmethod
    def efficiency(properties: Mapping[str, float]) -> float:
        if not properties:
            return math.nan
        return sum(properties.values()) / len(properties)


class _FeedPlan:
    """How the columns of one row layout regroup into feeds.

    ``order`` lists the columns feed by feed; ``offsets[i]:offsets[i +
    1]`` are the positions in it of ``keys[i]``'s columns.
    """

    __slots__ = ("keys", "order", "offsets")

    def __init__(self, feeds: Sequence[Tuple[str, str]]) -> None:
        columns: Dict[Tuple[str, str], List[int]] = {}
        for j, key in enumerate(feeds):
            columns.setdefault(key, []).append(j)
        self.keys = tuple(columns)
        self.order = _np.array(
            [j for cols in columns.values() for j in cols], dtype=_np.intp
        )
        self.offsets = _np.cumsum(
            [0] + [len(cols) for cols in columns.values()]
        )


class FleetAnalytics:
    """The always-on analytics hub the stream pipeline drives.

    ``observe_batch`` ingests every live counter column into per-feed
    :class:`TieredSketch` instances and mirrors the all-time tier in
    the obs registry (``repro_stream_feed_sketch{type=,event=}``), so
    the exporter surfaces fleet value distributions with no extra
    bookkeeping.  ``score_job`` runs the scorer, updates per-user /
    per-app efficiency sketches and the per-metric fleet sketches,
    and reports quantile outliers — checking each value against the
    distribution *before* adding it.
    """

    def __init__(
        self,
        registry: Optional[MetricRegistry] = None,
        scorer: Optional[ContinuousScorer] = None,
        windows: Sequence[int] = DEFAULT_WINDOWS,
        anomaly_quantile: float = 0.99,
        min_jobs: int = 8,
        alpha: float = DEFAULT_ALPHA,
        max_bins: int = DEFAULT_MAX_BINS,
    ) -> None:
        if registry is None:
            from repro import obs

            registry = obs.get_registry()
        self.registry = registry
        self.scorer = scorer or ContinuousScorer()
        self.windows = tuple(sorted({int(w) for w in windows}))
        self.anomaly_quantile = float(anomaly_quantile)
        self.min_jobs = int(min_jobs)
        self.alpha = float(alpha)
        self.max_bins = int(max_bins)
        #: (type, event) → tiered distribution of that counter feed
        self.feeds: Dict[Tuple[str, str], TieredSketch] = {}
        #: jobid → score (insertion = scoring order)
        self.scores: Dict[str, JobScore] = {}
        #: staging buffer for live feed values (allocated on first
        #: use).  A delivery costs one row copy into it; every feed of
        #: the fleet is then folded in one array pass per buffer-full —
        #: that is what keeps the always-on plane inside the ≤5 %
        #: overhead gate
        self._buf: Optional["_np.ndarray"] = None
        self._used = 0
        #: ``now`` of the latest staged block
        self._staged_until = 0
        #: staged row chunks in arrival order: [plan, panes, offset, rows]
        self._chunks: List[list] = []
        #: a layout's feed sequence → its column regrouping
        self._plans: Dict[Tuple[Tuple[str, str], ...], _FeedPlan] = {}
        #: id(feeds) → (feeds, plan) for the sequences staged since the
        #: last fold — a host hands in the same object every delivery
        self._plan_of: Dict[int, Tuple[object, _FeedPlan]] = {}

    # -- live feed ingest ----------------------------------------------------
    def is_scored(self, jobid: str) -> bool:
        return jobid in self.scores

    @property
    def jobs_scored(self) -> int:
        return len(self.scores)

    def observe_batch(
        self,
        blocks: Iterable[Tuple[Sequence[Tuple[str, str]], "_np.ndarray"]],
        now: int,
    ) -> None:
        """Stage one delivery's row blocks for the next fold.

        A block is ``(feeds, values)``: an ``(n, K)`` matrix of n
        samples across K series, and per column the ``(type, event)``
        feed it belongs to.  Devices aggregate into one ``(type,
        event)`` feed — fleet analytics cares about the distribution
        of values a counter takes across the fleet, not about
        individual devices (those stay queryable in the TSDB).

        Rows are copied into a staging buffer together with the window
        panes ``now`` falls in, and folded when it fills (or on a
        read): one vectorised pass over every feed, exact about which
        rows belong to which pane of which window.
        """
        now = int(now)
        if now < self._staged_until:
            # the clock stepped back: the tiers rotate in arrival
            # order, so what came before it is folded first
            self.flush_feeds()
        self._staged_until = now
        panes = tuple(now // w for w in self.windows)
        for feeds, values in blocks:
            if not values.size:
                continue
            plan = self._plan(feeds)
            if values.ndim != 2 or values.shape[1] != len(plan.order):
                raise ValueError(
                    f"block of shape {values.shape} for "
                    f"{len(plan.order)} feed columns"
                )
            if self._used + values.size > FEED_FLUSH_LIMIT:
                self.flush_feeds()
            if values.size > FEED_FLUSH_LIMIT:
                self._fold([(plan, panes, values)])
                continue
            if self._buf is None:
                self._buf = _np.empty(FEED_FLUSH_LIMIT)
            start, end = self._used, self._used + values.size
            self._buf[start:end] = values.ravel()
            self._used = end
            last = self._chunks[-1] if self._chunks else None
            if last is not None and last[0] is plan and last[1] == panes:
                last[3] += len(values)  # adjacent: one longer chunk
                continue
            if last is None:
                # whoever reads the mirror sketch gets these rows too
                self._mirror().refresh = self.flush_feeds
            self._chunks.append([plan, panes, start, len(values)])

    def _mirror(self):
        """The registry's copy of every feed's all-time tier."""
        return self.registry.sketch(
            "repro_stream_feed_sketch",
            "fleet distribution of live counter feed values",
            alpha=self.alpha, max_bins=self.max_bins,
        )

    def _plan(self, feeds: Sequence[Tuple[str, str]]) -> _FeedPlan:
        entry = self._plan_of.get(id(feeds))
        if entry is not None:
            return entry[1]  # the entry pins ``feeds``, so the id is its own
        key = tuple(feeds)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _FeedPlan(key)
        self._plan_of[id(feeds)] = (feeds, plan)
        return plan

    def flush_feeds(self) -> None:
        """Fold staged values into the tiers and the registry sketch.

        Called automatically when the staging buffer fills and on
        every read: :meth:`feed_view`, :meth:`summary`, and — through
        the metric's ``refresh`` hook — whatever reads the registry's
        ``repro_stream_feed_sketch`` (exporters, the harvest).  With
        several analytics hubs on one registry the hook belongs to the
        one that staged last; pipelines also call this at
        ``finalize()``.
        """
        if not self._chunks:
            return
        parts = []
        for plan, panes, start, rows in self._chunks:
            width = len(plan.order)
            parts.append((plan, panes, self._buf[
                start:start + rows * width].reshape(rows, width)))
        self._chunks = []
        self._used = 0
        self._plan_of.clear()
        self._fold(parts)

    def _fold(self, parts) -> None:
        """Fold ``(plan, panes, matrix)`` row chunks, in arrival order.

        The all-time tier and the registry mirror take every row.  A
        window takes the rows of its last two panes only — older ones
        would be rotated out before the fold ends
        (:meth:`TieredSketch.place`).  Each plan's rows are stacked,
        regrouped feed-major, and every span of them that some sketch
        takes goes through one
        :func:`~repro.obs.sketch.observe_segments` pass.
        """
        feed_metric = self._mirror()
        by_plan: Dict[_FeedPlan, list] = {}
        for plan, panes, matrix in parts:
            by_plan.setdefault(plan, []).append((panes, matrix))
        #: plan → per window, {pane index: (first row, end row)} of the
        #: plan's stacked rows (pane indices never decrease in a fold)
        rows_of: Dict[_FeedPlan, List[Dict[int, Tuple[int, int]]]] = {}
        for plan, chunks in by_plan.items():
            rows_of[plan] = [{} for _ in self.windows]
            row = 0
            for panes, matrix in chunks:
                for spans, idx in zip(rows_of[plan], panes):
                    first = spans[idx][0] if idx in spans else row
                    spans[idx] = (first, row + len(matrix))
                row += len(matrix)
        # a feed rotates through the panes of every plan it has columns
        # in, so its tiers are placed once, before any plan is folded
        visits: Dict[Tuple[str, str], List[set]] = {}
        for plan, per_window in rows_of.items():
            for key in plan.keys:
                seen = visits.setdefault(key, [set() for _ in self.windows])
                for indices, spans in zip(seen, per_window):
                    indices.update(spans)
        #: feed → the sketches that take every row
        whole: Dict[Tuple[str, str], List[QuantileSketch]] = {}
        #: feed → per window, (pane index, pane) of the panes that last
        lasting: Dict[Tuple[str, str], list] = {}
        for key, seen in visits.items():
            ts = self.feeds.get(key)
            if ts is None:
                ts = self.feeds[key] = TieredSketch(
                    self.windows, alpha=self.alpha, max_bins=self.max_bins
                )
            mirror = feed_metric.sample(type=key[0], event=key[1])
            whole[key] = [ts.all] if mirror is None else [ts.all, mirror]
            lasting[key] = [
                [(idx, pane)
                 for idx, pane in zip(indices, ts.place(w, indices))
                 if pane is not None]
                for w, indices in zip(self.windows, map(sorted, seen))
            ]
        for plan, chunks in by_plan.items():
            matrix = (
                chunks[0][1] if len(chunks) == 1
                else _np.concatenate([m for _, m in chunks])
            )
            #: (first row, end row) → per feed, the sketches taking them
            spans = {(0, len(matrix)): [list(whole[key]) for key in plan.keys]}
            for i, key in enumerate(plan.keys):
                for panes, rows in zip(lasting[key], rows_of[plan]):
                    for idx, pane in panes:
                        if idx in rows:
                            spans.setdefault(
                                rows[idx], [[] for _ in plan.keys]
                            )[i].append(pane)
            for (r0, r1), targets in spans.items():
                observe_segments(
                    # (K, n), one feed's columns adjacent, flattened:
                    # feed i owns a run of n * (its column count) values
                    matrix[r0:r1].T[plan.order].ravel(),
                    plan.offsets * (r1 - r0),
                    targets,
                )

    def feed_view(
        self, type_name: str, event: str, window: Optional[int] = None
    ) -> Optional[QuantileSketch]:
        self.flush_feeds()
        ts = self.feeds.get((type_name, event))
        return ts.view(window) if ts is not None else None

    # -- job scoring ----------------------------------------------------------
    def _outlier(
        self, rule: str, value: float, sketch: QuantileSketch,
        low: bool = False,
    ) -> Optional[Anomaly]:
        """Quantile check against the *pre-update* fleet distribution."""
        if math.isnan(value) or sketch.valid < self.min_jobs:
            return None
        if low:
            q = 1.0 - self.anomaly_quantile
            threshold = sketch.quantile(q)
            if value < threshold:
                return Anomaly(
                    rule, value, threshold,
                    f"below the fleet p{q * 100:g} of "
                    f"{sketch.valid} scored jobs",
                )
            return None
        threshold = sketch.quantile(self.anomaly_quantile)
        if value > threshold:
            return Anomaly(
                rule, value, threshold,
                f"above the fleet p{self.anomaly_quantile * 100:g} of "
                f"{sketch.valid} scored jobs",
            )
        return None

    def score_job(
        self,
        jobid: str,
        metrics: Mapping[str, float],
        user: str = "?",
        app: str = "?",
        now: int = 0,
    ) -> Tuple[Optional[JobScore], List[Anomaly]]:
        """Score one completed job; idempotent per jobid.

        Returns ``(score, anomalies)``; ``(None, [])`` when the job
        was already scored (double-finalize must not move centroids
        or re-observe sketches).
        """
        if jobid in self.scores:
            return None, []
        props = self.scorer.properties(metrics)
        eff = self.scorer.efficiency(props)
        sig = self.scorer.signature(metrics)
        cls = self.scorer.classify(sig)
        score = JobScore(
            jobid=jobid, user=user, app=app, job_class=cls,
            efficiency=eff, properties=props, signature=sig,
        )
        self.scores[jobid] = score

        metric_sketch = self.registry.sketch(
            "repro_analytics_metric_sketch",
            "fleet distribution of per-job Table I metric values",
            alpha=self.alpha, max_bins=self.max_bins,
        )
        eff_sketch = self.registry.sketch(
            "repro_analytics_efficiency_sketch",
            "fleet distribution of per-job efficiency scores",
            alpha=self.alpha, max_bins=self.max_bins,
        )
        anomalies: List[Anomaly] = []
        # test against yesterday's fleet, then join it: the verdict on
        # job N never depends on job N's own contribution
        for name in ("cpi", "MetaDataRate", "GigEBW"):
            v = float(metrics.get(name, math.nan))
            sk = metric_sketch.get_sketch(metric=name)
            if sk is not None:
                a = self._outlier(f"fleet_outlier_{name}", v, sk)
                if a is not None:
                    anomalies.append(a)
            if not math.isnan(v):
                metric_sketch.observe(v, metric=name)
        fleet_eff = eff_sketch.get_sketch()
        if fleet_eff is not None and not math.isnan(eff):
            a = self._outlier("fleet_low_efficiency", eff, fleet_eff,
                              low=True)
            if a is not None:
                anomalies.append(a)
        if not math.isnan(eff):
            eff_sketch.observe(eff)
            self.registry.sketch(
                "repro_analytics_user_efficiency",
                "per-user distribution of job efficiency scores",
                alpha=self.alpha, max_bins=self.max_bins,
            ).observe(eff, user=user)
            self.registry.sketch(
                "repro_analytics_app_efficiency",
                "per-application distribution of job efficiency scores",
                alpha=self.alpha, max_bins=self.max_bins,
            ).observe(eff, app=app)
        self.registry.counter(
            "repro_analytics_jobs_scored_total",
            "jobs run through continuous efficiency scoring",
        ).inc(job_class=cls)
        self.registry.gauge(
            "repro_analytics_job_classes",
            "job classes discovered by online signature clustering",
        ).set(len(self.scorer.classes))
        if anomalies:
            c = self.registry.counter(
                "repro_analytics_anomalies_total",
                "fleet-quantile outliers flagged by continuous scoring",
            )
            for a in anomalies:
                c.inc(rule=a.rule)
        return score, anomalies

    # -- reporting ------------------------------------------------------------
    def _group_stats(self, attr: str) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for s in self.scores.values():
            if math.isnan(s.efficiency):
                continue
            g = out.setdefault(
                getattr(s, attr), {"jobs": 0, "sum": 0.0, "min": math.inf}
            )
            g["jobs"] += 1
            g["sum"] += s.efficiency
            g["min"] = min(g["min"], s.efficiency)
        for g in out.values():
            g["mean"] = g["sum"] / g["jobs"]
        return out

    def summary(self) -> Dict[str, object]:
        """JSON-friendly rollup for the portal ``/analytics`` page."""
        self.flush_feeds()
        eff = [
            s.efficiency for s in self.scores.values()
            if not math.isnan(s.efficiency)
        ]
        classes = [
            {"id": i, "jobs": c.count,
             "centroid": [round(v, 4) for v in c.centroid]}
            for i, c in enumerate(self.scorer.classes)
        ]
        return {
            "jobs_scored": len(self.scores),
            "fleet_efficiency_mean": (
                sum(eff) / len(eff) if eff else None
            ),
            "classes": classes,
            "users": self._group_stats("user"),
            "apps": self._group_stats("app"),
            "feeds": sorted(
                "{}/{}".format(t, e) for t, e in self.feeds
            ),
        }
