"""Continuous fleet analytics: feed distributions, job classes, scores.

The paper's §V workflow is offline: collect two days of raw stats,
then batch-compute Table I metrics and flag offenders.  Production
system-wide monitors (PerSyst at LRZ, the TACC Stats web portal) run
the same judgement *continuously* — every finished job is scored the
moment it completes, scores aggregate per user and per application,
and outliers surface against the live fleet distribution instead of a
fixed threshold.  This module is that always-on layer:

* :class:`ContinuousScorer` — PerSyst-style property scoring.  A
  job's Table I metric vector becomes six ``[0, 1]`` properties
  (balance, steadiness, compute, metadata, ethernet, memory), their
  mean is the job's *efficiency*, and a bounded counter-signature
  vector feeds online leader clustering into *job classes* — the
  "similar jobs" axis the paper's §V-B case studies eyeball by hand;
* :class:`FleetAnalytics` — the pipeline-facing hub: sketches counter
  feeds out of the live TSDB on read, scores completed jobs,
  maintains per-user / per-app efficiency sketches in the obs
  registry, and flags *fleet outliers* by sketch quantile
  (test-before-observe, so a verdict never depends on the job's own
  contribution to the distribution).

Everything here is deterministic given the sim clock and job stream:
sketches merge exactly, clustering order is delivery order, and
anomaly checks read the sketch state *before* folding the new value
in.  Alert routing stays in :mod:`repro.stream.pipeline` — this
module only reports :class:`Anomaly` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro.obs.registry import MetricRegistry, Sketch
from repro.obs.sketch import DEFAULT_ALPHA, DEFAULT_MAX_BINS, QuantileSketch
from repro.tsdb.store import TimeSeriesDB

__all__ = [
    "ANALYTICS_METRICS",
    "Anomaly",
    "ContinuousScorer",
    "FleetAnalytics",
    "JobScore",
]

#: the Table I metric vector jobs are scored on (order fixed — the
#: signature and centroid vectors index by it); the live flag analyzer
#: computes exactly these, as ``repro.stream.STREAM_METRICS``
ANALYTICS_METRICS: Tuple[str, ...] = (
    "MetaDataRate", "GigEBW", "MemUsage", "idle", "catastrophe", "cpi",
)

#: a counter feed: one ``(type, event)`` pair, all hosts and devices
Feed = Tuple[str, str]


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


class FleetAnalytics:
    """The always-on analytics hub the stream pipeline drives.

    A *feed* is one ``(type, event)`` counter across every host and
    device.  Its distribution is a read, not a second copy of the
    data: :meth:`feed_view` sketches the values the stores hold for
    it, and the registry's ``repro_stream_feed_sketch{type=,event=}``
    is rebuilt from the stores when it is read after a write, so the
    exporter surfaces fleet value distributions with no per-delivery
    work.  The pipeline hands over the stores it writes once
    (:meth:`attach`).  ``score_job`` runs the scorer, updates
    per-user / per-app efficiency sketches and the per-metric fleet
    sketches, and reports quantile outliers — checking each value
    against the distribution *before* adding it.
    """

    def __init__(
        self,
        registry: Optional[MetricRegistry] = None,
        scorer: Optional[ContinuousScorer] = None,
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
        self.anomaly_quantile = float(anomaly_quantile)
        self.min_jobs = int(min_jobs)
        self.alpha = float(alpha)
        self.max_bins = int(max_bins)
        #: jobid → score (insertion = scoring order)
        self.scores: Dict[str, JobScore] = {}
        #: where feeds are read: the stores' series of ``_metric``
        self._stores: List[TimeSeriesDB] = []
        self._metric = "stats"
        #: the stores' epochs when the mirror was last rebuilt
        self._mirrored: Optional[Tuple[int, ...]] = None

    def is_scored(self, jobid: str) -> bool:
        return jobid in self.scores

    @property
    def jobs_scored(self) -> int:
        return len(self.scores)

    # -- counter feeds: reads over the live stores ---------------------------
    def attach(self, stores: Sequence[TimeSeriesDB], metric: str) -> None:
        """Read feeds from ``metric``'s series in ``stores`` — the
        stores a pipeline writes, handed over when it is built — and
        mirror them in the registry from now on."""
        self._stores = list(stores)
        self._metric = metric
        self._mirrored = None
        self.registry.sketch(
            "repro_stream_feed_sketch",
            "fleet distribution of live counter feed values",
            alpha=self.alpha, max_bins=self.max_bins,
        ).refresh = self._rebuild

    def _read(
        self,
        tags: Optional[Mapping[str, str]] = None,
        time_range: Optional[Tuple[int, int]] = None,
    ) -> Dict[Feed, List["_np.ndarray"]]:
        """Feed → the value columns of its series, across every store:
        one select and one scan per store."""
        columns: Dict[Feed, List[_np.ndarray]] = {}
        for store in self._stores:
            with store.read_locked():
                series = store.select(self._metric, tags)
                scanned = store.scan(series, time_range)
            for s, (_, v) in zip(series, scanned):
                columns.setdefault(
                    (s.tags["type"], s.tags["event"]), []
                ).append(v)
        return columns

    def _rebuild(self, mirror: Sketch) -> None:
        """The mirror's ``refresh`` hook: re-read every feed, unless no
        store was written or pruned since the last rebuild."""
        epochs = tuple(store.epoch for store in self._stores)
        if epochs != self._mirrored and mirror.rebuild(
            ({"type": t, "event": e}, _np.concatenate(vs))
            for (t, e), vs in self._read().items()
        ):
            self._mirrored = epochs

    @property
    def feeds(self) -> List[Feed]:
        """The feeds the stores hold, sorted."""
        feeds = set()
        for store in self._stores:
            with store.read_locked():
                feeds.update(
                    (s.tags["type"], s.tags["event"])
                    for s in store.select(self._metric)
                )
        return sorted(feeds)

    def feed_view(
        self,
        type_name: str,
        event: str,
        time_range: Optional[Tuple[int, int]] = None,
    ) -> Optional[QuantileSketch]:
        """A sketch of one feed's values, optionally of the samples
        taken in ``[lo, hi)`` only (as :meth:`TimeSeriesDB.scan`);
        ``None`` when no store holds the feed."""
        vs = self._read({"type": type_name, "event": event}, time_range)
        if not vs:
            return None
        out = QuantileSketch(alpha=self.alpha, max_bins=self.max_bins)
        out.observe_many(_np.concatenate(vs[type_name, event]))
        return out

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
            "feeds": ["{}/{}".format(t, e) for t, e in self.feeds],
        }
