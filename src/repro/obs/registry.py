"""Process-local metric registry: counters, gauges, histograms.

The monitor the paper describes watches *everything else* on the
system; this module is how the reproduction watches *itself* — the
pipeline telemetry that MPCDF's monitoring stack and DCDB ship
built-in.  Every moving part of the data path (collector, daemons,
broker, cron rsync, ingest, fault injector) increments named metrics
here, and the ``repro obs`` CLI / portal ``/obs`` page render them.

Design constraints, in order:

* **Determinism** — metric values are pure functions of the simulated
  workload.  Timestamps come from an injectable clock (normally the
  sim clock), never the wall clock, so two runs of the same seed
  produce byte-identical exports.
* **Negligible cost** — one dict lookup plus a float add per event.
  A hot call site holds a :class:`Handle` (``Counter.labels(...)``, or
  :mod:`repro.obs.handles` at module level): the family lookup and the
  sorted label key are resolved once, not per event.  A disabled
  registry (``enabled = False``) short-circuits every mutation, which
  is what the CI obs-overhead gate compares against.
* **No upper-layer imports** — the stdlib plus
  :mod:`repro.obs.sketch` (NumPy); importable from any layer without
  cycles.

Metric naming follows the Prometheus convention the exporters mimic:
``repro_<subsystem>_<what>[_total|_seconds]`` with optional labels,
e.g. ``repro_ingest_stage_seconds{stage="parse"}``.
"""

from __future__ import annotations

import itertools
import json
import threading
from bisect import bisect_left
from types import SimpleNamespace
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.obs.sketch import DEFAULT_ALPHA, DEFAULT_MAX_BINS, QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Sketch",
    "Handle",
    "CounterHandle",
    "GaugeHandle",
    "HistogramHandle",
    "MetricRegistry",
    "DEFAULT_BUCKETS",
    "SKETCH_QUANTILES",
]

#: quantiles every sketch family exports on the text/JSON surfaces
SKETCH_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

#: (labelname, labelvalue) pairs, sorted — one metric sample's identity
LabelKey = Tuple[Tuple[str, str], ...]

#: default histogram bucket upper bounds, in seconds — spans the range
#: from per-sample observes (~µs) to whole ingest passes (~minutes)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05,
    0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


#: the registry a handle on a family made outside any registry sees:
#: always enabled, never reset
_UNREGISTERED = SimpleNamespace(enabled=True, generation=0)


class Handle:
    """One labelled sample of a registry family, resolved once.

    What a hot call site keeps instead of looking its family up by name
    and sorting its labels again on every call: the family object and
    the label key.  ``Counter.labels(...)`` (``Gauge``, ``Histogram``)
    returns one bound to that family; :mod:`repro.obs.handles` declares
    one at import that binds on first use, so declaring it registers
    nothing.  :meth:`MetricRegistry.reset` drops every family; the next
    use after it binds again — registering the family afresh, as the
    by-name lookup it replaces would — so a handle outlives a reset.
    While the registry is disabled a handle does nothing at all.
    """

    kind = ""
    __slots__ = (
        "registry", "name", "help", "options", "label_map", "key",
        "_metric", "_generation",
    )

    def __init__(
        self,
        registry: Optional["MetricRegistry"],
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, object]] = None,
        options: Optional[Mapping[str, object]] = None,
        metric: Optional["Metric"] = None,
    ) -> None:
        #: a family made outside any registry is always on, never reset
        self.registry = registry if registry is not None else _UNREGISTERED
        self.name = name
        self.help = help
        self.options = dict(options or {})
        self.label_map = dict(labels or {})
        self.key: LabelKey = _label_key(self.label_map)
        self._metric = metric
        #: the registry generation ``_metric`` was looked up in
        self._generation = -1 if metric is None else self.registry.generation

    def labels(self, **labels: object) -> "Handle":
        """The sample of the same family with ``labels`` added."""
        bound = self._generation == self.registry.generation
        return type(self)(
            self.registry, self.name, self.help,
            {**self.label_map, **labels}, self.options,
            self._metric if bound else None,
        )

    def _bind(self) -> None:
        """Look the family up by name (registering it if it is new)."""
        reg = self.registry
        self._metric = getattr(reg, self.kind)(
            self.name, self.help, **self.options
        )
        self._generation = reg.generation


# each write checks generation and enabled inline, not through a shared
# helper: it runs per event, and the call would be a third of its cost


class CounterHandle(Handle):
    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the sample."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        reg = self.registry
        if self._generation != reg.generation or not reg.enabled:
            if not reg.enabled:
                return
            self._bind()
        self._metric._add(self.key, amount)


class GaugeHandle(Handle):
    kind = "gauge"
    __slots__ = ()

    def set(self, value: float) -> None:
        reg = self.registry
        if self._generation != reg.generation or not reg.enabled:
            if not reg.enabled:
                return
            self._bind()
        self._metric._put(self.key, value)


class HistogramHandle(Handle):
    kind = "histogram"
    __slots__ = ()

    def observe(self, value: float) -> None:
        reg = self.registry
        if self._generation != reg.generation or not reg.enabled:
            if not reg.enabled:
                return
            self._bind()
        self._metric._observe(self.key, value)


class Metric:
    """Base class: one named metric family with labelled samples."""

    kind = "untyped"
    #: what :meth:`labels` returns (``None``: the kind has no handles)
    handle_class: Optional[type] = None

    def __init__(
        self, name: str, help: str = "", registry: Optional["MetricRegistry"] = None
    ) -> None:
        self.name = name
        self.help = help
        self._registry = registry
        #: label key → last-update timestamp (sim clock), if a clock is set
        self._updated: Dict[LabelKey, int] = {}

    # -- shared plumbing ---------------------------------------------------
    def _enabled(self) -> bool:
        return self._registry is None or self._registry.enabled

    def _stamp(self, key: LabelKey) -> None:
        reg = self._registry
        if reg is not None and reg.clock is not None:
            self._updated[key] = int(reg.clock())

    def labels(self, **labels: object) -> Handle:
        """This family's sample ``labels`` as a :class:`Handle` — the
        shape of ``prometheus_client``'s ``.labels(...)`` children."""
        if self.handle_class is None:
            raise TypeError(f"{self.kind} metric {self.name} has no handles")
        return self.handle_class(
            self._registry, self.name, self.help, labels,
            self._handle_options(), metric=self,
        )

    def _handle_options(self) -> Dict[str, object]:
        """What the registry needs besides name and help to make this
        family again (a handle re-binds by name after a reset)."""
        return {}

    def updated_at(self, **labels: object) -> Optional[int]:
        """Timestamp (sim clock) of the sample's last mutation."""
        return self._updated.get(_label_key(labels))

    def label_keys(self) -> List[LabelKey]:  # pragma: no cover - overridden
        raise NotImplementedError

    def samples(self) -> List[Tuple[LabelKey, object]]:  # pragma: no cover
        raise NotImplementedError


class _Scalar(Metric):
    """A family whose samples are single floats."""

    def __init__(self, name, help="", registry=None) -> None:
        super().__init__(name, help, registry)
        self._values: Dict[LabelKey, float] = {}

    def _add(self, key: LabelKey, amount: float) -> None:
        self._values[key] = self._values.get(key, 0.0) + float(amount)
        reg = self._registry
        if reg is not None and reg.clock is not None:
            self._updated[key] = int(reg.clock())

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._values)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return [(k, self._values[k]) for k in sorted(self._values)]


class Counter(_Scalar):
    """A monotonically increasing sum (events, bytes, core-seconds)."""

    kind = "counter"
    handle_class = CounterHandle

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled sample."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        if self._enabled():
            self._add(_label_key(labels) if labels else (), amount)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def merge_delta(self, key: LabelKey, delta: float) -> None:
        """Harvest hook: add a worker-side delta under a raw label key."""
        if delta < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        if self._enabled() and delta:
            self._add(key, delta)


class Gauge(_Scalar):
    """A value that can go up and down (queue depth, buffered samples)."""

    kind = "gauge"
    handle_class = GaugeHandle

    def set(self, value: float, **labels: object) -> None:
        if self._enabled():
            self._put(_label_key(labels) if labels else (), value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if self._enabled():
            self._add(_label_key(labels) if labels else (), amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def _put(self, key: LabelKey, value: float) -> None:
        self._values[key] = float(value)
        reg = self._registry
        if reg is not None and reg.clock is not None:
            self._updated[key] = int(reg.clock())

    def merge_set(self, key: LabelKey, value: float) -> None:
        """Harvest hook: overwrite (last-snapshot-wins) a raw key."""
        if self._enabled():
            self._put(key, value)


class _HistSample:
    __slots__ = ("count", "sum", "min", "max", "counts")

    def __init__(self, n_buckets: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: observations per bucket — bucket ``i`` holds what is above
        #: bound ``i - 1`` and at most bound ``i``; the overflow (and
        #: NaN) is ``count`` minus their sum
        self.counts = [0] * n_buckets

    @property
    def buckets(self) -> List[int]:
        """Cumulative counts per bucket bound (``le`` semantics), +Inf
        implicit — what the exporters and the harvest read."""
        return list(itertools.accumulate(self.counts))


class Histogram(Metric):
    """A distribution of observations (stage timings, span durations)."""

    kind = "histogram"
    handle_class = HistogramHandle

    def __init__(self, name, help="", registry=None, buckets=None) -> None:
        super().__init__(name, help, registry)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: Tuple[float, ...] = bounds
        self._values: Dict[LabelKey, _HistSample] = {}

    def _handle_options(self) -> Dict[str, object]:
        return {"buckets": self.bounds}

    def observe(self, value: float, **labels: object) -> None:
        if self._enabled():
            self._observe(_label_key(labels) if labels else (), value)

    def _observe(self, key: LabelKey, value: float) -> None:
        s = self._values.get(key)
        if s is None:
            s = self._values[key] = _HistSample(len(self.bounds))
        value = float(value)
        s.count += 1
        s.sum += value
        # as min()/max(): the incumbent stays unless strictly beaten, so
        # a NaN never becomes either
        if value < s.min:
            s.min = value
        if value > s.max:
            s.max = value
        # the first bound >= value; a NaN compares false with every
        # bound and belongs in +Inf only, where bisect_left cannot put it
        i = bisect_left(self.bounds, value)
        if i < len(s.counts) and value == value:
            s.counts[i] += 1
        reg = self._registry
        if reg is not None and reg.clock is not None:
            self._updated[key] = int(reg.clock())

    # -- reads -------------------------------------------------------------
    def _sample(self, labels: Mapping[str, object]) -> Optional[_HistSample]:
        return self._values.get(_label_key(labels))

    def count(self, **labels: object) -> int:
        s = self._sample(labels)
        return s.count if s else 0

    def sum(self, **labels: object) -> float:
        s = self._sample(labels)
        return s.sum if s else 0.0

    def mean(self, **labels: object) -> float:
        s = self._sample(labels)
        return s.sum / s.count if s and s.count else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket containing the q-th observation; max observed for the
        overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        s = self._sample(labels)
        if s is None or s.count == 0:
            return 0.0
        rank = q * s.count
        for bound, cumulative in zip(self.bounds, s.buckets):
            if cumulative >= rank:
                return bound
        return s.max

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._values)

    def samples(self) -> List[Tuple[LabelKey, _HistSample]]:
        return [(k, self._values[k]) for k in sorted(self._values)]

    def merge_sample(
        self,
        key: LabelKey,
        count: int,
        total: float,
        min_v: float,
        max_v: float,
        buckets: Sequence[int],
    ) -> None:
        """Harvest hook: fold a worker-side delta sample under ``key``.

        ``buckets`` must be cumulative counts over this histogram's own
        ``bounds`` (the harvest layer checks bounds compatibility).
        """
        if not self._enabled() or count == 0:
            return
        if len(buckets) != len(self.bounds):
            raise ValueError(
                f"histogram {self.name}: bucket count mismatch "
                f"({len(buckets)} vs {len(self.bounds)})"
            )
        s = self._values.get(key)
        if s is None:
            s = self._values[key] = _HistSample(len(self.bounds))
        s.count += int(count)
        s.sum += float(total)
        s.min = min(s.min, float(min_v))
        s.max = max(s.max, float(max_v))
        below = 0
        for i, c in enumerate(buckets):
            s.counts[i] += int(c) - below
            below = int(c)
        self._stamp(key)


class Sketch(Metric):
    """A mergeable quantile distribution (fleet value feeds).

    Each labelled sample is one
    :class:`~repro.obs.sketch.QuantileSketch` — bounded memory per
    sample, exact deterministic merges across processes.  The text
    exporter renders fixed quantiles plus ``_sum``/``_count``; the
    harvest protocol moves the full bucket state.
    """

    kind = "sketch"

    def __init__(
        self, name, help="", registry=None,
        alpha: float = DEFAULT_ALPHA, max_bins: int = DEFAULT_MAX_BINS,
    ) -> None:
        super().__init__(name, help, registry)
        self.alpha = float(alpha)
        self.max_bins = int(max_bins)
        self._values: Dict[LabelKey, QuantileSketch] = {}
        #: called with the family before every read, so a family that
        #: mirrors state held elsewhere can bring itself up to date
        #: first (the live TSDB's counter feeds:
        #: :meth:`repro.stream.analytics.FleetAnalytics.attach`)
        self.refresh: Optional[Callable[["Sketch"], None]] = None

    def _refreshed(self) -> Dict[LabelKey, QuantileSketch]:
        if self.refresh is not None:
            self.refresh(self)
        return self._values

    def _sketch(self, key: LabelKey) -> QuantileSketch:
        sk = self._values.get(key)
        if sk is None:
            sk = self._values[key] = QuantileSketch(
                alpha=self.alpha, max_bins=self.max_bins
            )
        return sk

    def observe(self, value: float, **labels: object) -> None:
        if not self._enabled():
            return
        key = _label_key(labels)
        self._sketch(key).observe(value)
        self._stamp(key)

    def observe_many(self, values, **labels: object) -> None:
        """Columnar ingest — one vectorised pass per value column."""
        if not self._enabled() or not len(values):
            return
        key = _label_key(labels)
        self._sketch(key).observe_many(values)
        self._stamp(key)

    def rebuild(
        self, samples: Iterable[Tuple[Mapping[str, object], object]]
    ) -> bool:
        """Replace every sample by a sketch of its ``(labels, values)``
        at once: a concurrent reader sees the old samples or the new
        ones, never a mix.  ``False`` (and no change) while the
        registry is disabled."""
        if not self._enabled():
            return False
        fresh: Dict[LabelKey, QuantileSketch] = {}
        for labels, values in samples:
            key = _label_key(labels)
            sk = fresh[key] = QuantileSketch(
                alpha=self.alpha, max_bins=self.max_bins
            )
            sk.observe_many(values)
            self._stamp(key)
        self._values = fresh
        return True

    # -- reads -------------------------------------------------------------
    def get_sketch(self, **labels: object) -> Optional[QuantileSketch]:
        return self._refreshed().get(_label_key(labels))

    def quantile(self, q: float, **labels: object) -> float:
        sk = self.get_sketch(**labels)
        return sk.quantile(q) if sk is not None else float("nan")

    def count(self, **labels: object) -> int:
        sk = self.get_sketch(**labels)
        return sk.count if sk is not None else 0

    def merged(self) -> QuantileSketch:
        """One sketch over every label combination (the fleet view)."""
        out = QuantileSketch(alpha=self.alpha, max_bins=self.max_bins)
        for _, sk in self.samples():
            out.merge(sk)
        return out

    def merge_sample(self, key: LabelKey, data: Mapping[str, object]) -> None:
        """Harvest hook: merge a serialised sketch delta under ``key``."""
        if not self._enabled():
            return
        self._sketch(key).merge(QuantileSketch.from_dict(dict(data)))
        self._stamp(key)

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._refreshed())

    def samples(self) -> List[Tuple[LabelKey, QuantileSketch]]:
        values = self._refreshed()
        return [(k, values[k]) for k in sorted(values)]


class MetricRegistry:
    """Named metric families plus the clock that stamps them.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first call fixes the kind (and help text); later calls with the
    same name return the same object.  A lookup that finds its family
    takes no lock; a hot call site skips even that by holding a
    :class:`Handle`.
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()
        #: timestamp source for sample stamps (normally SimClock.now)
        self.clock = clock
        #: when False every mutation is a no-op (overhead baseline)
        self.enabled = True
        #: bumped by :meth:`reset`: a handle bound in an older
        #: generation looks its family up again
        self.generation = 0

    # -- construction ------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.get(name)
                if m is None:
                    m = self._metrics[name] = cls(
                        name, help=help, registry=self, **kwargs
                    )
        if not isinstance(m, cls):
            raise TypeError(f"metric {name!r} already registered as {m.kind}")
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Iterable[float]] = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def sketch(
        self,
        name: str,
        help: str = "",
        alpha: float = DEFAULT_ALPHA,
        max_bins: int = DEFAULT_MAX_BINS,
    ) -> Sketch:
        return self._get_or_create(
            Sketch, name, help, alpha=alpha, max_bins=max_bins
        )

    # -- management --------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def set_clock(self, clock: Optional[Callable[[], int]]) -> None:
        self.clock = clock

    def reset(self) -> None:
        """Drop every metric (tests / fresh CLI runs); handles re-bind
        on their next use."""
        with self._lock:
            self._metrics.clear()
            self.generation += 1

    # -- export ------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """JSON-friendly dump of every metric family."""
        out: Dict[str, dict] = {}
        for name in self.names():
            m = self._metrics[name]
            fam: Dict[str, object] = {"kind": m.kind, "help": m.help}
            samples = []
            if isinstance(m, Histogram):
                for key, s in m.samples():
                    samples.append({
                        "labels": dict(key),
                        "count": s.count,
                        "sum": s.sum,
                        "min": s.min if s.count else None,
                        "max": s.max if s.count else None,
                        "buckets": dict(zip(
                            (str(b) for b in m.bounds), s.buckets
                        )),
                        "updated_at": m._updated.get(key),
                    })
            elif isinstance(m, Sketch):
                for key, sk in m.samples():
                    samples.append({
                        "labels": dict(key),
                        "count": sk.count,
                        "sum": sk.sum,
                        "min": sk.min if sk.count else None,
                        "max": sk.max if sk.count else None,
                        "quantiles": {
                            str(q): sk.quantile(q) for q in SKETCH_QUANTILES
                        },
                        "updated_at": m._updated.get(key),
                    })
            else:
                for key, v in m.samples():
                    samples.append({
                        "labels": dict(key),
                        "value": v,
                        "updated_at": m._updated.get(key),
                    })
            fam["samples"] = samples
            out[name] = fam
        return out

    def render_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        """Prometheus-style exposition text."""
        lines: List[str] = []
        for name in self.names():
            m = self._metrics[name]
            if m.help:
                lines.append(f"# HELP {name} {m.help}")
            lines.append(f"# TYPE {name} {m.kind}")
            if isinstance(m, Histogram):
                for key, s in m.samples():
                    base = dict(key)
                    for bound, c in zip(m.bounds, s.buckets):
                        lk = _label_key({**base, "le": bound})
                        lines.append(f"{name}_bucket{_label_str(lk)} {c}")
                    lk = _label_key({**base, "le": "+Inf"})
                    lines.append(f"{name}_bucket{_label_str(lk)} {s.count}")
                    lines.append(f"{name}_sum{_label_str(key)} {s.sum:g}")
                    lines.append(f"{name}_count{_label_str(key)} {s.count}")
            elif isinstance(m, Sketch):
                for key, sk in m.samples():
                    base = dict(key)
                    for q in SKETCH_QUANTILES:
                        lk = _label_key({**base, "quantile": q})
                        lines.append(
                            f"{name}{_label_str(lk)} {sk.quantile(q):g}"
                        )
                    lines.append(f"{name}_sum{_label_str(key)} {sk.sum:g}")
                    lines.append(f"{name}_count{_label_str(key)} {sk.count}")
            else:
                for key, v in m.samples():
                    lines.append(f"{name}{_label_str(key)} {v:g}")
        return "\n".join(lines) + ("\n" if lines else "")
