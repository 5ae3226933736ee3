"""Mergeable streaming quantile sketch (DDSketch-style).

The fleet-analytics plane needs percentile distributions over value
streams that are too large to keep (§ROADMAP: "streaming percentile
sketches for bounded-memory fleet distributions", the PerSyst/DCDB
aggregation model).  An exact histogram needs the data; a t-digest
merges order-dependently.  This sketch is the third way: log-spaced
buckets whose counts are plain integers, so

* **bounded memory** — at relative accuracy ``alpha`` the whole
  positive float range needs only a few thousand buckets, and
  ``max_bins`` caps each sign's store by collapsing the smallest
  buckets (trading low-quantile accuracy, never the top);
* **relative-error guarantee** — a returned quantile ``x̂`` satisfies
  ``|x̂ - x| <= alpha * |x|`` for the true data point ``x`` at that
  rank (while no collapse occurred — the property suite pins it);
* **deterministic merge** — merging is integer bucket-count addition,
  so the distribution state (buckets, counts, min/max) is exactly
  associative and commutative: any merge tree over worker sketches
  yields a bit-identical distribution, which is what makes the
  cross-process harvest reproducible at any worker count.  Only the
  auxiliary ``sum`` is a float accumulation and may differ in final
  ulps across merge orders (:meth:`QuantileSketch.dist_state` is the
  bit-exact contract; quantiles read nothing else).

Buckets: value ``v > 0`` lands in bucket ``ceil(log_gamma(v))`` with
``gamma = (1 + alpha)/(1 - alpha)``; the bucket's representative value
``2 * gamma^k / (gamma + 1)`` is within ``alpha`` relative error of
every value in the bucket.  Negative values mirror into their own
store; zeros, NaNs and ±inf are counted exactly.  NaNs are excluded
from quantiles; ±inf sort to the extremes.

The columnar ``observe_many`` path computes bucket keys for a whole
value column in one vectorised NumPy pass; columns shorter than
``_VECTOR_MIN`` take the scalar path, which is cheaper at that size.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as _np

__all__ = ["QuantileSketch", "DEFAULT_ALPHA", "DEFAULT_MAX_BINS"]

#: default relative accuracy: 0.5 % — comfortably inside the 1 % rank
#: error the acceptance tests demand
DEFAULT_ALPHA = 0.005

#: per-sign bucket cap.  At alpha=0.005 one bucket spans a factor of
#: ~1.01, so 4096 buckets cover ~17 decades — collapse is an escape
#: hatch for adversarial data, not the normal regime.
DEFAULT_MAX_BINS = 4096

#: columns at least this long take the vectorised key path
_VECTOR_MIN = 16


class QuantileSketch:
    """A mergeable DDSketch-style quantile summary.

    >>> sk = QuantileSketch(alpha=0.01)
    >>> sk.observe_many(range(1, 1001))
    >>> round(sk.quantile(0.5) / 500, 2)
    1.0
    >>> other = QuantileSketch(alpha=0.01)
    >>> other.observe(1e9)
    >>> _ = sk.merge(other)
    >>> sk.quantile(1.0)
    1000000000.0
    """

    __slots__ = (
        "alpha", "gamma", "max_bins", "_lg", "_pos", "_neg",
        "zero", "nan", "pos_inf", "neg_inf",
        "count", "sum", "min", "max", "collapsed",
    )

    def __init__(
        self, alpha: float = DEFAULT_ALPHA, max_bins: int = DEFAULT_MAX_BINS
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        self.alpha = float(alpha)
        self.gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self.max_bins = int(max_bins)
        self._lg = math.log(self.gamma)
        #: bucket key -> count, per sign (negative store keys |v|)
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self.zero = 0
        self.nan = 0
        self.pos_inf = 0
        self.neg_inf = 0
        self.count = 0          # every observation, NaN/±inf included
        self.sum = 0.0          # finite observations only
        self.min = math.inf     # over non-NaN observations
        self.max = -math.inf
        self.collapsed = 0      # buckets folded by the max_bins cap

    # -- ingestion ----------------------------------------------------------
    def _key(self, v: float) -> int:
        # the tiny slack absorbs log() rounding at exact bucket
        # boundaries so scalar and vector paths agree bit-for-bit
        return math.ceil(math.log(v) / self._lg - 1e-11)

    def observe(self, value: float, count: int = 1) -> None:
        """Fold ``count`` occurrences of ``value`` into the sketch."""
        if count <= 0:
            return
        v = float(value)
        self.count += count
        if math.isnan(v):
            self.nan += count
            return
        self.min = min(self.min, v)
        self.max = max(self.max, v)
        if v == math.inf:
            self.pos_inf += count
            return
        if v == -math.inf:
            self.neg_inf += count
            return
        self.sum += v * count
        if v == 0.0:
            self.zero += count
        elif v > 0.0:
            k = self._key(v)
            self._pos[k] = self._pos.get(k, 0) + count
            self._cap(self._pos)
        else:
            k = self._key(-v)
            self._neg[k] = self._neg.get(k, 0) + count
            self._cap(self._neg)

    def observe_many(self, values: Sequence[float]) -> None:
        """Columnar ingest: one vectorised key computation per column."""
        n = len(values)  # type: ignore[arg-type]
        if n == 0:
            return
        if n < _VECTOR_MIN:
            for v in values:
                self.observe(v)
            return
        col = _np.asarray(values, dtype=_np.float64)
        nan_mask = _np.isnan(col)
        n_nan = int(nan_mask.sum())
        self.count += int(col.size)
        self.nan += n_nan
        if n_nan:
            col = col[~nan_mask]
            if col.size == 0:
                return
        self.min = min(self.min, float(col.min()))
        self.max = max(self.max, float(col.max()))
        finite = _np.isfinite(col)
        if not finite.all():
            self.pos_inf += int((col == _np.inf).sum())
            self.neg_inf += int((col == -_np.inf).sum())
            col = col[finite]
            if col.size == 0:
                return
        self.sum += float(col.sum())
        self.zero += int((col == 0.0).sum())
        for sign_col, store in ((col[col > 0.0], self._pos),
                                (-col[col < 0.0], self._neg)):
            if sign_col.size == 0:
                continue
            keys = _np.ceil(
                _np.log(sign_col) / self._lg - 1e-11
            ).astype(_np.int64)
            uniq, counts = _np.unique(keys, return_counts=True)
            for k, c in zip(uniq.tolist(), counts.tolist()):
                store[k] = store.get(k, 0) + c
            self._cap(store)

    def _cap(self, store: Dict[int, int]) -> None:
        """Collapse the smallest buckets into the smallest kept one."""
        while len(store) > self.max_bins:
            keys = sorted(store)
            spill = store.pop(keys[0])
            store[keys[1]] += spill
            self.collapsed += 1

    # -- merging ------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` in.  Integer bucket addition: the
        distribution state is bit-identical under any reordering,
        provided neither operand has hit its ``max_bins`` cap (the
        float ``sum`` may differ in last ulps across orders)."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with alpha {other.alpha} "
                f"into alpha {self.alpha}"
            )
        for k, c in other._pos.items():
            self._pos[k] = self._pos.get(k, 0) + c
        for k, c in other._neg.items():
            self._neg[k] = self._neg.get(k, 0) + c
        self._cap(self._pos)
        self._cap(self._neg)
        self.zero += other.zero
        self.nan += other.nan
        self.pos_inf += other.pos_inf
        self.neg_inf += other.neg_inf
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.collapsed += other.collapsed
        return self

    def copy(self) -> "QuantileSketch":
        out = QuantileSketch(alpha=self.alpha, max_bins=self.max_bins)
        out._pos = dict(self._pos)
        out._neg = dict(self._neg)
        out.zero, out.nan = self.zero, self.nan
        out.pos_inf, out.neg_inf = self.pos_inf, self.neg_inf
        out.count, out.sum = self.count, self.sum
        out.min, out.max = self.min, self.max
        out.collapsed = self.collapsed
        return out

    # -- reads --------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        return len(self._pos) + len(self._neg)

    @property
    def valid(self) -> int:
        """Observations that participate in quantiles (non-NaN)."""
        return self.count - self.nan

    def _rep(self, key: int) -> float:
        return 2.0 * self.gamma ** key / (self.gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (NaN when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        n = self.valid
        if n == 0:
            return math.nan
        target = q * (n - 1)
        cum = 0
        # ascending value order: -inf, negatives (|v| descending),
        # zero, positives (ascending), +inf
        def hit(c: int) -> bool:
            nonlocal cum
            cum += c
            return cum > target
        if self.neg_inf and hit(self.neg_inf):
            return -math.inf
        for k in sorted(self._neg, reverse=True):
            if hit(self._neg[k]):
                return self._clamp(-self._rep(k))
        if self.zero and hit(self.zero):
            return self._clamp(0.0)
        for k in sorted(self._pos):
            if hit(self._pos[k]):
                return self._clamp(self._rep(k))
        return math.inf if self.pos_inf else self._clamp(self.max)

    def _clamp(self, v: float) -> float:
        """Estimates never leave the observed [min, max] envelope."""
        lo = self.min if self.min != math.inf else v
        hi = self.max if self.max != -math.inf else v
        return min(max(v, lo), hi)

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    def mean(self) -> float:
        finite = self.count - self.nan - self.pos_inf - self.neg_inf
        return self.sum / finite if finite else math.nan

    def dist_state(self) -> Tuple:
        """Everything a quantile reads, as one comparable value.

        This is the merge-determinism contract: merging the same
        sketches in any order/grouping yields an identical
        ``dist_state()`` (integer bucket counts, exact min/max).
        """
        return (
            sorted(self._pos.items()),
            sorted(self._neg.items()),
            self.zero, self.nan, self.pos_inf, self.neg_inf,
            self.count, self.min, self.max, self.collapsed,
        )

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Deterministic, JSON- and pickle-friendly full state."""
        return {
            "alpha": self.alpha,
            "max_bins": self.max_bins,
            "pos": sorted(self._pos.items()),
            "neg": sorted(self._neg.items()),
            "zero": self.zero,
            "nan": self.nan,
            "pos_inf": self.pos_inf,
            "neg_inf": self.neg_inf,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "collapsed": self.collapsed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QuantileSketch":
        out = cls(alpha=float(data["alpha"]),
                  max_bins=int(data["max_bins"]))
        out._pos = {int(k): int(c) for k, c in data["pos"]}
        out._neg = {int(k): int(c) for k, c in data["neg"]}
        out.zero = int(data["zero"])
        out.nan = int(data["nan"])
        out.pos_inf = int(data["pos_inf"])
        out.neg_inf = int(data["neg_inf"])
        out.count = int(data["count"])
        out.sum = float(data["sum"])
        out.min = float(data["min"])
        out.max = float(data["max"])
        out.collapsed = int(data.get("collapsed", 0))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("QuantileSketch is mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
            f"bins={self.n_bins}, min={self.min:g}, max={self.max:g})"
        )

