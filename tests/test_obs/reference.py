"""The obs histogram as it was before observe became one ``bisect``
into per-bucket counts: a cumulative bucket list walked bound by bound
on every observation.  Frozen as the oracle for
``tests/test_obs/test_handles.py`` — do not "fix" or speed it up.  Only
the registry plumbing (the enabled switch, the clock stamps) is left
out.
"""

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.registry import DEFAULT_BUCKETS, LabelKey, _label_key


class _HistSample:
    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self, n_buckets: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: cumulative counts per bucket bound (le semantics), +Inf implicit
        self.buckets = [0] * n_buckets


class ReferenceHistogram:
    """A distribution of observations (stage timings, span durations)."""

    kind = "histogram"

    def __init__(self, name, help="", registry=None, buckets=None) -> None:
        self.name = name
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds: Tuple[float, ...] = bounds
        self._values: Dict[LabelKey, _HistSample] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        s = self._values.get(key)
        if s is None:
            s = self._values[key] = _HistSample(len(self.bounds))
        value = float(value)
        s.count += 1
        s.sum += value
        s.min = min(s.min, value)
        s.max = max(s.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                s.buckets[i] += 1

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
        for i, bound in enumerate(self.bounds):
            if s.buckets[i] >= rank:
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
        if count == 0:
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
        for i, c in enumerate(buckets):
            s.buckets[i] += int(c)

