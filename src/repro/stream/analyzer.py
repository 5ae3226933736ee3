"""Streaming §V-A flag evaluation over in-flight jobs.

The batch pipeline flags a job once, after it ends:
``assemble_jobs → accumulate_blocks → compute_metrics_batch →
evaluate_flags``.  This
module computes the same flags *while the job runs*, from samples as
the broker delivers them, with no full-job replay — and reproduces the
batch answer exactly at job completion.

Bit-exactness is by construction, not by approximation:

* Per (job, host) the analyzer keeps the *same* per-timestamp summed
  counter values batch accumulation builds, gathered by the same code:
  a sample's plan is :func:`~repro.pipeline.accum.plan_of` its
  :class:`~repro.core.rawfile.Layout` — the record's columns under the
  schemas it was read with, the object batch plans the record's block
  run under — and its row is summed by
  :func:`~repro.pipeline.accum._sum_step`, the function batch sums its
  stacked rows with — once per sample, for every job on the host.
* A host's register modulus for a quantity is the one its last consumed
  sample that reads the quantity was read under — batch's rule for its
  last aligned record.
* Hosts are aligned on the intersection of their sample timestamps
  exactly like :func:`~repro.pipeline.accum.accumulate_blocks`: an aligned
  timestamp ``T`` is only *consumed* once every participating host has
  reported past ``T`` (or finished), so late per-host deliveries —
  which stay FIFO per node even through daemon publish retries — can
  never rewrite consumed history.
* The consumed rows are reduced by the batch accumulator's own
  :func:`~repro.pipeline.accum.reduce_series` — forward fill,
  leading-gap backfill, all-NaN zero rows and the rollover/reset
  policy have one implementation, and a host that joined late has NaN
  rows before its first sample, backfilled like any leading gap.
* Flag evaluation calls the *same* Table I metric functions and
  :func:`~repro.metrics.flags.evaluate_flags` on that
  :class:`~repro.pipeline.accum.JobAccum` — so even NumPy's
  pairwise-summation order matches the batch path bit for bit.

Only the quantities the §V-A flag set consumes are tracked
(:data:`STREAM_QUANTITIES`), keeping per-sample work small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.metrics.flags import FlagResult, Thresholds, evaluate_flags
from repro.metrics.table1 import METRIC_REGISTRY, JobStack
from repro.stream.analytics import ANALYTICS_METRICS
from repro.pipeline.accum import (
    CANONICAL_QUANTITIES,
    JobAccum,
    Quantity,
    _Step,
    _sum_step,
    plan_of,
    reduce_series,
)

__all__ = [
    "STREAM_QUANTITIES",
    "STREAM_METRICS",
    "StreamEvent",
    "StreamJobResult",
    "StreamingFlagAnalyzer",
]

#: quantities the §V-A flag predicates actually consume
_STREAM_KEYS = (
    "mdc_reqs",      # high_metadata_rate
    "gige_bytes",    # high_gige
    "cycles",        # high_cpi
    "instructions",  # high_cpi
    "cpu_user",      # idle_nodes, sudden_drop/rise
    "cpu_total",     # idle_nodes, sudden_drop/rise
    "mem_used",      # largemem_waste
)
STREAM_QUANTITIES: Tuple[Quantity, ...] = tuple(
    q for q in CANONICAL_QUANTITIES if q.key in _STREAM_KEYS
)

#: Table I metrics those predicates read — the vector continuous
#: scoring indexes, so one tuple serves both
STREAM_METRICS = ANALYTICS_METRICS

#: job-metadata provider: (jobid, observed hosts) → evaluate_flags meta
MetaFn = Callable[[str, Sequence[str]], Mapping[str, object]]


@dataclass(frozen=True)
class StreamEvent:
    """One flag newly fired on an in-flight job."""

    jobid: str
    flag: FlagResult
    data_time: int  # the aligned sample timestamp that tripped it


@dataclass
class StreamJobResult:
    """Final state of one job after its stream completed."""

    jobid: str
    hosts: List[str]
    n_times: int
    #: flags raised by the completion-time evaluation — the set the
    #: batch pipeline computes for the same job
    final_flags: List[str] = field(default_factory=list)
    #: every flag that fired at any point while the job ran
    live_flags: List[str] = field(default_factory=list)
    #: True when samples arrived in an order the incremental alignment
    #: cannot reproduce exactly (a host joining after evaluation began)
    diverged: bool = False
    #: fewer than two aligned samples: batch drops such jobs too
    short: bool = False
    #: Table I metric values from the completion-time evaluation —
    #: the counter signature continuous scoring consumes (empty for
    #: short jobs, which are never evaluated)
    metrics: Dict[str, float] = field(default_factory=dict)


def _gather(sample) -> Tuple[np.ndarray, List[_Step]]:
    """A sample's row summed under its layout's plan
    (:func:`~repro.pipeline.accum._sum_step`): one value per streamed
    quantity, NaN for one its devices do not carry; and the plan."""
    steps = plan_of(sample.layout, STREAM_QUANTITIES)
    sums = np.full(len(STREAM_QUANTITIES), math.nan)
    for i, cols, _ in steps:
        sums[i] = _sum_step(sample.row, cols)
    return sums, steps


class _HostState:
    """Per-(job, host) incremental accumulation state."""

    __slots__ = ("pending", "done", "max_ts", "rows", "steps", "widths")

    def __init__(self, n_quantities: int, n_times: int) -> None:
        #: timestamp → the sample's summed counters, one per quantity,
        #: and the plan they were summed under
        self.pending: Dict[int, Tuple[Sequence[float], List[_Step]]] = {}
        self.done = False
        self.max_ts = -1
        #: one row of raw values per consumed time: a host joining
        #: late has NaN rows before its first sample
        nan_row = (math.nan,) * n_quantities
        self.rows: List[Sequence[float]] = [nan_row] * n_times
        #: the plan of the last consumed sample, and the register
        #: modulus per quantity so far
        self.steps: Optional[List[_Step]] = None
        self.widths = np.full(n_quantities, 2.0**64)


class _JobStream:
    """Incremental accumulator for one in-flight job, fed its hosts'
    samples as :func:`_gather` sums them."""

    def __init__(self, jobid: str) -> None:
        self.jobid = jobid
        self.quantities = STREAM_QUANTITIES
        self.hosts: Dict[str, _HostState] = {}
        self.times: List[int] = []  # consumed aligned timestamps
        self.fired: Dict[str, FlagResult] = {}
        self.diverged = False
        #: metric values from the most recent evaluate() pass
        self.last_metrics: Dict[str, float] = {}

    # -- sample intake -----------------------------------------------------
    def observe(
        self,
        host: str,
        timestamp: int,
        sums: Sequence[float],
        steps: List[_Step],
    ) -> None:
        """One sample of ``host``: its time and what :func:`_gather`
        made of it."""
        hs = self.hosts.get(host)
        if hs is None:
            if self.times:
                # a host joining after alignment began: batch would
                # have shrunk the intersection retroactively, which an
                # incremental consumer cannot. Track it best-effort and
                # mark the job so equivalence checks can exclude it.
                self.diverged = True
            hs = self.hosts[host] = _HostState(
                len(self.quantities), len(self.times)
            )
        ts = int(timestamp)
        hs.max_ts = max(hs.max_ts, ts)
        # duplicate timestamps (prolog + periodic coincide): last wins,
        # as in accumulate_blocks()
        hs.pending[ts] = (sums, steps)

    def mark_done(self, host: str) -> None:
        hs = self.hosts.get(host)
        if hs is not None:
            hs.done = True

    # -- frontier advance --------------------------------------------------
    def _ready_times(self, force: bool) -> List[int]:
        if not self.hosts:
            return []
        states = list(self.hosts.values())
        common: Optional[Set[int]] = None
        for hs in states:
            keys = set(hs.pending)
            common = keys if common is None else (common & keys)
        if not common:
            return []
        ready = [
            t for t in common
            if force or all(hs.done or hs.max_ts > t for hs in states)
        ]
        return sorted(ready)

    def _consume(self, t: int) -> None:
        self.times.append(t)
        for hs in self.hosts.values():
            sums, steps = hs.pending.pop(t)
            hs.rows.append(sums)
            if steps is not hs.steps:
                hs.steps = steps
                for i, _, width in steps:
                    hs.widths[i] = width

    def _prune_stale_pending(self) -> None:
        """Drop pending timestamps that can no longer become common.

        After consuming up to ``self.times[-1]``, any pending timestamp
        ≤ that frontier is missing from at least one other host that
        has already reported past it — it will never align.
        """
        if not self.times:
            return
        frontier = self.times[-1]
        for hs in self.hosts.values():
            for t in [t for t in hs.pending if t <= frontier]:
                del hs.pending[t]

    def advance(
        self,
        thresholds: Thresholds,
        meta_fn: Optional[MetaFn],
        force: bool = False,
    ) -> List[StreamEvent]:
        """Consume every ready aligned timestamp; evaluate when grown."""
        ready = self._ready_times(force)
        for t in ready:
            self._consume(t)
        self._prune_stale_pending()
        if force or all(hs.done for hs in self.hosts.values()):
            # no further deliveries can arrive: whatever is still
            # pending never made the intersection and never will
            for hs in self.hosts.values():
                hs.pending.clear()
        if not ready or len(self.times) < 2:
            return []
        raised = self.evaluate(thresholds, meta_fn)
        events: List[StreamEvent] = []
        for r in raised:
            if r.name in self.fired:
                continue
            self.fired[r.name] = r
            events.append(
                StreamEvent(jobid=self.jobid, flag=r, data_time=self.times[-1])
            )
        return events

    # -- evaluation --------------------------------------------------------
    def _assemble(self) -> JobAccum:
        hosts = sorted(self.hosts)
        states = [self.hosts[h] for h in hosts]
        # (N, T, Q) rows → the (N, Q, T) series batch accumulation reduces
        series = np.array([hs.rows for hs in states]).transpose(0, 2, 1)
        widths = np.array([hs.widths for hs in states])[..., None]
        deltas, gauges = reduce_series(self.quantities, series, widths)
        return JobAccum(
            jobid=self.jobid,
            hosts=hosts,
            times=np.array(self.times, dtype=np.int64),
            deltas=deltas,
            gauges=gauges,
        )

    def evaluate(
        self, thresholds: Thresholds, meta_fn: Optional[MetaFn]
    ) -> List[FlagResult]:
        accum = self._assemble()
        stack = JobStack.of([accum])  # one job, stacked once for all six
        metrics = {
            name: float(METRIC_REGISTRY[name].fn(stack)[0])
            for name in STREAM_METRICS
        }
        self.last_metrics = metrics
        if meta_fn is not None:
            meta = meta_fn(self.jobid, accum.hosts)
        else:
            meta = {"queue": "normal", "nodes": len(accum.hosts)}
        return evaluate_flags(metrics, accum, meta, thresholds)

    def complete(self) -> bool:
        return bool(self.hosts) and all(
            hs.done and not hs.pending for hs in self.hosts.values()
        )


class StreamingFlagAnalyzer:
    """Runs the streaming flag predicates over every in-flight job."""

    def __init__(
        self,
        thresholds: Optional[Thresholds] = None,
        job_meta: Optional[MetaFn] = None,
    ) -> None:
        self.thresholds = thresholds or Thresholds()
        self.job_meta = job_meta
        self.active: Dict[str, _JobStream] = {}
        self.completed: Dict[str, StreamJobResult] = {}
        #: host → jobids currently observed on that host
        self.host_jobs: Dict[str, Set[str]] = {}

    @property
    def inflight(self) -> int:
        return len(self.active)

    def observe(self, host: str, sample) -> List[StreamEvent]:
        """Feed one parsed sample (one with its
        :attr:`~repro.core.rawfile.ParsedSample.layout`); returns flags
        that newly fired."""
        mentioned = set(sample.jobids)
        touched: List[str] = []
        known = self.host_jobs.setdefault(host, set())
        # a job this host stopped mentioning has ended on this host
        for jid in sorted(known - mentioned):
            known.discard(jid)
            js = self.active.get(jid)
            if js is not None:
                js.mark_done(host)
                touched.append(jid)
        # gathered once, for every job the sample carries
        sums, steps = _gather(sample) if mentioned else (None, None)
        for jid in sample.jobids:
            if jid in self.completed:
                continue
            js = self.active.get(jid)
            if js is None:
                js = self.active[jid] = _JobStream(jid)
            js.observe(host, sample.timestamp, sums, steps)
            known.add(jid)
            touched.append(jid)
        events: List[StreamEvent] = []
        for jid in dict.fromkeys(touched):
            js = self.active.get(jid)
            if js is None:
                continue
            events.extend(js.advance(self.thresholds, self.job_meta))
            if js.complete():
                self._finalize(js)
        return events

    def _finalize(self, js: _JobStream) -> None:
        final: List[str] = []
        short = len(js.times) < 2
        if not short:
            final = [
                r.name for r in js.evaluate(self.thresholds, self.job_meta)
            ]
        self.completed[js.jobid] = StreamJobResult(
            jobid=js.jobid,
            hosts=sorted(js.hosts),
            n_times=len(js.times),
            final_flags=final,
            live_flags=sorted(js.fired),
            diverged=js.diverged,
            short=short,
            metrics=dict(js.last_metrics),
        )
        del self.active[js.jobid]
        for jobs in self.host_jobs.values():
            jobs.discard(js.jobid)

    def finalize(self) -> List[StreamEvent]:
        """End of stream: consume everything still pending and close.

        With no further deliveries possible, the per-host sample sets
        are final, so the remaining intersection can be consumed
        without the reported-past-``T`` guard.
        """
        events: List[StreamEvent] = []
        for jid in sorted(self.active):
            js = self.active[jid]
            for hs in js.hosts.values():
                hs.done = True
            events.extend(
                js.advance(self.thresholds, self.job_meta, force=True)
            )
            self._finalize(js)
        return events
