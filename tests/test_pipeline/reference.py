"""Frozen per-sample ETL: the oracle of the job-pipeline suites.

Until PR 15 ``src/`` shipped the job ETL twice.  The per-sample half —
``map_jobs``/``JobData`` over the frozen ``ReferenceRawFileParser``
(stamping each sample with the schemas it was read under),
the sample-by-sample :func:`accumulate`, the six scalar metric kernels
and the 31 scalar Table I formulas — is kept here verbatim in
behaviour, with a minimal map → accumulate → metrics → flags →
``bulk_create`` driver (:func:`reference_ingest`), so the one ETL left
in ``src/`` (``repro.pipeline.ingest_jobs``) has something to be
byte-identical to.

Shared on purpose, not copied: the rollover/reset policy
(``_event_deltas``), ``_ffill``, ``_counter_width`` and the quantity
table — one rule for what a negative delta means — and
``evaluate_flags`` / ``record_from``, which consume metric values and
are not what these suites compare.

Do not "fix" or speed this up: it is the specification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.cluster.jobs import Job
from repro.core.store import CentralStore
from repro.db.connection import Database
from repro.hardware.arch import ARCHITECTURES
from repro.hardware.devices.base import Schema
from repro.metrics.flags import Thresholds, evaluate_flags
from repro.pipeline.accum import (
    CANONICAL_QUANTITIES,
    JobAccum,
    Quantity,
    _counter_width,
    _event_deltas,
    _ffill,
)
from repro.pipeline.ingest import IngestResult, record_from
from repro.pipeline.records import JobRecord
from tests.test_core.reference import ParsedSample, StampingReferenceParser



def assert_same_accum(got: JobAccum, want: JobAccum, where=None) -> None:
    """``got`` equals the oracle's ``want`` on every field, arrays
    compared by shape and by their bytes (NaN payloads, signed zeros)."""
    assert got.jobid == want.jobid, where
    assert got.hosts == want.hosts, where
    assert got.vector_width == want.vector_width, where
    assert got.meta == want.meta, where
    assert got.times.tobytes() == want.times.tobytes(), where
    for field_name in ("deltas", "gauges"):
        a, b = getattr(got, field_name), getattr(want, field_name)
        assert sorted(a) == sorted(b), (where, field_name)
        for key in b:
            assert a[key].shape == b[key].shape, (where, key)
            assert a[key].tobytes() == b[key].tobytes(), (where, key)


# -- stage 1: per-sample job mapping (was repro/pipeline/jobmap.py) -----------


@dataclass
class JobData:
    """All raw samples belonging to one job, grouped per host."""

    jobid: str
    job: Optional[Job] = None
    #: host → samples sorted by timestamp, each with the ``schemas`` in
    #: force when it was read
    hosts: Dict[str, List[ParsedSample]] = field(default_factory=dict)
    #: the architecture of its first host in sorted order
    arch: Optional[str] = None

    def add(self, host: str, sample: ParsedSample) -> None:
        self.hosts.setdefault(host, []).append(sample)

    def sort(self) -> None:
        for samples in self.hosts.values():
            samples.sort(key=lambda s: s.timestamp)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def min_samples_per_host(self) -> int:
        if not self.hosts:
            return 0
        return min(len(v) for v in self.hosts.values())


def map_jobs(
    store: CentralStore,
    jobs: Optional[Mapping[str, Job]] = None,
    hosts: Optional[Iterable[str]] = None,
    require_samples: int = 2,
) -> Tuple[Dict[str, JobData], Dict[str, int]]:
    """Bucket every stored sample by job id.

    Parameters
    ----------
    store:
        The central raw-data store to stream from.
    jobs:
        Scheduler job catalogue; attached as metadata when present.
    hosts:
        Restrict to these hosts (defaults to all in the store).
    require_samples:
        Minimum samples per participating host for a job to be usable.

    Returns
    -------
    (jobdata, dropped)
        ``jobdata`` maps job id → :class:`JobData`;
        ``dropped`` maps job id → its deficient sample count.
    """
    out: Dict[str, JobData] = {}
    for host in sorted(hosts) if hosts is not None else store.hosts():
        # tolerant parsing: corrupt lines are quarantined via the
        # store's ledger instead of aborting the whole ETL pass
        parser = StampingReferenceParser(on_error="quarantine")
        path = store.path_for(host)
        if not path.exists():
            continue
        store.flush()
        with open(path) as fh:
            for sample in parser.parse(fh):
                for jid in sample.jobids:
                    jd = out.get(jid)
                    if jd is None:
                        jd = out[jid] = JobData(jobid=jid, arch=parser.arch)
                    jd.add(host, sample)
        if parser.errors:
            store.record_parse_errors(host, parser.errors)

    dropped: Dict[str, int] = {}
    for jid, jd in list(out.items()):
        jd.sort()
        if jobs is not None:
            jd.job = jobs.get(jid)
        n = jd.min_samples_per_host()
        if n < require_samples:
            dropped[jid] = n
            del out[jid]
    return out, dropped

# -- stage 2: per-sample accumulation (was in repro/pipeline/accum.py) --------

_CORE_TYPES = set(ARCHITECTURES)


def _resolve_type(q: Quantity, available: Sequence[str]) -> Optional[str]:
    if q.type_name:
        return q.type_name if q.type_name in available else None
    for t in available:
        if t in _CORE_TYPES:
            return t
    return None


def _sum_counters(
    sample_data: Dict[str, Dict[str, np.ndarray]],
    type_name: str,
    schema: Schema,
    counters: Tuple[str, ...],
) -> float:
    """Sum selected counters over all instances of a device type."""
    per_type = sample_data.get(type_name)
    if not per_type:
        return np.nan
    idx = [schema.index[c] for c in counters if c in schema.index]
    if not idx:
        return np.nan
    total = 0.0
    for values in per_type.values():
        total += float(values[idx].sum()) if len(values) else 0.0
    return total


def accumulate(
    jd: JobData, quantities: Sequence[Quantity] = CANONICAL_QUANTITIES
) -> JobAccum:
    """Reduce one job's raw samples to canonical quantity arrays, each
    sample read under the schemas it carries.  A host's register
    modulus for a quantity is its last aligned sample's that reads the
    quantity."""
    hosts = sorted(jd.hosts)
    if not hosts:
        raise ValueError(f"job {jd.jobid}: no hosts")
    # align on common timestamps across hosts
    common = None
    for h in hosts:
        ts = {s.timestamp for s in jd.hosts[h]}
        common = ts if common is None else (common & ts)
    times = np.array(sorted(common or ()), dtype=np.int64)
    if len(times) < 2:
        raise ValueError(
            f"job {jd.jobid}: only {len(times)} aligned samples"
        )
    tindex = {int(t): i for i, t in enumerate(times)}
    T, N = len(times), len(hosts)

    # vector width from the recorded architecture
    arch = ARCHITECTURES.get(jd.arch or "", None)
    vector_width = arch.vector_width_doubles if arch else 4

    deltas: Dict[str, np.ndarray] = {}
    gauges: Dict[str, np.ndarray] = {}

    for q in quantities:
        # per host, build (T,) summed-counter series then difference
        event_rows = np.zeros((N, T - 1))
        gauge_rows = np.zeros((N, T))
        present = False
        for n, h in enumerate(hosts):
            samples = [s for s in jd.hosts[h] if int(s.timestamp) in tindex]
            # dedupe repeated timestamps (prolog + periodic coincide)
            by_t: Dict[int, object] = {}
            for s in samples:
                by_t[int(s.timestamp)] = s
            type_name = None
            width = 2.0**64
            series = np.full(T, np.nan)
            for t_int, s in by_t.items():
                if type_name is None:
                    type_name = _resolve_type(q, list(s.data))
                if type_name is None:
                    continue
                schema = s.schemas.get(type_name)
                if schema is None:
                    continue
                series[tindex[t_int]] = _sum_counters(
                    s.data, type_name, schema, q.counters
                )
                if s.data.get(type_name) and any(
                        c in schema.index for c in q.counters):
                    width = _counter_width(schema, q.counters)
            if np.all(np.isnan(series)):
                continue
            present = True
            # forward-fill interior gaps (a host may miss one sample)
            filled = _ffill(series)
            if q.gauge:
                gauge_rows[n] = filled
            else:
                event_rows[n] = _event_deltas(filled, width)
        if q.gauge:
            gauges[q.key] = gauge_rows if present else np.zeros((N, T))
        else:
            deltas[q.key] = event_rows if present else np.zeros((N, T - 1))

    return JobAccum(
        jobid=jd.jobid,
        hosts=hosts,
        times=times,
        deltas=deltas,
        gauges=gauges,
        vector_width=vector_width,
        meta={"arch": jd.arch},
    )

# -- stage 3: scalar kernels and formulas (were metrics/kernels.py, table1.py) -

EPS = 1e-300
MB = 1e6
GB2 = float(1 << 30)


def arc(deltas: np.ndarray, elapsed: float) -> float:
    """Average Rate of Change: per-node mean rate, averaged over nodes.

    For cumulative counters the per-node time-average rate is the sum
    of its interval deltas (= endpoint delta) over the elapsed time.
    """
    if elapsed <= 0 or deltas.size == 0:
        return 0.0
    per_node = deltas.sum(axis=-1) / elapsed
    return float(per_node.mean())


def max_rate(deltas: np.ndarray, dt: np.ndarray) -> float:
    """Maximum metric: peak over intervals of the node-summed rate."""
    if deltas.size == 0:
        return 0.0
    summed = deltas.sum(axis=0)  # (T-1,)
    rates = summed / np.maximum(dt, EPS)
    return float(rates.max())


def ratio_of_sums(num: np.ndarray, den: np.ndarray) -> float:
    """Ratio of totals — §IV-A: averages are computed before ratios.

    Both numerator and denominator are summed over nodes and time, so
    the elapsed-time factors cancel and the result is the
    ratio-of-averages the paper prescribes.
    """
    d = float(np.sum(den))
    if d <= 0:
        return 0.0
    return float(np.sum(num)) / d


def gauge_max(gauge: np.ndarray) -> float:
    """Max over nodes and snapshots of a gauge (e.g. MemUsage)."""
    if gauge.size == 0:
        return 0.0
    return float(gauge.max())


def node_balance_ratio(per_node: np.ndarray) -> float:
    """min/max over nodes — the ``idle`` metric's work-imbalance ratio.

    1.0 means perfectly balanced; ~0 means at least one node did
    essentially nothing while another worked.
    """
    if per_node.size == 0:
        return 1.0
    hi = float(per_node.max())
    if hi <= 0:
        return 1.0
    return float(per_node.min()) / hi


def time_balance_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """min/max over time windows of a node-summed fraction (catastrophe).

    ``num``/``den`` are (N, T-1) deltas (e.g. user vs total jiffies);
    each window's value is the node-summed ratio.
    """
    if num.size == 0:
        return 1.0
    n = num.sum(axis=0)
    d = np.maximum(den.sum(axis=0), EPS)
    frac = n / d
    hi = float(frac.max())
    if hi <= 0:
        return 1.0
    return float(frac.min()) / hi


def _flops(a: JobAccum) -> float:
    """GFLOP/s: scalar FP instructions + width × vector FP instructions."""
    if a.elapsed <= 0:
        return 0.0
    scalar = a.deltas["fp_scalar"].sum()
    vector = a.deltas["fp_vector"].sum() * a.vector_width
    # node-summed total rate (the Fig. 5 "Gigaflops" panel is per node;
    # the job metric is the per-node average)
    return float(scalar + vector) / a.elapsed / a.n_hosts / 1e9


def _vec_percent(a: JobAccum) -> float:
    """Percent of FP instructions that are vector instructions."""
    s = float(a.deltas["fp_scalar"].sum())
    v = float(a.deltas["fp_vector"].sum())
    if s + v <= 0:
        return 0.0
    return min(100.0, 100.0 * v / (s + v))


def _cpu_usage(a: JobAccum) -> float:
    return ratio_of_sums(a.deltas["cpu_user"], a.deltas["cpu_total"])


def _idle(a: JobAccum) -> float:
    user = a.deltas["cpu_user"].sum(axis=1)
    total = np.maximum(a.deltas["cpu_total"].sum(axis=1), 1e-300)
    return node_balance_ratio(user / total)


def _mic_usage(a: JobAccum) -> float:
    return ratio_of_sums(a.deltas["mic_user"], a.deltas["mic_total"])


def _wait_per_req(a: JobAccum, wait_key: str, req_key: str) -> float:
    return ratio_of_sums(a.deltas[wait_key], a.deltas[req_key])


def _packetsize(a: JobAccum) -> float:
    return ratio_of_sums(a.deltas["ib_bytes"], a.deltas["ib_packets"])


SCALAR_FORMULAS: Dict[str, Callable[[JobAccum], float]] = {
    "MetaDataRate": lambda a: max_rate(a.deltas["mdc_reqs"], a.dt),
    "MDCReqs": lambda a: arc(a.deltas["mdc_reqs"], a.elapsed),
    "OSCReqs": lambda a: arc(a.deltas["osc_reqs"], a.elapsed),
    "MDCWait": lambda a: _wait_per_req(a, "mdc_wait_us", "mdc_reqs"),
    "OSCWait": lambda a: _wait_per_req(a, "osc_wait_us", "osc_reqs"),
    "LLiteOpenClose": lambda a: arc(a.deltas["llite_oc"], a.elapsed),
    "LnetAveBW": lambda a: arc(a.deltas["lnet_bytes"], a.elapsed) / MB,
    "LnetMaxBW": lambda a: max_rate(a.deltas["lnet_bytes"], a.dt) / MB,
    "InternodeIBAveBW": lambda a: arc(a.deltas["ib_bytes"], a.elapsed) / MB,
    "InternodeIBMaxBW": lambda a: max_rate(a.deltas["ib_bytes"], a.dt) / MB,
    "Packetsize": _packetsize,
    "Packetrate": lambda a: arc(a.deltas["ib_packets"], a.elapsed),
    "GigEBW": lambda a: arc(a.deltas["gige_bytes"], a.elapsed) / MB,
    "Load_All": lambda a: arc(a.deltas["loads"], a.elapsed),
    "Load_L1Hits": lambda a: arc(a.deltas["l1_hits"], a.elapsed),
    "Load_L2Hits": lambda a: arc(a.deltas["l2_hits"], a.elapsed),
    "Load_LLCHits": lambda a: arc(a.deltas["llc_hits"], a.elapsed),
    "cpi": lambda a: ratio_of_sums(
        a.deltas["cycles"], a.deltas["instructions"]),
    "cpld": lambda a: ratio_of_sums(a.deltas["cycles"], a.deltas["loads"]),
    "flops": _flops,
    "VecPercent": _vec_percent,
    "mbw": lambda a: arc(a.deltas["imc_cas"], a.elapsed) * 64.0 / 1e9,
    "MemUsage": lambda a: gauge_max(a.gauges["mem_used"]) / GB2,
    "CPU_Usage": _cpu_usage,
    "idle": _idle,
    "catastrophe": lambda a: time_balance_ratio(
        a.deltas["cpu_user"], a.deltas["cpu_total"]),
    "MIC_Usage": _mic_usage,
    "PkgPower": lambda a: arc(a.deltas["rapl_pkg_uj"], a.elapsed) / 1e6,
    "CorePower": lambda a: arc(a.deltas["rapl_core_uj"], a.elapsed) / 1e6,
    "DramPower": lambda a: arc(a.deltas["rapl_dram_uj"], a.elapsed) / 1e6,
    "TotalEnergy": lambda a: float(
        a.deltas["rapl_pkg_uj"].sum() + a.deltas["rapl_dram_uj"].sum()
    ) / 1e6,
}


def reference_metrics(accum: JobAccum) -> Dict[str, float]:
    """Every Table I metric of one job by the frozen scalar formulas."""
    return {name: fn(accum) for name, fn in SCALAR_FORMULAS.items()}


# -- the driver -----------------------------------------------------------------


def reference_ingest(
    store: CentralStore,
    jobs: Optional[Mapping[str, Job]],
    db: Database,
    thresholds: Optional[Thresholds] = None,
) -> IngestResult:
    """One pass of the frozen ETL into an empty database, one commit."""
    JobRecord.bind(db)
    JobRecord.create_table()
    jobdata, dropped = map_jobs(store, jobs)
    result = IngestResult(dropped_short=len(dropped))
    records: List[JobRecord] = []
    for jid in sorted(jobdata):
        jd = jobdata[jid]
        job = jd.job
        if job is not None and not job.state.finished:
            continue
        try:
            accum = accumulate(jd)
            metrics = reference_metrics(accum)
        except ValueError as exc:
            result.errors.append(f"{jid}: {exc}")
            continue
        meta = {
            "queue": job.queue if job else "normal",
            "nodes": job.nodes if job else jd.n_hosts,
        }
        flag_names = [
            f.name for f in evaluate_flags(metrics, accum, meta, thresholds)
        ]
        if flag_names:
            result.flagged[jid] = flag_names
        records.append(record_from(jid, metrics, job, flag_names))
    JobRecord.objects.bulk_create(records)
    db.commit()
    result.ingested = len(records)
    return result
