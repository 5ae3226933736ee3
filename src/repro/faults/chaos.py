"""Chaos harness: run both transport modes under a seeded fault plan
and check the paper's durability claims as machine-verifiable
invariants.

§III-A's operational contrast is exactly a fault-tolerance statement:
cron mode loses a crashed node's whole unsynced local buffer, daemon
mode loses at most the last interval.  :func:`run_chaos` builds twin
clusters (same seed, same workload) — one per mode — injects the same
:class:`~repro.faults.plan.FaultPlan` into both, and asserts:

* **no duplicate JobRecords** — re-running ingest over redelivered
  data has exactly-once effect;
* **cron loss bound** — nothing collected on a crashed node after its
  last successful rsync ever becomes centrally visible;
* **daemon loss bound** — the newest centrally-visible sample of a
  crashed node is at most one interval (+delivery slack) old at crash;
* **monotone series** — accumulated counter deltas are non-negative
  and job time axes strictly increasing, through rollover storms,
  reboots (counter resets) and duplicated deliveries;
* **quarantine** — corrupt raw files cost only the damaged lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster import JobSpec, make_app
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.pipeline import assemble_jobs, ingest_jobs, parse_blocks
from repro.pipeline.records import JobRecord

#: slack on the daemon loss bound: broker latency, event ordering and
#: the delivery-delay fault's worst extra latency
DAEMON_SLACK = 120


@dataclass
class InvariantResult:
    """One end-to-end invariant's verdict."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Everything a chaos run measured, plus the invariant verdicts."""

    seed: int
    minutes: int
    nodes: int
    fault_counts: Dict[str, int] = field(default_factory=dict)
    crash_times: Dict[str, int] = field(default_factory=dict)
    cron_lost_samples: int = 0
    cron_rsync_failures: int = 0
    daemon_publish_retries: int = 0
    daemon_lost_buffered: Dict[str, int] = field(default_factory=dict)
    broker_rejected: int = 0
    broker_duplicated: int = 0
    quarantined: Dict[str, int] = field(default_factory=dict)
    daemon_ingested: int = 0
    cron_ingested: int = 0
    replay_skipped: int = 0
    invariants: List[InvariantResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.invariants)

    def render_text(self) -> str:
        lines = [
            f"chaos run: seed={self.seed} minutes={self.minutes} "
            f"nodes={self.nodes}",
            f"  faults injected: {self.fault_counts or 'none'}",
            f"  crashes at: {self.crash_times or '-'}",
            f"  cron: lost {self.cron_lost_samples} samples, "
            f"{self.cron_rsync_failures} rsync failures, "
            f"ingested {self.cron_ingested}",
            f"  daemon: {self.daemon_publish_retries} publish retries, "
            f"buffer loss {self.daemon_lost_buffered or '-'}, "
            f"ingested {self.daemon_ingested} "
            f"(replay skipped {self.replay_skipped})",
            f"  broker: rejected {self.broker_rejected}, "
            f"duplicated {self.broker_duplicated}",
            f"  quarantined lines: {self.quarantined or '-'}",
        ]
        for inv in self.invariants:
            mark = "PASS" if inv.passed else "FAIL"
            detail = f" — {inv.detail}" if inv.detail else ""
            lines.append(f"  [{mark}] {inv.name}{detail}")
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _submit_workload(cluster, duration: int, jobs: int) -> None:
    """The same deterministic job mix for both transport modes."""
    apps = ("namd", "wrf", "hicpi")
    runtime = float(min(6000, max(1200, duration // 4)))
    for i in range(jobs):
        cluster.submit(
            JobSpec(
                user=f"chaos{i:02d}",
                app=make_app(apps[i % len(apps)], runtime_mean=runtime,
                             fail_prob=0.0),
                nodes=1 + (i % 2),
            )
        )


def _pre_crash_visibility(store, node: str, crash_t: int):
    """(newest pre-crash collect ts, any post-crash arrival of pre-crash
    data) for one crashed node."""
    log = store.arrivals.get(node, [])
    pre = [c for c, _a in log if c <= crash_t]
    leaked = any(c <= crash_t and a > crash_t for c, a in log)
    return (max(pre) if pre else None), leaked


def run_chaos(
    seed: int = 0,
    minutes: int = 24 * 60,
    nodes: int = 8,
    interval: int = 600,
    tick: int = 600,
    jobs: int = 6,
    plan: Optional[FaultPlan] = None,
) -> ChaosReport:
    """Run the twin-mode chaos scenario; returns the report.

    Never raises on invariant failure — the report's ``passed`` flag
    and per-invariant details are the result.  ``plan=None`` draws the
    schedule from ``seed``.
    """
    # deferred: repro/__init__ imports the transports, which import
    # repro.faults.recovery — a module-level import here would cycle
    from repro import cron_session, monitoring_session

    duration = minutes * 60
    report = ChaosReport(seed=seed, minutes=minutes, nodes=nodes)

    # -- twin sessions, same seed, same workload ---------------------------
    dsess = monitoring_session(nodes=nodes, seed=seed, interval=interval,
                               tick=tick)
    csess = cron_session(nodes=nodes, seed=seed, interval=interval, tick=tick)
    node_names = list(dsess.cluster.nodes)
    if plan is None:
        plan = FaultPlan.generate(seed, duration, node_names,
                                  interval=interval)
    report.fault_counts = plan.counts()

    dinj = FaultInjector(plan, dsess.cluster, broker=dsess.broker,
                         daemon=dsess.daemon, store=dsess.store)
    cinj = FaultInjector(plan, csess.cluster, cron=csess.cron,
                         store=csess.store)
    dinj.arm()
    cinj.arm()
    _submit_workload(dsess.cluster, duration, jobs)
    _submit_workload(csess.cluster, duration, jobs)

    dsess.cluster.run_for(duration)
    dsess.cluster.run_for(900)  # drain broker + retry backlogs
    csess.cluster.run_for(duration)

    report.crash_times = dict(dinj.crash_times)
    report.daemon_publish_retries = dsess.daemon.publish_retries
    report.daemon_lost_buffered = dict(dsess.daemon.lost_buffered)
    report.broker_rejected = dsess.broker.rejected
    report.broker_duplicated = dsess.broker.duplicated

    # -- ingest: cron (final sync), daemon, then a daemon replay -----------
    cres = csess.ingest()
    report.cron_ingested = cres.ingested
    report.cron_lost_samples = csess.cron.lost_samples
    report.cron_rsync_failures = csess.cron.rsync_failures

    dres1 = ingest_jobs(dsess.store, dsess.cluster.jobs, dsess.db)
    dres2 = ingest_jobs(dsess.store, dsess.cluster.jobs, dsess.db)
    report.daemon_ingested = dres1.ingested
    report.replay_skipped = dres2.skipped_existing
    report.quarantined = {
        **csess.store.quarantine_counts(),
        **dsess.store.quarantine_counts(),
    }

    inv = report.invariants

    # 1. exactly-once effect of the replayed ingest pass
    inv.append(InvariantResult(
        "replay-ingests-nothing",
        dres2.ingested == 0 and dres2.skipped_existing == dres1.ingested,
        f"replay ingested {dres2.ingested}, "
        f"skipped {dres2.skipped_existing}/{dres1.ingested}",
    ))

    # 2. no duplicate JobRecords in either database
    for label, db in (("daemon", dsess.db), ("cron", csess.db)):
        JobRecord.bind(db)
        jobids = [r.jobid for r in JobRecord.objects.all()]
        inv.append(InvariantResult(
            f"no-duplicate-jobrecords-{label}",
            len(jobids) == len(set(jobids)),
            f"{len(jobids)} rows, {len(set(jobids))} distinct jobids",
        ))

    # 3. loss bounds per crashed node
    crashes = {f.node: f for f in plan.of_kind("node_crash")}
    for node, crash_t_rel in ((n, dinj.crash_times.get(n)) for n in crashes):
        if crash_t_rel is None:
            continue  # never applied (e.g. plan window beyond run end)
        crash_t = crash_t_rel
        # cron: pre-crash data must not surface after the crash
        _newest, leaked = _pre_crash_visibility(csess.store, node, crash_t)
        inv.append(InvariantResult(
            f"cron-loss-bound-{node}",
            not leaked,
            "unsynced data of a dead node surfaced after its crash"
            if leaked else "only pre-crash rsyncs visible",
        ))
        # daemon: newest visible pre-crash sample ≤ one interval old
        newest, _ = _pre_crash_visibility(dsess.store, node, crash_t)
        if newest is None:
            inv.append(InvariantResult(
                f"daemon-loss-bound-{node}", False,
                "no pre-crash data centrally visible at all",
            ))
        else:
            lag = crash_t - newest
            inv.append(InvariantResult(
                f"daemon-loss-bound-{node}",
                lag <= interval + DAEMON_SLACK,
                f"newest visible sample {lag}s before crash "
                f"(bound {interval + DAEMON_SLACK}s)",
            ))

    # 4. monotone, rollover-corrected series out of the daemon store
    jobdata, _dropped = assemble_jobs(
        parse_blocks(dsess.store), dsess.cluster.jobs
    )
    bad_axis, bad_delta = [], []
    for jid in sorted(jobdata):
        jd = jobdata[jid]
        if jd.job is not None and not jd.job.state.finished:
            continue
        try:
            accum = jd.accumulate()
        except ValueError:
            continue  # short jobs are the drop path's business
        if np.any(np.diff(accum.times) <= 0):
            bad_axis.append(jid)
        for key, arr in accum.deltas.items():
            if arr.size and float(arr.min()) < 0:
                bad_delta.append(f"{jid}:{key}")
    inv.append(InvariantResult(
        "monotone-series",
        not bad_axis and not bad_delta,
        f"non-monotone time axes {bad_axis[:3]}, "
        f"negative deltas {bad_delta[:3]}" if (bad_axis or bad_delta)
        else f"{len(jobdata)} jobs clean",
    ))

    # 5. corruption was quarantined, not fatal (ingest already survived)
    garbage_applied = any(
        kind == "file_corruption:garbage" for _t, kind, _d in
        (dinj.log + cinj.log)
    )
    if garbage_applied:
        inv.append(InvariantResult(
            "corruption-quarantined",
            bool(report.quarantined),
            f"quarantined {sum(report.quarantined.values())} lines",
        ))

    # 6. daemon buffer loss only ever charged to crashed nodes
    stray = set(report.daemon_lost_buffered) - set(crashes)
    inv.append(InvariantResult(
        "buffer-loss-only-on-crashed-nodes",
        not stray,
        f"stray buffer loss on {sorted(stray)}" if stray else "clean",
    ))

    return report
