"""``live_replay`` — daemon-mode traffic, one broker delivery per op.

Set-up records an 8-node, 12-sim-hour session with the offender mix off
a tap queue and replicates it under fresh host names into a 48-node
fleet.  Op = ``Broker.publish`` of one recorded message into an
event-less broker with a started default ``StreamPipeline``, so the call
returns when the sample is parsed, written through retention,
flag-evaluated and alert-routed.  ``broker``, ``stream`` and the TSDB's
one-point appends do the work; nothing is sealed, nothing is read.

The consumer is synchronous and single-threaded, so an open loop would
add only deterministic queueing: deliveries/s x 600 is the number of
nodes one box sustains at the paper's cadence.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Dict, Iterator, List

from repro.broker import Broker
from repro.core.daemon import EXCHANGE
from repro.stream import StreamPipeline

import corpus
from harness import Op, Workload, quiet_down

INTERVAL = 600
SIM_SECONDS = 12 * 3600
RUNTIME_MEAN = 4000.0


class LiveReplay(Workload):
    name = "live_replay"
    op_unit = "deliveries"
    tail_pct = 95
    snapshot_op = 800

    def __init__(self, seed: int, scale: float, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.replicas = max(1, int(6 * scale))
        self.done = 0
        self.raw_bytes = 0
        self.expected_points = 0

    def setup(self) -> None:
        base = corpus.record_session(
            self.seed, self.tmp / "session", INTERVAL, SIM_SECONDS,
            RUNTIME_MEAN,
        )
        if not base.batch_flags:
            raise RuntimeError("recorded session raised no batch flags")
        self.rec = corpus.replicate(base, self.replicas)
        #: jobid → index of the last delivery that mentions it
        self.last_seen: Dict[str, int] = {}
        for i, d in enumerate(self.rec.deliveries):
            for jid in d.jobids:
                self.last_seen[jid] = i
        self.pipeline = StreamPipeline(Broker())
        self.pipeline.start()
        # warm-up: the first sample of every host.  It creates the host's
        # ~340 series and their rollup buckets and costs ten deliveries;
        # left in the timed region the 48 of them would be 4 % of the ops,
        # a fifth of the wall, and sit right on the 95th percentile.
        self.warmed = 0
        unseen = set(self.rec.hosts)
        while unseen:
            d = self.rec.deliveries[self.warmed]
            if not self._deliver(d):
                raise RuntimeError("warm-up delivery failed its check")
            unseen.discard(str(d.headers["host"]))
            self.warmed += 1
        quiet_down()

    def schedule(self) -> Iterator[Op]:
        for d in self.rec.deliveries[self.warmed:]:
            desc = f"{d.routing_key}@{d.sim_time}:{zlib.crc32(d.body.encode()):08x}"
            yield Op("delivery", desc, lambda d=d: self._deliver(d))

    def _deliver(self, d: corpus.Delivery) -> bool:
        p = self.pipeline
        samples, points = p.samples, p.points
        routed = p.broker.publish(EXCHANGE, d.routing_key, d.body, d.headers)
        self.done += 1
        self.raw_bytes += len(d.body)
        self.expected_points += d.points
        # the broker swallows a consumer crash; the counters do not move
        return (
            routed == 1
            and p.samples == samples + d.samples
            and p.points == points + d.points
        )

    def finish(self) -> None:
        self.completed = self.pipeline.finalize()

    def check(self) -> List[str]:
        """Stream flags and alerts against the batch ETL of the same
        session, for every job whose last sample was replayed."""
        problems = []
        whole = {j for j, last in self.last_seen.items() if last < self.done}
        alerted: Dict[str, set] = {}
        for a in self.pipeline.alerts.ledger:
            alerted.setdefault(a.jobid, set()).add(a.rule)
        for jid in sorted(whole):
            want = self.rec.batch_flags.get(jid, [])
            result = self.completed.get(jid)
            got = sorted(result.final_flags) if result is not None else None
            if got != want:
                problems.append(f"job {jid}: stream flags {got} != batch {want}")
            if not set(want) <= alerted.get(jid, set()):
                problems.append(f"job {jid}: alerts {alerted.get(jid)} "
                                f"miss batch flags {want}")
        tsdb, writer = self.pipeline.tsdb, self.pipeline.writer
        want_points = self.expected_points + writer.rollup_points
        if tsdb.n_points() != want_points:
            problems.append(f"tsdb points {tsdb.n_points()} != delivered "
                            f"+ rollups = {want_points}")
        return problems

    def tsdb_size(self) -> tuple:
        tsdb = self.pipeline.tsdb
        return tsdb.storage_bytes(), tsdb.n_points()

    def counts(self) -> Dict[str, float]:
        from repro import obs

        p = self.pipeline
        delivered = obs.counter("repro_broker_delivered_total").total()
        return {
            "core.rawfile.bytes": float(self.raw_bytes),
            "broker.deliveries": delivered,
            "broker.redelivered": obs.counter(
                "repro_broker_redelivered_total").total(),
            "stream.rollup_points": float(p.writer.rollup_points),
            "stream.pruned_points": float(p.writer.pruned),
            "stream.alerts_fired": float(len(p.alerts.ledger)),
            "tsdb.points_written": float(p.tsdb.n_points()),
            "tsdb.storage_bytes": float(p.tsdb.storage_bytes()),
        }
