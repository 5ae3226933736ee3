"""What one simulated node-collection costs: the simulator's count gate.

The paper's collector reads a node's counters in ≈ 0.09 s of one core
(E1); here the simulated node has to produce those counters first.  A
fixed set of 8-node ticks is driven through the three entry points a
collection pays for:

* ``DeviceTree.advance`` — one tick of every device on the node,
* ``Collector.collect`` — the register read of every device,
* ``RawFileWriter.record`` — the sample rendered as raw-file text.

Each runs under cProfile, and ``total_calls`` counts every Python and
builtin call it made.  A count travels between machines, so the gate
does not depend on the one it runs on.  The workload model that
composes a node's activity is outside the count; it is not device
work.  The wall time of a whole tick (event loop, workload model and
all) per node is reported, not gated.
"""

import cProfile
import pstats
from pathlib import Path

from benchmarks._support import record_bench
from repro.cluster import Cluster, ClusterConfig, JobSpec, make_app
from repro.core.collector import Collector
from repro.core.rawfile import RawFileWriter

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"

#: the job mix ``bench/corpus.py::record_session`` runs
OFFENDER_MIX = (
    ("mduser", "metadata_thrash", 2), ("idleuser", "idle_half", 2),
    ("ptruser", "hicpi", 2), ("ethuser", "gige_mpi", 2),
)
NODES, TICK, WARMUP_TICKS, COUNTED_TICKS = 8, 600, 2, 12

#: Python + builtin calls of the counted ticks at 320b4e9, per stage
COLLECT_CALLS_AT_320B4E9 = {
    "advance": 101517, "collect": 39600, "record": 133272,
}
#: the gate against their sum
MAX_COLLECT_CALLS_RATIO = 0.35


def _counted(stage, fn, calls):
    """``fn`` under its own profiler; its call count lands in ``calls``."""
    def run(*args):
        profile = cProfile.Profile()
        profile.enable()
        try:
            return fn(*args)
        finally:
            profile.disable()
            calls[stage] += pstats.Stats(profile).total_calls
    return run


class _Fleet:
    """An 8-node cluster running the offender mix, collected each tick."""

    def __init__(self, seed=3):
        self.cluster = Cluster(ClusterConfig(normal_nodes=NODES, seed=seed))
        self.collector = Collector(self.cluster)
        self.writers = {
            name: RawFileWriter(name, node.tree.arch.name,
                                self.collector.schemas_for(name))
            for name, node in self.cluster.nodes.items()
        }
        for user, app, nodes in OFFENDER_MIX:
            self.cluster.submit(JobSpec(
                user=user,
                app=make_app(app, runtime_mean=5400.0, fail_prob=0.0),
                nodes=nodes,
            ))
        self.calls = None

    def count(self):
        """From here on, the three entry points count their calls."""
        self.calls = {"advance": 0, "collect": 0, "record": 0}
        for node in self.cluster.nodes.values():
            node.tree.advance = _counted(
                "advance", node.tree.advance, self.calls)
        self.collector.collect = _counted(
            "collect", self.collector.collect, self.calls)
        for writer in self.writers.values():
            writer.record = _counted("record", writer.record, self.calls)

    def tick(self):
        """One tick: every node advanced to now, collected and recorded."""
        self.cluster.run_for(TICK)
        now = self.cluster.now()
        lines = 0
        for name in self.cluster.nodes:
            self.cluster.catch_up(name, now)
            sample = self.collector.collect(name)
            lines += self.writers[name].record(sample).count("\n")
        return lines


def test_collect_calls(benchmark):
    """A node-collection is one array step per device type: count, do
    not time.  Gate: ≤ 0.35× 320b4e9's calls for the same ticks."""
    fleet = _Fleet()
    for _ in range(WARMUP_TICKS):
        fleet.tick()
    fleet.count()
    lines = sum(fleet.tick() for _ in range(COUNTED_TICKS))
    assert lines > COUNTED_TICKS * NODES * 50
    calls = dict(fleet.calls)

    timed = _Fleet()
    for _ in range(WARMUP_TICKS):
        timed.tick()
    benchmark.pedantic(timed.tick, rounds=COUNTED_TICKS, iterations=1)
    total = sum(calls.values())
    parent = sum(COLLECT_CALLS_AT_320B4E9.values())
    ratio = total / parent
    record_bench(BENCH_JSON, "collect_calls", {
        "corpus": f"{NODES} nodes of a seed-3 cluster running the "
                  f"offender mix, {COUNTED_TICKS} {TICK} s ticks after "
                  f"{WARMUP_TICKS} warm-up ticks: DeviceTree.advance, "
                  f"Collector.collect and RawFileWriter.record per node",
        "calls": calls,
        "calls_total": total,
        "calls_at_320b4e9": COLLECT_CALLS_AT_320B4E9,
        "calls_total_at_320b4e9": parent,
        "ratio": round(ratio, 4),
        "tick_wall_us_per_node": round(
            benchmark.stats.stats.median / NODES * 1e6, 1),
    })
    assert ratio <= MAX_COLLECT_CALLS_RATIO, (
        f"{total} calls for {COUNTED_TICKS} {NODES}-node ticks ({calls}) "
        f"is {ratio:.2f}x 320b4e9's {parent} "
        f"(gate {MAX_COLLECT_CALLS_RATIO}x)"
    )
