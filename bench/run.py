#!/usr/bin/env python3
"""The end-to-end benchmark: one command, four workloads, six metrics.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of
standard output, one JSON object ``{correct, attempted, failed,
metrics}``: the six end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` every workload of
``BENCHMARK.json`` runs in a process of its own and one table is printed.
Exit status is non-zero when an op or an output check failed.

The benchmark imports only public ``repro.*`` names, changes nothing
under ``src/`` and measures the layers from outside.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SCHEMA_VERSION = 1
#: full set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: spans written verbatim to the trace file (the stage table covers all)
TRACE_SPAN_ROWS = 20_000


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _pinned_environment() -> None:
    """Re-exec once with a fixed hash seed and ``src`` importable, so a
    run does not depend on the caller's environment (the spawned shard
    worker inherits both)."""
    src = str(ROOT / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if os.environ.get("PYTHONHASHSEED") == "0" and src in paths:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in paths if p])
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _pin_to_one_cpu() -> Optional[int]:
    """Run on one CPU (workers inherit it).  Every workload is a closed
    loop whose threads and worker take turns, so nothing is lost; what
    goes away is the scheduler's choice of whether a hand-off crosses
    vCPUs, which on a 2-vCPU VM triples the portal's hit latency."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _machine(seed: int, seconds: float, scale: float,
             pinned_cpu: Optional[int]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "cpu_count": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
    }


# -- one workload ---------------------------------------------------------------
def _workloads() -> Dict[str, Callable]:
    from wl_batch import BatchFleetDay
    from wl_live import LiveReplay
    from wl_portal import PortalCold, PortalHotRW

    return {w.name: w for w in
            (BatchFleetDay, LiveReplay, PortalCold, PortalHotRW)}


class _Scratch:
    """Per-set-up scratch directories under ``bench/out/tmp``; nothing
    is written outside the checkout."""

    def __init__(self, label: str) -> None:
        self.root = OUT / "tmp" / f"{label}-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self._n = 0
        tempfile.tempdir = str(self.root)
        os.environ["TMPDIR"] = str(self.root)

    def fresh(self) -> Path:
        self._n += 1
        path = self.root / f"s{self._n}"
        path.mkdir()
        return path

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _timed_phase(make: Callable, scratch: _Scratch, seconds: float,
                 tracer=None, setups: int = 1):
    """Set up, run the timed region, check outputs, tear down; then set
    up ``setups - 1`` more times for the median (after the region, so
    that memory is measured in a process that has set up once).
    Returns what the caller reports from."""
    from repro import obs
    import harness

    setup_s: List[Tuple[float, float]] = []  # (seconds, slowdown around it)

    def timed_setup():
        tmp = scratch.fresh()
        obs.reset()
        workload = make(tmp)
        before = harness.probe_burst()
        t0 = time.perf_counter()
        workload.setup()
        took = time.perf_counter() - t0
        setup_s.append((took, (before + harness.probe_burst()) / 2))
        return workload, tmp

    workload, tmp = timed_setup()
    obs.reset()
    digest = harness.schedule_hash(workload.schedule())
    log = harness.run_ops(workload, seconds, tracer=tracer)
    log.schedule_hash = digest
    problems = list(log.errors)
    try:
        problems += workload.check()
        counts = workload.counts()
    finally:
        workload.teardown()
    shutil.rmtree(tmp, ignore_errors=True)
    for _ in range(setups - 1):
        again, tmp = timed_setup()
        again.teardown()
        shutil.rmtree(tmp, ignore_errors=True)
    return log, problems, counts, setup_s


def _end_to_end(tail_pct: int, log, setup_s: List[Tuple[float, float]],
                import_s: float) -> Dict[str, float]:
    """The six metrics; timings at the reference machine speed, with the
    clock's own readings next to them as ``raw_*``."""
    import harness

    rss_mb, stored, points = log.snapshot
    return {
        **harness.latency_metrics(log, tail_pct),
        "tsdb_bytes_per_point": stored / points,
        "peak_rss_mb": rss_mb,
        "setup_s": harness.median([t / slow for t, slow in setup_s])
        + import_s / setup_s[0][1],
        "raw_setup_s": harness.median([t for t, _ in setup_s]) + import_s,
    }


def _stage_metrics(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    def self_s(stage: str) -> float:
        return table.get(stage, {}).get("self_s", 0.0)

    def calls(stage: str) -> float:
        return float(table.get(stage, {}).get("calls", 0))

    http = sum(row["self_s"] for stage, row in table.items()
               if stage.startswith("op.") and stage != "op.write"
               ) if calls("portal.render") else 0.0
    return {
        "core.rawfile.parse_self_s": self_s("core.rawfile.parse"),
        "pipeline.parse_blocks_self_s": self_s("pipeline.parse_blocks"),
        "pipeline.assemble_self_s": self_s("pipeline.assemble"),
        "metrics.compute_self_s": self_s("metrics.compute"),
        "db.bulk_create_self_s": self_s("db.bulk_create")
        + self_s("db.executemany"),
        "db.query_self_s": self_s("db.query"),
        "db.statements": calls("db.query") + calls("db.executemany"),
        "shard.route_self_s": self_s("shard.ingest") + self_s("shard.query")
        + self_s("shard.seal"),
        "broker.publish_self_s": self_s("broker.publish"),
        "stream.gather_self_s": self_s("stream.gather"),
        "stream.analyze_self_s": self_s("stream.analyze"),
        "stream.retention_self_s": self_s("stream.retention"),
        "stream.put_many_calls": calls("stream.retention"),
        "tsdb.ingest_gather_self_s": self_s("tsdb.ingest_gather"),
        "tsdb.put_many_self_s": self_s("tsdb.put_many"),
        "tsdb.put_many_calls": calls("tsdb.put_many"),
        "tsdb.seal_self_s": self_s("tsdb.seal"),
        "tsdb.query_self_s": self_s("tsdb.query"),
        "tsdb.scan_self_s": self_s("tsdb.scan"),
        "portal.render_self_s": self_s("portal.render"),
        "portal.http_self_s": http,
    }


def _write_trace(name: str, tracer, table, wall_s: float, machine: dict,
                 ) -> None:
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    covered = sum(r["self_s"] for _, r in rows)
    doc = {
        **machine,
        "workload": name,
        "traced_wall_s": wall_s,
        "stage_self_sum_s": covered,
        "stages": [
            {"stage": stage, **row,
             "self_pct_of_wall": 100.0 * row["self_s"] / wall_s}
            for stage, row in rows
        ],
        "span_fields": ["stage", "start_ns", "end_ns", "parent", "op"],
        "spans_total": len(tracer),
        "spans": tracer.span_rows(TRACE_SPAN_ROWS),
    }
    (OUT / f"trace_{name}.json").write_text(json.dumps(doc) + "\n")
    print(f"stage table ({name}, traced wall {wall_s:.2f} s, "
          f"{len(tracer)} spans):")
    print(f"  {'stage':<26}{'calls':>9}{'self s':>10}{'% wall':>8}")
    for stage, row in rows:
        if row["calls"]:
            print(f"  {stage:<26}{row['calls']:>9}{row['self_s']:>10.3f}"
                  f"{100.0 * row['self_s'] / wall_s:>8.1f}")
    print(f"  {'(sum of self times)':<26}{'':>9}{covered:>10.3f}"
          f"{100.0 * covered / wall_s:>8.1f}")


def run_one(name: str, seed: int, seconds: float, trace: bool,
            scale: float) -> int:
    """One workload in this process.  Whatever way the run ends, every
    process it started (shard worker, multiprocessing's resource tracker)
    is stopped and waited for before this returns or raises."""
    try:
        return _run_one(name, seed, seconds, trace, scale)
    finally:
        import harness  # here: _run_one times the imports for setup_s
        harness.stop_children()


def _run_one(name: str, seed: int, seconds: float, trace: bool,
             scale: float) -> int:
    pinned_cpu = _pin_to_one_cpu()
    import_t0 = time.perf_counter()
    import harness
    cls = _workloads()[name]
    import_s = time.perf_counter() - import_t0

    spec = _spec()
    OUT.mkdir(exist_ok=True)
    scratch = _Scratch(name)
    machine = _machine(seed, seconds, scale, pinned_cpu)
    extra: Dict[str, object] = {}
    try:
        if not trace:
            log, problems, _counts, setup_s = _timed_phase(
                lambda tmp: cls(seed, scale, tmp), scratch, seconds,
                setups=SETUPS,
            )
            values = _end_to_end(cls.tail_pct, log, setup_s, import_s)
            wanted = spec["end_to_end"]
            attempted, failed = log.attempted, log.failed
            extra["setup_runs_s"] = [t for t, _ in setup_s]
            extra["raw"] = {k: v for k, v in values.items()
                            if k.startswith(("raw_", "slowdown"))}
        else:
            values, attempted, failed, problems, log = _traced(
                cls, name, seed, seconds, scale, scratch, machine)
            wanted = spec["per_layer"]
    finally:
        scratch.remove()

    failed += len(problems)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    print(f"{name}: {attempted} {cls.op_unit} attempted, "
          f"{failed} failed, calib {harness.median(list(log.probe_ms)):.3f} ms")
    for key, m in metrics.items():
        print(f"  {key:<34}{m['value']:>16.6g} {m['unit']}")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    doc = {
        **machine, "workloads": {name: {
            **result, "trace": int(trace),
            "ops_by_kind": {k: len(v) for k, v in log.by_kind().items()},
            "tail_percentile": cls.tail_pct,
            "op_unit": cls.op_unit,
            "schedule_hash": log.schedule_hash,
            "calib_ms": harness.median(list(log.probe_ms)),
            "timed_wall_s": log.wall_ns / 1e9,
            **extra,
        }},
    }
    (OUT / "result.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _traced(cls, name: str, seed: int, seconds: float, scale: float,
            scratch: _Scratch, machine: dict):
    """The per-layer run: a plain phase, then the same schedule with the
    wrappers installed.  Their per-kind mean latencies give the tracing
    overhead; ``batch_fleet_day`` adds a plain in-process phase between,
    because the wrappers cannot reach a spawned worker."""
    import harness
    import spans

    in_process = cls.spawns_worker
    share = (0.3, 0.25, 0.45) if in_process else (0.4, 0.0, 0.6)

    def make(**kw):
        return lambda tmp: cls(seed, scale, tmp, **kw)

    plain, problems, counts, _ = _timed_phase(
        make(), scratch, seconds * share[0])
    attempted, failed = plain.attempted, plain.failed
    base = plain
    kw = {"in_process": True} if in_process else {}
    if in_process:
        base, more, _c, _ = _timed_phase(
            make(**kw), scratch, seconds * share[1])
        attempted, failed = attempted + base.attempted, failed + base.failed
        problems += more
    tracer = spans.Tracer()
    with spans.Installed(tracer):
        traced, more, traced_counts, _ = _timed_phase(
            make(**kw), scratch, seconds * share[2], tracer=tracer)
    attempted, failed = attempted + traced.attempted, failed + traced.failed
    problems += more

    table = tracer.stage_table()
    wall_s = traced.wall_ns / 1e9
    _write_trace(name, tracer, table, wall_s, machine)
    setup_table = tracer.stage_table(timed=False)
    collect = setup_table.get("core.collect", {})

    values: Dict[str, float] = dict(traced_counts)
    # the RPC boundary only exists in the plain workers=1 phase
    values.update({k: v for k, v in counts.items() if k.startswith("shard.")})
    values.update(_stage_metrics(table))
    if "stream.retention" in table and table["stream.retention"]["calls"]:
        per_op = tracer.per_op_seconds("stream.retention")
        values["stream.write_p50_ms"] = 1e3 * harness.median(per_op)
        values["stream.points_per_call"] = (
            traced_counts.get("tsdb.points_written", 0.0)
            / table["stream.retention"]["calls"]
        )
    values["core.rawfile.samples"] = float(
        tracer.items.get("core.rawfile.parse", 0))
    if collect.get("calls"):
        values["core.collect_us_per_sample"] = (
            1e6 * collect["total_s"] / collect["calls"])
    for kind, lat in plain.by_kind().items():
        values[f"portal.route.{kind}_p50_ms"] = (
            harness.percentile(sorted(lat), 50) / 1e6)
    values["obs.trace_overhead_ratio"] = harness.overhead_ratio(base, traced)
    values["host.calib_ms"] = harness.median(
        list(plain.probe_ms) + list(base.probe_ms) + list(traced.probe_ms))
    return values, attempted, failed, problems, traced


# -- every workload ---------------------------------------------------------------
def run_all(seed: int, seconds: float, trace: bool, scale: float) -> int:
    spec = _spec()
    merged: Optional[dict] = None
    summary: Dict[str, dict] = {}
    status = 0
    for w in spec["workloads"]:
        for traced in ([0, 1] if trace else [0]):
            cmd = [sys.executable, str(BENCH / "run.py"),
                   "--workload", w["name"], "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(traced),
                   "--scale", str(scale)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            doc = json.loads((OUT / "result.json").read_text())
            key = w["name"] + (".trace" if traced else "")
            if merged is None:
                merged = {**doc, "workloads": {}}
            merged["workloads"][key] = doc["workloads"][w["name"]]
            summary[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    (OUT / "result.json").write_text(json.dumps(merged, indent=1) + "\n")
    print(json.dumps(summary))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload of BENCHMARK.json "
                    "(default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed region (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="1: the per-layer run")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the fixtures (smoke tests only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro next to bench/ - run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    _pinned_environment()
    # a terminated run unwinds like any other: teardown, stop_children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = args.seconds if args.seconds is not None else float(
        _spec()["run_seconds"])
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace), args.scale)
    if args.workload not in {w["name"] for w in _spec()["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, seconds, bool(args.trace),
                   args.scale)


if __name__ == "__main__":
    sys.exit(main())
