"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and
prints a paper-vs-measured comparison via :func:`report`.  Output is
shown with ``pytest benchmarks/ --benchmark-only -s`` (and summarised
in EXPERIMENTS.md).
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
from pathlib import Path
from typing import Iterable, Sequence, Tuple

from repro import MonitoringSession, monitoring_session
from repro.cluster import JobSpec, make_app

#: standard workload used by several pipeline benchmarks
STANDARD_MIX = (
    ("alice", "wrf", 4),
    ("bob", "namd", 2),
    ("carol", "vasp", 2),
    ("dave", "openfoam", 2),
    ("erin", "io_heavy", 2),
)


@functools.lru_cache(maxsize=None)
def git_commit() -> str:
    """``git describe`` of the checkout, recorded next to BENCH numbers.

    Run once per process, at the first record and so before any write:
    asked again, it would see the BENCH file an earlier section of the
    same run rewrote and name the commit ``-dirty``."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_bench(path: Path, section: str, payload: dict) -> None:
    """Merge one benchmark's numbers into a ``BENCH_*.json`` file as
    ``section``, stamped with the machine shape and the commit; the
    file's other sections are kept."""
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data[section] = {
        **payload, "cpu_count": os.cpu_count(), "commit": git_commit(),
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def report(title: str, rows: Iterable[Sequence], headers: Sequence[str]) -> None:
    """Print one experiment's comparison table."""
    rows = [tuple(str(c) for c in r) for r in rows]
    headers = [str(h) for h in headers]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def standard_session(
    nodes: int = 10, seed: int = 404, hours: int = 12, **kw
) -> MonitoringSession:
    """A monitored cluster that ran the standard mix to completion."""
    sess = monitoring_session(nodes=nodes, seed=seed, tick=300, **kw)
    for user, app, n in STANDARD_MIX:
        sess.cluster.submit(JobSpec(
            user=user,
            app=make_app(app, runtime_mean=4000.0, fail_prob=0.0,
                         runtime_sigma=0.2),
            nodes=n,
        ))
    sess.cluster.run_for(hours * 3600)
    return sess


def once(benchmark, fn):
    """Run a heavy scenario exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
