#!/usr/bin/env python3
"""Repeatability check: two sets of runs of the same code must agree.

    python3 bench/repeat.py [--runs 10] [--seed 1] > bench/REPEATABILITY.md

Runs every workload ``--runs`` times with ``--trace 0``, each time with
another seed, then does the same again with fresh seeds.  For every
workload x end-to-end metric it prints both sets' medians and quartiles
(``statistics.quantiles(values, n=4)``), each set's spread (Q3 - Q1 over
the median) and how much worse the second median is than the first, all
against the metric's bound in ``BENCHMARK.json``.  Exit status 1 when a
spread (``setup_s`` excepted) or a set-to-set difference exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def _quartiles(values: List[float]):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    #: sets[set][workload][metric] -> values
    sets: List[Dict[str, Dict[str, List[float]]]] = []
    for s in range(2):
        seeds = range(args.seed + s * args.runs,
                      args.seed + (s + 1) * args.runs)
        got: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
        for seed in seeds:
            for w in workloads:
                for name, value in _run(w, seed, seconds).items():
                    got[w].setdefault(name, []).append(value)
                print(f"set {s + 1} seed {seed} {w} done", file=sys.stderr)
        sets.append(got)

    print("# Repeatability of the end-to-end benchmark\n")
    print(f"Two sets of {args.runs} runs of identical code "
          f"(`bench/repeat.py --runs {args.runs} --seed {args.seed}`), "
          f"{seconds} s timed region, seeds {args.seed}.."
          f"{args.seed + 2 * args.runs - 1}; "
          f"cpu_count={os.cpu_count()}, Python {platform.python_version()}, "
          f"{platform.platform()}.\n")
    print("spread = (Q3 - Q1) / median of one set; worse = how much worse "
          "the second set's median is than the first's (negative: better). "
          "Both are shares of the median, to be held under the bound.\n")
    breaches: List[str] = []
    for w in workloads:
        print(f"## {w}\n")
        print("| metric | unit | set 1 Q1 / median / Q3 | set 2 Q1 / median "
              "/ Q3 | spread 1 | spread 2 | worse | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = _quartiles(sets[0][w][name])
            b = _quartiles(sets[1][w][name])
            spreads = [(q3 - q1) / med for q1, med, q3 in (a, b)]
            worse = (b[1] - a[1]) / a[1]
            if m["better"] == "higher":
                worse = -worse
            flag = ""
            if name != "setup_s" and max(spreads) > bound:
                breaches.append(f"{w}/{name}: spread {max(spreads):.3f} "
                                f"> {bound}")
                flag = " **spread**"
            if worse > bound:
                breaches.append(f"{w}/{name}: set 2 worse by {worse:.3f} "
                                f"> {bound}")
                flag += " **worse**"
            print(f"| `{name}` | {m['unit']} "
                  f"| {a[0]:.4g} / {a[1]:.4g} / {a[2]:.4g} "
                  f"| {b[0]:.4g} / {b[1]:.4g} / {b[2]:.4g} "
                  f"| {spreads[0]:.3f} | {spreads[1]:.3f} "
                  f"| {worse:+.3f} | {bound}{flag} |")
        print()
    if breaches:
        print("## Breaches\n")
        for line in breaches:
            print(f"- {line}")
    else:
        print("No spread and no set-to-set difference exceeds its bound.")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
