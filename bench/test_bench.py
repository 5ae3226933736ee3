"""Smoke test of the benchmark itself.  Not tier-1: run it explicitly,

    python3 -m pytest bench/test_bench.py -q

It drives ``bench/run.py --scale 0.02`` (tiny fixtures, ~2 s timed
regions) through every workload, plain and traced.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--scale", "0.02"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    doc = json.loads((BENCH / "out" / "result.json").read_text())
    return proc.stdout, result, doc["workloads"][workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_prints_every_metric_with_its_unit(workload):
    stdout, result, detail = _run(workload, seed=5, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
        assert f"{m['name']} " in stdout and f" {m['unit']}\n" in stdout
    for key in ("schedule_hash", "tail_percentile", "ops_by_kind",
                "calib_ms"):
        assert key in detail


@pytest.mark.parametrize("workload", WORKLOADS)
def test_schedule_is_a_function_of_the_seed(workload):
    _, _, first = _run(workload, seed=5, trace=0)
    _, _, again = _run(workload, seed=5, trace=0)
    _, _, other = _run(workload, seed=6, trace=0)
    assert first["schedule_hash"] == again["schedule_hash"]
    assert first["schedule_hash"] != other["schedule_hash"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_covers_its_wall(workload):
    _, result, _ = _run(workload, seed=5, trace=1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    trace = json.loads(
        (BENCH / "out" / f"trace_{workload}.json").read_text())
    assert trace["stages"] and trace["spans"]
    assert trace["stage_self_sum_s"] == pytest.approx(
        trace["traced_wall_s"], rel=0.05)


def test_result_file_records_the_machine_shape():
    _run(WORKLOADS[0], seed=5, trace=0)
    doc = json.loads((BENCH / "out" / "result.json").read_text())
    for key in ("schema_version", "cpu_count", "python", "commit", "seed"):
        assert key in doc


def test_run_leaves_no_process_behind():
    """The spawned shard worker and multiprocessing's resource tracker
    have both ended (and been waited for) when ``run.py`` exits."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "batch_fleet_day", "--seed", "5", "--seconds", "2", "--trace", "0",
         "--scale", "0.02"],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    left = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[3]) == proc.pid:
            left.append(stat)
    assert not left
