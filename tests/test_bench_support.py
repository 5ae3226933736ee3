"""``benchmarks/_support.py``: how a BENCH record is stamped."""

import json
import subprocess

import pytest

from benchmarks import _support


@pytest.fixture()
def describes(monkeypatch):
    """Count ``git describe`` runs; a later run would see the tree
    dirty."""
    calls = []

    def run(cmd, **kwargs):
        calls.append(cmd)
        suffix = "-dirty" if len(calls) > 1 else ""
        return subprocess.CompletedProcess(cmd, 0, f"abc1234{suffix}\n", "")

    _support.git_commit.cache_clear()
    monkeypatch.setattr(_support.subprocess, "run", run)
    yield calls
    _support.git_commit.cache_clear()


def test_one_run_stamps_every_section_with_one_describe(tmp_path, describes):
    path = tmp_path / "BENCH_x.json"
    _support.record_bench(path, "first", {"n": 1})
    _support.record_bench(path, "second", {"n": 2})
    data = json.loads(path.read_text())
    assert len(describes) == 1
    assert data["first"]["commit"] == data["second"]["commit"] == "abc1234"
    assert (data["first"]["n"], data["second"]["n"]) == (1, 2)
