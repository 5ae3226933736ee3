"""Job-pickle store: round-trip, ingest integration, versioning."""

import numpy as np
import pytest

from repro.metrics import compute_metrics
from repro.pipeline import JobPickleStore, ingest_jobs
from repro.db import Database
from tests.test_metrics.test_table1 import make_accum


def test_roundtrip_preserves_everything(tmp_path):
    store = JobPickleStore(tmp_path)
    accum = make_accum(
        n_hosts=3, T=5,
        mdc_reqs=np.arange(12, dtype=float).reshape(3, 4),
        mem_used=np.ones((3, 5)) * 2e9,
    )
    accum.jobid = "j42"
    accum.meta["arch"] = "intel_snb"
    store.save(accum)
    back = store.load("j42")
    assert back.jobid == "j42"
    assert back.hosts == accum.hosts
    assert back.vector_width == accum.vector_width
    assert back.meta["arch"] == "intel_snb"
    assert np.array_equal(back.times, accum.times)
    for key in accum.deltas:
        assert np.array_equal(back.deltas[key], accum.deltas[key]), key
    for key in accum.gauges:
        assert np.array_equal(back.gauges[key], accum.gauges[key]), key


def test_metrics_identical_from_pickle(tmp_path):
    store = JobPickleStore(tmp_path)
    accum = make_accum(
        mdc_reqs=np.array([[600.0, 1200.0, 300.0]] * 2),
        cpu_user=np.array([[40_000.0] * 3] * 2),
        cpu_total=np.array([[96_000.0] * 3] * 2),
    )
    accum.jobid = "m1"
    store.save(accum)
    assert compute_metrics(store.load("m1")) == compute_metrics(accum)


def test_missing_job_raises(tmp_path):
    with pytest.raises(KeyError):
        JobPickleStore(tmp_path).load("ghost")


def test_contains_jobids_delete(tmp_path):
    store = JobPickleStore(tmp_path)
    a = make_accum()
    a.jobid = "a"
    store.save(a)
    assert "a" in store
    assert store.jobids() == ["a"]
    store.delete("a")
    assert "a" not in store
    store.delete("a")  # idempotent


def test_version_mismatch_rejected(tmp_path):
    import json

    store = JobPickleStore(tmp_path)
    a = make_accum()
    a.jobid = "v"
    path = store.save(a)
    # rewrite the header with a future version
    data = dict(np.load(path))
    header = json.loads(bytes(data["__header__"]).decode())
    header["version"] = 99
    data["__header__"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8
    )
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **data)
    with pytest.raises(ValueError):
        store.load("v")


def test_ingest_writes_pickles(monitored_run, tmp_path):
    pickles = JobPickleStore(tmp_path)
    db = Database()
    res = ingest_jobs(
        monitored_run.store, monitored_run.cluster.jobs, db,
        pickle_store=pickles,
    )
    assert res.ingested == len(pickles.jobids())
    jid = pickles.jobids()[0]
    loaded = pickles.load(jid)
    # the pickle carries real data for the real job
    assert loaded.jobid == jid
    assert loaded.deltas["cpu_user"].sum() > 0
