"""Job mapping: bucketing raw-store records by job id.

Each case runs ``assemble_jobs`` over ``parse_blocks`` (the ETL) and
the frozen per-sample ``map_jobs`` (the oracle in ``reference.py``) on
the same store and requires the same jobs, hosts, per-host timestamps,
dropped-short counts, the schemas each record is read under and the
arch before asserting the values.
"""

import numpy as np

from repro.core.collector import Sample
from repro.core.rawfile import RawFileWriter
from repro.core.store import CentralStore
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.pipeline.parallel import assemble_jobs, parse_blocks
from tests.test_pipeline import reference

SCHEMAS = {"mdc": Schema([SchemaEntry("reqs", width=64)])}


def put(store, host, entries, schemas=SCHEMAS):
    """entries: list of (ts, jobids, value)."""
    w = RawFileWriter(host, "intel_snb", schemas)
    text = w.header()
    for ts, jobids, v in entries:
        text += w.record(Sample(
            host=host, timestamp=ts, jobids=list(jobids),
            data={t: {"i": np.array([float(v)])} for t in schemas},
            procs=[],
        ))
    store.append(host, text, arrived_at=0)


def map_jobs(store, jobs=None, hosts=None):
    """The ETL's (jobdata, dropped), checked against the oracle's."""
    got, dropped = assemble_jobs(parse_blocks(store, hosts=hosts), jobs)
    want, want_dropped = reference.map_jobs(store, jobs, hosts=hosts)
    assert dropped == want_dropped
    assert sorted(got) == sorted(want)
    for jid, jd in got.items():
        ref = want[jid]
        assert jd.job is ref.job
        # the job's architecture is its first host's
        assert jd.host_rows[min(jd.host_rows)][0].arch == ref.arch
        samples = jd.host_samples()
        assert sorted(samples) == sorted(ref.hosts)
        for host, rows in samples.items():
            assert [(s.timestamp, s.jobids) for s in rows] == [
                (s.timestamp, s.jobids) for s in ref.hosts[host]
            ]
            assert [
                {t: sc.names() for t, sc in s.layout.schemas.items()}
                for s in rows
            ] == [
                {t: sc.names() for t, sc in s.schemas.items() if t in s.data}
                for s in ref.hosts[host]
            ]
    return got, dropped


def test_samples_bucketed_per_job(tmp_path):
    store = CentralStore(tmp_path)
    put(store, "n1", [(0, ["A"], 1), (600, ["A"], 2), (1200, ["B"], 3),
                      (1800, ["B"], 4)])
    put(store, "n2", [(0, ["A"], 1), (600, ["A"], 2)])
    jd, dropped = map_jobs(store)
    assert set(jd) == {"A", "B"}
    assert sorted(jd["A"].host_rows) == ["n1", "n2"]
    assert jd["B"].n_hosts == 1
    assert dropped == {}


def test_shared_sample_lands_in_both_jobs(tmp_path):
    store = CentralStore(tmp_path)
    put(store, "n1", [(0, ["A", "B"], 1), (600, ["A", "B"], 2)])
    jd, _ = map_jobs(store)
    assert len(jd["A"].host_samples()["n1"]) == 2
    assert len(jd["B"].host_samples()["n1"]) == 2


def test_short_jobs_dropped_with_count(tmp_path):
    store = CentralStore(tmp_path)
    put(store, "n1", [(0, ["A"], 1)])  # single sample: unusable
    put(store, "n2", [(0, ["B"], 1), (600, ["B"], 2), (1200, ["B"], 3)])
    put(store, "n3", [(0, ["B"], 1)])  # B is short on one of its hosts
    jd, dropped = map_jobs(store)
    assert jd == {}
    assert dropped == {"A": 1, "B": 1}


def test_untagged_samples_ignored(tmp_path):
    store = CentralStore(tmp_path)
    put(store, "n1", [(0, [], 1), (600, ["A"], 2), (1200, ["A"], 3)])
    jd, _ = map_jobs(store)
    assert set(jd) == {"A"}


def test_job_metadata_attached(tmp_path):
    from repro.cluster.apps import make_app
    from repro.cluster.jobs import Job, JobSpec

    store = CentralStore(tmp_path)
    put(store, "n1", [(0, ["A"], 1), (600, ["A"], 2)])
    job = Job(jobid="A",
              spec=JobSpec(user="u", app=make_app("wrf"), nodes=1),
              submit_time=0)
    jd, _ = map_jobs(store, jobs={"A": job})
    assert jd["A"].job is job


def test_samples_sorted_by_time(tmp_path):
    store = CentralStore(tmp_path)
    put(store, "n1", [(600, ["A"], 2), (0, ["A"], 1)])
    jd, _ = map_jobs(store)
    ts = [s.timestamp for s in jd["A"].host_samples()["n1"]]
    assert ts == [0, 600]


def test_schemas_and_arch_recorded(tmp_path):
    store = CentralStore(tmp_path)
    put(store, "n1", [(0, ["A"], 1), (600, ["A"], 2)])
    jd, _ = map_jobs(store)
    assert [sorted(s.layout.schemas)
            for s in jd["A"].host_samples()["n1"]] == [["mdc"], ["mdc"]]
    assert jd["A"].host_rows["n1"][0].arch == "intel_snb"


def test_late_schema_lines_extend_the_job(tmp_path):
    """A new day's header that declares more device types: the job's
    records after it are read under the wider set, those before it —
    the last one too, which the header follows — under theirs."""
    wider = dict(SCHEMAS, mem=Schema([SchemaEntry("MemUsed", event=False)]))
    store = CentralStore(tmp_path)
    put(store, "n1", [(0, ["A"], 1), (600, ["A"], 2)])
    put(store, "n1", [(1200, ["A"], 3), (1800, ["A"], 4)], schemas=wider)
    jd, _ = map_jobs(store)
    assert [sorted(s.layout.schemas)
            for s in jd["A"].host_samples()["n1"]] == [
        ["mdc"], ["mdc"], ["mdc", "mem"], ["mdc", "mem"]]


def test_hosts_filter(tmp_path):
    store = CentralStore(tmp_path)
    put(store, "n1", [(0, ["A"], 1), (600, ["A"], 2)])
    put(store, "n2", [(0, ["B"], 1), (600, ["B"], 2)])
    jd, _ = map_jobs(store, hosts=["n1"])
    assert set(jd) == {"A"}
