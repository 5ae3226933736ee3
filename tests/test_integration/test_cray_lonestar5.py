"""Lonestar 5 (Cray XC40) deployment: daemon mode on Haswell.

§III-A: the daemon mode was *"most recently deployed on TACC's 1278
node Lonestar 5 Cray system"* — i.e. the Cray port is the daemon-mode
stack running on Haswell nodes with hardware threading.  This
integration test runs the full pipeline on that configuration and
checks the hyperthreading-aware pieces.
"""

import pytest

from repro import monitoring_session
from repro.cluster import JobSpec, make_app
from repro.pipeline import assemble_jobs, parse_blocks
from repro.pipeline.records import JobRecord


@pytest.fixture(scope="module")
def ls5():
    sess = monitoring_session(
        nodes=6, seed=52, tick=300, arch="intel_hsw",
        xeon_phi=False, mem_bytes=64 << 30,
    )
    sess.cluster.submit(JobSpec(
        user="alice",
        app=make_app("wrf", runtime_mean=4000.0, fail_prob=0.0,
                     runtime_sigma=0.05),
        nodes=2, wayness=24,  # one rank per physical core
    ))
    sess.cluster.submit(JobSpec(
        user="bob",
        app=make_app("gromacs", runtime_mean=3000.0, fail_prob=0.0,
                     runtime_sigma=0.05),
        nodes=2, wayness=24,
    ))
    sess.cluster.run_for(6 * 3600)
    sess.ingest()
    return sess


def test_haswell_topology_detected(ls5):
    node = ls5.cluster.nodes["c401-101"]
    assert node.tree.arch.name == "intel_hsw"
    assert node.tree.hyperthreaded
    assert node.tree.topology.cpus == 48
    assert node.tree.topology.cores == 24


def test_48_logical_cpu_instances_collected(ls5):
    sample = ls5.collector.collect("c401-101")
    assert len(sample.data["cpu"]) == 48
    assert len(sample.data["intel_hsw"]) == 48


def test_jobs_ingested_with_haswell_vector_width(ls5):
    JobRecord.bind(ls5.db)
    recs = {r.executable: r for r in JobRecord.objects.all()}
    assert len(recs) == 2
    gro = recs["mdrun"]
    assert gro.status == "COMPLETED"
    # AVX2 on 24 busy cores: real vectorised flops show up
    assert gro.flops > 5.0
    assert gro.VecPercent > 50


def test_accum_vector_width_is_4(ls5):
    jobdata, _ = assemble_jobs(parse_blocks(ls5.store), ls5.cluster.jobs)
    a = next(iter(jobdata.values())).accumulate()
    assert a.vector_width == 4
    assert a.meta["arch"] == "intel_hsw"


def test_one_rank_per_physical_core_affinity(ls5):
    jobdata, _ = assemble_jobs(parse_blocks(ls5.store), ls5.cluster.jobs)
    jd = next(iter(jobdata.values()))
    samples = next(iter(jd.host_samples().values()))
    procs = [p for s in samples if s.procs for p in s.procs]
    assert procs
    # each rank pinned to a physical core = both hyperthread siblings
    p = procs[0]
    assert len(p.cpu_affinity) == 2
    lo, hi = sorted(p.cpu_affinity)
    assert hi - lo == 24  # sibling numbering: cpu k and k+24


def test_cpu_usage_accounts_for_idle_siblings(ls5):
    """24 busy ranks on 48 logical CPUs: pooled user fraction ~0.5."""
    JobRecord.bind(ls5.db)
    wrf = JobRecord.objects.get(executable="wrf.exe")
    assert 0.25 < wrf.CPU_Usage < 0.65
