"""Energy breakdown by socket, process and DRAM (contribution §I-C)."""

import pytest

from repro.analysis.energy import COMPONENTS, energy_breakdown
from repro.pipeline import assemble_jobs, parse_blocks


@pytest.fixture(scope="module")
def wrf_report(monitored_run):
    jobdata, _ = assemble_jobs(
        parse_blocks(monitored_run.store), monitored_run.cluster.jobs)
    jd = next(
        j for j in jobdata.values()
        if j.job and j.job.executable == "wrf.exe"
    )
    return jd, energy_breakdown(jd.jobid, jd.host_samples())


def test_per_socket_breakdown_shape(wrf_report):
    jd, rep = wrf_report
    # 4 nodes × 2 sockets on Sandy Bridge
    assert len(rep.per_socket) == 8
    for comps in rep.per_socket.values():
        assert set(comps) == set(COMPONENTS)
        assert comps["pkg"] > comps["core"] > 0  # LLC share inside pkg
        assert comps["dram"] > 0


def test_component_ordering_and_power_band(wrf_report):
    jd, rep = wrf_report
    power = rep.average_power()
    n_nodes = jd.n_hosts
    # a busy 2-socket SNB node draws ~100–350 W package + dram
    per_node = (power["pkg"] + power["dram"]) / n_nodes
    assert 80 < per_node < 400
    assert power["pkg"] > power["dram"]


def test_per_host_sums_sockets(wrf_report):
    jd, rep = wrf_report
    hosts = rep.per_host()
    assert len(hosts) == 4
    assert sum(h["pkg"] for h in hosts.values()) == pytest.approx(
        rep.totals()["pkg"]
    )


def test_process_attribution_covers_most_core_energy(wrf_report):
    jd, rep = wrf_report
    attributed = sum(rep.per_process.values())
    core_total = rep.totals()["core"]
    # ranks pin every core: most dynamic+shared core energy attributed
    assert attributed > 0.5 * core_total
    assert attributed + rep.unattributed_core == pytest.approx(
        core_total, rel=0.02
    )
    # one process per rank per node: 16 ranks × 4 nodes
    assert len(rep.per_process) == 64


def test_total_energy_consistent_with_runtime(wrf_report):
    jd, rep = wrf_report
    job = jd.job
    # sanity: total J ≈ average power × elapsed
    avg = rep.average_power()
    assert rep.total_joules() == pytest.approx(
        (avg["pkg"] + avg["dram"]) * rep.elapsed, rel=1e-6
    )
    assert rep.elapsed >= job.run_time() * 0.9


def test_idle_job_energy_mostly_unattributed(monitored_run):
    """The idle-half job: reserved nodes burn baseline watts that no
    process can claim."""
    jobdata, _ = assemble_jobs(
        parse_blocks(monitored_run.store), monitored_run.cluster.jobs)
    jd = next(
        j for j in jobdata.values()
        if j.job and j.job.executable == "run_ensemble.sh"
    )
    rep = energy_breakdown(jd.jobid, jd.host_samples())
    assert rep.totals()["pkg"] > 0
    # half the nodes idle: a substantial unattributed share (the idle
    # node's baseline core energy belongs to no process)
    core = rep.totals()["core"]
    assert rep.unattributed_core > 0.2 * core
