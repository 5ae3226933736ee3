"""Ground truth: pipeline metrics vs configured application rates.

With device noise and application noise disabled, the metrics the
pipeline computes must equal the rates the application model was
configured with — the whole-stack conservation check (simulator →
counters → raw text → job mapping → rollover-corrected accumulation →
Table I formulas).
"""

import pytest

from repro import monitoring_session
from repro.cluster import ClusterConfig, Cluster, JobSpec, Phase, make_app
from repro.core import CentralStore, Collector, DaemonMode, StatsConsumer
from repro.broker import Broker
from repro.pipeline import assemble_jobs, parse_blocks
from repro.metrics import compute_metrics

#: the exact per-node rates we configure the app with
MDC = 50.0
OSC = 20.0
OC = 8.0
IB_MBS = 100.0
MEMBW_GBS = 20.0


@pytest.fixture(scope="module")
def metrics():
    cfg = ClusterConfig(
        normal_nodes=3, largemem_nodes=0, development_nodes=0,
        tick=300, seed=1, device_noise=0.0,
    )
    c = Cluster(cfg)
    col = Collector(c)
    broker = Broker(events=c.events, latency=1.0)
    store = CentralStore.__new__(CentralStore)
    import tempfile

    store.__init__(tempfile.mkdtemp(prefix="gt_"))
    StatsConsumer(broker, store).start()
    DaemonMode(c, col, broker).start()
    app = make_app(
        "io_heavy",
        runtime_mean=6000.0, runtime_sigma=0.0, fail_prob=0.0,
        temporal_noise=0.0, node_imbalance=0.0,
        mdc_reqs=MDC, osc_reqs=OSC, open_close=OC,
        mdc_wait_us=400.0, osc_wait_us=1000.0,
        read_mbs=10.0, write_mbs=30.0,
        ib_mbs=IB_MBS, gige_mbs=0.0,
        mem_bw_gbs=MEMBW_GBS, rank0_io=False,
        phases=(Phase(1.0),),
    )
    job = c.submit(JobSpec(user="u", app=app, nodes=2))
    c.run_for(4 * 3600)
    jd, _ = assemble_jobs(parse_blocks(store), c.jobs)
    return compute_metrics(jd[job.jobid].accumulate())


def test_lustre_rates_conserved(metrics):
    assert metrics["MDCReqs"] == pytest.approx(MDC, rel=0.03)
    assert metrics["OSCReqs"] == pytest.approx(OSC, rel=0.03)
    assert metrics["LLiteOpenClose"] == pytest.approx(OC, rel=0.03)


def test_wait_times_conserved(metrics):
    assert metrics["MDCWait"] == pytest.approx(400.0, rel=0.03)
    assert metrics["OSCWait"] == pytest.approx(1000.0, rel=0.03)


def test_lnet_bandwidth_conserved(metrics):
    # read+write 40 MB/s × 1.05 lnet overhead (+ small RPC headers)
    expected = 40.0 * 1.048576 * 1.05
    assert metrics["LnetAveBW"] == pytest.approx(expected, rel=0.06)


def test_ib_bandwidth_conserved(metrics):
    assert metrics["InternodeIBAveBW"] == pytest.approx(
        IB_MBS * 1.048576, rel=0.03
    )


def test_memory_bandwidth_conserved(metrics):
    assert metrics["mbw"] == pytest.approx(MEMBW_GBS, rel=0.03)


def test_max_at_least_average(metrics):
    assert metrics["MetaDataRate"] >= metrics["MDCReqs"] * 2 * 0.99
    assert metrics["LnetMaxBW"] >= metrics["LnetAveBW"] * 2 * 0.99


def test_balance_metrics_perfect_without_noise(metrics):
    assert metrics["idle"] == pytest.approx(1.0, abs=0.02)
    assert metrics["catastrophe"] == pytest.approx(1.0, abs=0.05)
