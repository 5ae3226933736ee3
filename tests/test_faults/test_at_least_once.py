"""At-least-once transport + idempotent ingest = exactly-once effect."""

from repro import monitoring_session
from repro.broker import Broker
from repro.cluster import Cluster, ClusterConfig, JobSpec, make_app
from repro.core import CentralStore, Collector, DaemonMode, StatsConsumer
from repro.faults import DeliveryDuplicate, FaultInjector, FaultPlan
from repro.pipeline.records import JobRecord


def test_consumer_crash_triggers_redelivery_not_loss(tmp_path):
    """A consumer that dies mid-handle gets its unacked message back."""
    c = Cluster(ClusterConfig(
        normal_nodes=2, largemem_nodes=0, development_nodes=0,
        tick=600, seed=41,
    ))
    col = Collector(c)
    broker = Broker(events=c.events, latency=1.0)
    store = CentralStore(tmp_path / "s")

    class DiesOnce(StatsConsumer):
        def __init__(self, *a):
            super().__init__(*a)
            self.crashed = False

        def _on_delivery(self, channel, delivery):
            if not self.crashed and self.consumed == 5:
                self.crashed = True
                raise RuntimeError("OOM")
            super()._on_delivery(channel, delivery)

    flaky = DiesOnce(broker, store)
    flaky.start()
    DaemonMode(c, col, broker).start()
    c.run_for(2 * 3600)
    assert flaky.crashed

    seen = []

    class Recorder(StatsConsumer):
        def _on_delivery(self, channel, delivery):
            seen.append(delivery.redelivered)
            super()._on_delivery(channel, delivery)

    replacement = Recorder(broker, store)
    replacement.start()
    c.run_for(3600 + 10)  # +10: drain the last interval's in-flight msgs
    # the crashed-on message came back flagged redelivered
    assert seen[0] is True
    assert broker.queue_depth("tacc_stats_ingest") == 0
    assert flaky.consumed + replacement.consumed == broker.published


def test_duplicated_deliveries_do_not_duplicate_job_rows():
    sess = monitoring_session(nodes=3, seed=42, tick=600)
    plan = FaultPlan(
        [DeliveryDuplicate(at=0, duration=6 * 3600, probability=0.6)],
        seed=42,
    )
    FaultInjector(plan, sess.cluster, broker=sess.broker,
                  daemon=sess.daemon, store=sess.store).arm()
    for i in range(3):
        sess.cluster.submit(JobSpec(
            user=f"u{i}",
            app=make_app("wrf", runtime_mean=3000.0, fail_prob=0.0),
            nodes=1,
        ))
    sess.cluster.run_for(4 * 3600)
    assert sess.broker.duplicated > 0
    first = sess.ingest()
    second = sess.ingest()
    assert first.ingested >= 3
    assert second.ingested == 0
    JobRecord.bind(sess.db)
    jobids = [r.jobid for r in JobRecord.objects.all()]
    assert len(jobids) == len(set(jobids))


def test_duplicated_samples_collapse_in_accumulation():
    """The raw file holds duplicate record blocks; the pipeline's
    timestamp dedup means metrics see each interval once."""
    sess = monitoring_session(nodes=2, seed=43, tick=600)
    plan = FaultPlan(
        [DeliveryDuplicate(at=0, duration=6 * 3600, probability=1.0)],
        seed=43,
    )
    FaultInjector(plan, sess.cluster, broker=sess.broker,
                  daemon=sess.daemon, store=sess.store).arm()
    job = sess.cluster.submit(JobSpec(
        user="u", app=make_app("namd", runtime_mean=2500.0, fail_prob=0.0),
        nodes=1,
    ))
    sess.cluster.run_for(2 * 3600)
    host = job.assigned_nodes[0]
    samples = list(sess.store.samples(host))
    timestamps = [s.timestamp for s in samples]
    assert len(timestamps) > len(set(timestamps))  # raw dups exist

    from repro.pipeline import assemble_jobs, parse_blocks

    jobdata, _ = assemble_jobs(parse_blocks(sess.store), sess.cluster.jobs)
    accum = jobdata[job.jobid].accumulate()
    assert len(accum.times) == len(set(accum.times.tolist()))
    for arr in accum.deltas.values():
        assert arr.size == 0 or float(arr.min()) >= 0.0
