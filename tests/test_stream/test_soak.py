"""The ISSUE acceptance soak: two simulated days through the live path.

The claims under test, on one shared multi-day run (``soak_run``):

* every job the batch pipeline ingests also completes in the stream,
  and its completion-time (streaming) flag set equals the batch set,
  as do the bytes of the six Table I metrics the flags read;
* flags fire *while jobs run* — alerts exist before ``finalize()``,
  with sample→flag latency on the order of one collection interval;
* every broker delivery carries trace context, and the spans stitch
  into one trace per delivery (publish → process → tsdb write).
"""

import struct

from repro.obs.tracing import SPAN_ID_HEADER, TRACE_ID_HEADER
from repro.stream import STREAM_METRICS


def test_run_is_multiday_and_nontrivial(soak_run):
    clock = soak_run.sess.cluster.clock
    assert clock.now() - clock.epoch >= 2 * 86400
    assert soak_run.stream.samples > 500
    assert soak_run.result.ingested >= 6


def test_every_batch_job_completes_in_stream(soak_run):
    missing = set(soak_run.batch_flags) - set(soak_run.completed)
    assert not missing


def test_streaming_flags_equal_batch_flags(soak_run):
    """The tentpole equivalence: no approximation in the live path."""
    mismatches = {}
    for jobid, flags in sorted(soak_run.batch_flags.items()):
        res = soak_run.completed[jobid]
        assert not res.diverged, f"job {jobid} marked diverged"
        if sorted(res.final_flags) != flags:
            mismatches[jobid] = (sorted(res.final_flags), flags)
    assert not mismatches, f"stream != batch: {mismatches}"


def test_streaming_metrics_equal_batch_metric_bytes(soak_run):
    """Completion-time metric values are the batch record's columns,
    floats compared by their bytes."""
    jobs = [r for r in soak_run.completed.values() if not r.short]
    assert len(jobs) >= 6
    mismatches = {}
    for res in jobs:
        record = soak_run.batch_records[res.jobid]
        for name in STREAM_METRICS:
            got, want = res.metrics[name], getattr(record, name)
            if struct.pack("<d", got) != struct.pack("<d", want):
                mismatches[(res.jobid, name)] = (got, want)
    assert not mismatches, f"stream != batch: {mismatches}"


def test_flag_mix_is_interesting(soak_run):
    """The workload actually exercises the predicate set."""
    fired = {f for flags in soak_run.batch_flags.values() for f in flags}
    assert {"high_metadata_rate", "idle_nodes", "high_cpi"} <= fired


def test_alerts_fire_mid_run(soak_run):
    """Live flagging, not a post-hoc replay at finalize()."""
    assert soak_run.ledger_before_finalize, "no alert fired before the end"
    interval = 600  # the session's collection cadence
    for alert in soak_run.ledger_before_finalize:
        assert 0 <= alert.latency <= 3 * interval
    rules = {a.rule for a in soak_run.ledger_before_finalize}
    assert "high_metadata_rate" in rules


def test_live_flags_are_a_superset_of_nothing_spurious(soak_run):
    """A flag seen live on a completed, converged job appears in its
    final evaluation or fired transiently on a real §V-A predicate."""
    known = {
        "high_metadata_rate", "high_gige", "largemem_waste",
        "idle_nodes", "high_cpi", "sudden_drop", "sudden_rise",
    }
    for res in soak_run.completed.values():
        assert set(res.live_flags) <= known


def test_every_delivery_carries_trace_context(soak_run):
    assert soak_run.headers, "probe queue saw no deliveries"
    for headers in soak_run.headers:
        assert TRACE_ID_HEADER in headers, headers
        assert SPAN_ID_HEADER in headers, headers
        assert headers[TRACE_ID_HEADER] > 0
        assert headers[SPAN_ID_HEADER] > 0


def test_one_trace_per_delivery(soak_run):
    """publish → consumer → stream process → tsdb write: one trace."""
    by_id = {s.span_id: s for s in soak_run.spans}
    by_name = {}
    for s in soak_run.spans:
        by_name.setdefault(s.name, []).append(s)
    publishes = by_name.get("daemon.publish", [])
    assert publishes
    pub_traces = {s.trace_id for s in publishes}

    consumers = by_name.get("consumer.handle", [])
    processes = by_name.get("stream.process", [])
    writes = by_name.get("stream.tsdb_write", [])
    assert consumers and processes and writes

    for s in consumers + processes:
        assert s.parent_id is not None, f"{s.name} span has no parent"
        assert s.trace_id in pub_traces
        parent = by_id.get(s.parent_id)
        assert parent is not None and parent.name == "daemon.publish"
        assert parent.trace_id == s.trace_id

    for w in writes:
        parent = by_id.get(w.parent_id)
        assert parent is not None and parent.name == "stream.process"
        assert parent.trace_id == w.trace_id
        grandparent = by_id.get(parent.parent_id)
        assert grandparent is not None
        assert grandparent.name == "daemon.publish"
        assert grandparent.trace_id == w.trace_id


def test_obs_counters_match_pipeline_state(soak_run):
    assert soak_run.metrics["samples"] == soak_run.stream.samples
    assert soak_run.metrics["points"] == soak_run.stream.points
    assert soak_run.metrics["alerts"] == len(soak_run.stream.alerts.ledger)
    assert soak_run.metrics["inflight"] == 0  # finalize() drained it
    assert (
        soak_run.metrics["latency_count"]
        == len(soak_run.stream.alerts.ledger)
        + soak_run.stream.alerts.suppressed
    )


def test_alert_trace_ids_join_publish_traces(soak_run):
    pub_traces = {
        s.trace_id for s in soak_run.spans if s.name == "daemon.publish"
    }
    live = [a for a in soak_run.ledger_before_finalize]
    assert live
    for alert in live:
        assert alert.trace_id in pub_traces
