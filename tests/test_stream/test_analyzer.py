"""StreamingFlagAnalyzer unit behaviour on synthetic samples.

The bit-exactness claim against the batch pipeline is proven on a real
fleet in ``test_soak.py``; here the incremental machinery is exercised
directly: frontier alignment, rollover/reset correction, forward-fill,
duplicate timestamps, job lifecycle and divergence tracking.
"""

import numpy as np
import pytest

from repro.core.rawfile import ParsedSample
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.metrics.flags import Thresholds
from repro.stream.analyzer import (
    STREAM_QUANTITIES,
    StreamingFlagAnalyzer,
    _HostPlans,
    _JobStream,
)

SCHEMAS = {
    "mdc": Schema([SchemaEntry("reqs", width=32)]),
    "mem": Schema([SchemaEntry("MemUsed")]),
}

TH = Thresholds()


def mk(host, ts, reqs, mem=2e9, jobids=("7",)):
    data = {"mdc": {"t": np.array([float(reqs)])}}
    if mem is not None:
        data["mem"] = {"0": np.array([float(mem)])}
    return ParsedSample(host=host, timestamp=ts, jobids=list(jobids),
                        data=data, procs=[])


def job_stream():
    return _JobStream("7", _HostPlans(STREAM_QUANTITIES))


def feed(js, host, sample):
    """What ``StreamingFlagAnalyzer.observe`` hands a job: the sample's
    summed counters under its host's plan."""
    js.observe(host, sample.timestamp, js.plans.row(host, sample, SCHEMAS))


def stream_for(samples, force=True):
    js = job_stream()
    for s in samples:
        feed(js, s.host, s)
    js.advance(TH, None, force=force)
    return js


def test_frontier_waits_for_lagging_host():
    js = job_stream()
    feed(js, "n1", mk("n1", 0, 100))
    feed(js, "n1", mk("n1", 600, 200))
    feed(js, "n2", mk("n2", 0, 100))
    js.advance(TH, None)
    # n2 has not reported past t=0 yet: nothing may be consumed
    assert js.times == []
    feed(js, "n2", mk("n2", 600, 300))
    js.advance(TH, None)
    assert js.times == [0]  # both reported past 0; 600 still open


def test_timestamps_outside_the_intersection_are_dropped():
    js = stream_for([
        mk("n1", 0, 100), mk("n1", 600, 200), mk("n1", 1200, 300),
        mk("n2", 0, 100), mk("n2", 1200, 500),  # n2 missed t=600
    ])
    assert js.times == [0, 1200]
    rows = js._assemble().deltas["mdc_reqs"].tolist()
    assert rows == [[200.0], [400.0]]  # n1, n2


def test_wrap_correction_mid_series():
    width = 2.0**32
    js = stream_for([
        mk("n1", 0, width - 300),
        mk("n1", 600, width - 100),
        mk("n1", 1200, 100),  # wraps past 2**32
    ])
    assert js._assemble().deltas["mdc_reqs"].tolist() == [[200.0, 200.0]]


def test_counter_reset_detected():
    # a fall too large to be a wrap is a reset: delta = later value
    js = stream_for([
        mk("n1", 0, 3e9),
        mk("n1", 600, 1e6),
    ])
    assert js._assemble().deltas["mdc_reqs"].tolist() == [[1e6]]


def test_duplicate_timestamp_last_wins():
    js = stream_for([
        mk("n1", 0, 100),
        mk("n1", 0, 150),  # prolog + periodic coincide
        mk("n1", 600, 250),
    ])
    assert js._assemble().deltas["mdc_reqs"].tolist() == [[100.0]]


def test_gauge_leading_nan_backfilled():
    js = stream_for([
        mk("n1", 0, 100, mem=None),   # mem type missing at first
        mk("n1", 600, 200, mem=5e9),
        mk("n1", 1200, 300, mem=7e9),
    ])
    assert js._assemble().gauges["mem_used"].tolist() == [[5e9, 5e9, 7e9]]


def test_assembled_arrays_are_batch_shaped():
    js = stream_for([
        mk("n1", 0, 100), mk("n1", 600, 300),
        mk("n2", 0, 500, mem=4e9), mk("n2", 600, 900, mem=4e9),
    ])
    accum = js._assemble()
    assert accum.hosts == ["n1", "n2"]  # sorted
    assert list(accum.times) == [0, 600]
    assert accum.deltas["mdc_reqs"].shape == (2, 1)
    assert accum.deltas["mdc_reqs"].tolist() == [[200.0], [400.0]]
    assert accum.gauges["mem_used"].shape == (2, 2)
    # quantities never seen stay zero rows, exactly like batch
    assert not accum.deltas["gige_bytes"].any()


def test_analyzer_job_lifecycle_and_flag_fires_mid_run():
    an = StreamingFlagAnalyzer()
    events = []
    # an absurd metadata rate so high_metadata_rate must trip
    events += an.observe("n1", mk("n1", 0, 0), SCHEMAS)
    events += an.observe("n1", mk("n1", 600, 1e8), SCHEMAS)
    assert an.inflight == 1
    events += an.observe("n1", mk("n1", 1200, 2e8), SCHEMAS)
    fired = [(e.jobid, e.flag.name, e.data_time) for e in events]
    assert ("7", "high_metadata_rate", 600) in fired
    # the same flag does not fire twice
    events2 = an.observe("n1", mk("n1", 1800, 3e8), SCHEMAS)
    assert "high_metadata_rate" not in [e.flag.name for e in events2]
    # the host stops mentioning the job: it completes
    an.observe("n1", mk("n1", 2400, 4e8, jobids=()), SCHEMAS)
    assert an.inflight == 0
    res = an.completed["7"]
    assert not res.short and not res.diverged
    assert res.n_times == 4
    assert "high_metadata_rate" in res.live_flags
    assert "high_metadata_rate" in res.final_flags


def test_single_sample_job_is_short():
    an = StreamingFlagAnalyzer()
    an.observe("n1", mk("n1", 0, 100), SCHEMAS)
    an.observe("n1", mk("n1", 600, 100, jobids=()), SCHEMAS)
    res = an.completed["7"]
    assert res.short
    assert res.final_flags == [] and res.n_times == 1


def test_late_joining_host_marks_divergence():
    an = StreamingFlagAnalyzer()
    an.observe("n1", mk("n1", 0, 100), SCHEMAS)
    an.observe("n1", mk("n1", 600, 200), SCHEMAS)
    an.observe("n1", mk("n1", 1200, 300), SCHEMAS)  # times consumed now
    an.observe("n2", mk("n2", 1800, 100), SCHEMAS)
    an.observe("n1", mk("n1", 1800, 400, jobids=()), SCHEMAS)
    an.observe("n2", mk("n2", 2400, 200, jobids=()), SCHEMAS)
    res = an.completed["7"]
    assert res.diverged


def test_finalize_drains_active_jobs():
    an = StreamingFlagAnalyzer()
    an.observe("n1", mk("n1", 0, 0), SCHEMAS)
    an.observe("n1", mk("n1", 600, 1e8), SCHEMAS)
    assert an.inflight == 1
    events = an.finalize()
    assert an.inflight == 0
    assert "7" in an.completed
    assert an.completed["7"].n_times == 2
    assert any(e.flag.name == "high_metadata_rate" for e in events)


def test_completed_jobs_are_not_reopened():
    an = StreamingFlagAnalyzer()
    an.observe("n1", mk("n1", 0, 100), SCHEMAS)
    an.observe("n1", mk("n1", 600, 200, jobids=()), SCHEMAS)
    assert "7" in an.completed
    an.observe("n1", mk("n1", 1200, 300), SCHEMAS)  # stale mention
    assert an.inflight == 0
    assert "7" in an.completed
