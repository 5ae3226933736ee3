"""The live flag analyzer against the per-sample accumulation oracle.

:class:`~repro.stream.analyzer._JobStream` consumes a job's samples as
they arrive, host by host, and after every frontier advance its
``_assemble()`` must be the :class:`~repro.pipeline.accum.JobAccum`
that ``tests/test_pipeline/reference.py::accumulate`` builds from the
samples that have arrived at the timestamps consumed so far — arrays
compared by their bytes.  The streams carry what the live feed does:
gaps, adjacent duplicate timestamps (prolog + periodic), 32-bit wraps
and counter resets, device types some samples lack, one or two
instances per device and any interleaving of the hosts' FIFO queues.

``_ffill`` and ``_event_deltas`` are pinned on literal arrays too: the
oracle imports both, so a change to either would move the oracle with
the code under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.rawfile import ParsedSample
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.metrics.flags import Thresholds
from repro.pipeline.accum import _event_deltas, _ffill
from repro.stream.analyzer import STREAM_QUANTITIES, _JobStream, _gather
from tests.test_core.reference import ParsedSample as ReferenceSample
from tests.test_pipeline.reference import JobData, accumulate
from tests.test_stream.reference import laid_out

W32 = 2.0**32
W48 = 2.0**48
NAN = math.nan
TH = Thresholds()
ARCH = "intel_snb"

#: every device type a streamed quantity reads; 32-bit event registers
#: wrap often, the core counters are 48-bit
SCHEMAS = {
    "mdc": Schema([SchemaEntry("reqs", width=32)]),
    "gige": Schema([
        SchemaEntry("rx_bytes", width=32), SchemaEntry("tx_bytes", width=32),
    ]),
    "cpu": Schema([
        SchemaEntry(c, width=32)
        for c in ("user", "nice", "system", "idle", "iowait", "irq",
                  "softirq")
    ]),
    ARCH: Schema([
        SchemaEntry("instructions", width=48), SchemaEntry("cycles", width=48),
    ]),
    "mem": Schema([SchemaEntry("MemUsed", event=False)]),
}


def assert_same_arrays(got, want, where=None):
    """``got`` holds ``want``'s hosts, times and quantity arrays, the
    arrays equal by shape and by bytes."""
    assert got.hosts == want.hosts, where
    assert got.times.tobytes() == want.times.tobytes(), where
    for field_name in ("deltas", "gauges"):
        a, b = getattr(got, field_name), getattr(want, field_name)
        assert list(a) == list(b), (where, field_name)
        for key in b:
            assert a[key].shape == b[key].shape, (where, key)
            assert a[key].tobytes() == b[key].tobytes(), (where, key)


def feed(js, host, sample):
    """What ``StreamingFlagAnalyzer.observe`` hands a job: the sample's
    summed counters under its layout's plan."""
    js.observe(host, sample.timestamp, *_gather(sample))


def oracle(js, arrived):
    """The reference accumulation of the consumed part of ``arrived``."""
    consumed = set(js.times)
    jd = JobData(jobid=js.jobid, arch=ARCH)
    for host, sample in arrived:
        if sample.timestamp in consumed:
            read = ReferenceSample(sample.host, sample.timestamp,
                                   sample.jobids, sample.data)
            read.schemas = SCHEMAS
            jd.add(host, read)
    jd.sort()
    return accumulate(jd, STREAM_QUANTITIES)


# -- stream generation -----------------------------------------------------


@st.composite
def host_streams(draw):
    """Per host: a FIFO list of samples, and whether it ends the job."""
    n_hosts = draw(st.integers(1, 3))
    n_slots = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    streams = {}
    for h in range(n_hosts):
        host = f"c{h:02d}"
        # per grid slot: 0 = gap, 1 = one sample, 2 = adjacent duplicate
        reps = draw(st.lists(
            st.sampled_from((0, 1, 1, 1, 2)),
            min_size=n_slots, max_size=n_slots,
        ))
        # one or two instances per device, fixed per host
        instances = {
            t: [str(i) for i in range(draw(st.integers(1, 2)))]
            for t in SCHEMAS
        }
        registers = {
            (t, i): rng.integers(0, 2**32, len(SCHEMAS[t])).astype(float)
            for t in SCHEMAS for i in instances[t]
        }
        samples = []
        for slot, rep in enumerate(reps):
            for _ in range(rep):
                data = {}
                for t, schema in SCHEMAS.items():
                    if rng.random() < 0.2:
                        continue  # this sample lacks the device type
                    per = {}
                    for i in instances[t]:
                        if len(instances[t]) > 1 and rng.random() < 0.15:
                            continue  # one instance missing
                        reg = registers[(t, i)]
                        if t == "mem":
                            reg[:] = rng.integers(1, 2**36, len(reg))
                        elif rng.random() < 0.1:
                            reg[:] = rng.integers(0, 1000, len(reg))  # reset
                        else:
                            width = 2.0**schema.entries[0].width
                            step = rng.integers(0, 2**30, len(reg))
                            reg[:] = np.mod(reg + step, width)
                        per[i] = reg.copy()
                    if per:
                        data[t] = per
                samples.append(laid_out(ParsedSample(
                    host=host, timestamp=600 * slot, jobids=["7"], data=data,
                ), SCHEMAS))
        if samples:
            streams[host] = (samples, draw(st.booleans()))
    order = draw(st.permutations([
        host for host, (samples, ends) in streams.items()
        for _ in range(len(samples) + ends)
    ]))
    return streams, order


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # metrics of noise
@given(host_streams())
def test_assembled_accum_equals_the_oracle_after_every_advance(streams_order):
    streams, order = streams_order
    queues = {host: list(samples) for host, (samples, _) in streams.items()}
    js = _JobStream("7")
    arrived = []

    def check(where):
        if not js.diverged and len(js.times) >= 2:
            assert_same_arrays(js._assemble(), oracle(js, arrived), where)

    for step, host in enumerate(order):
        if queues[host]:
            sample = queues[host].pop(0)
            feed(js, host, sample)
            arrived.append((host, sample))
        else:
            js.mark_done(host)  # the host stopped mentioning the job
        js.advance(TH, None)
        check(step)
    js.advance(TH, None, force=True)
    check("final")


# -- a host that joins after alignment began --------------------------------


def mk(host, ts, reqs, mem):
    data = {"mdc": {"0": np.array([float(reqs)])}}
    if mem is not None:
        data["mem"] = {"0": np.array([float(mem)])}
    return laid_out(
        ParsedSample(host=host, timestamp=ts, jobids=["7"], data=data),
        SCHEMAS)


def test_late_joiner_rows_are_backfilled_like_a_leading_gap():
    js = _JobStream("7")
    for s in (mk("n1", 0, 100, 1e9), mk("n1", 600, 200, 2e9),
              mk("n1", 1200, 400, 3e9)):
        feed(js, "n1", s)
        js.advance(TH, None)
    assert js.times == [0, 600]
    feed(js, "n2", mk("n2", 1200, 5000, 8e9))  # joins late
    assert js.diverged
    feed(js, "n2", mk("n2", 1800, 5300, 9e9))
    feed(js, "n1", mk("n1", 1800, 700, 4e9))
    js.advance(TH, None, force=True)
    assert js.times == [0, 600, 1200, 1800]
    accum = js._assemble()
    assert accum.hosts == ["n1", "n2"]
    np.testing.assert_array_equal(
        accum.deltas["mdc_reqs"],
        [[100.0, 200.0, 300.0], [0.0, 0.0, 300.0]],
    )
    np.testing.assert_array_equal(
        accum.gauges["mem_used"],
        [[1e9, 2e9, 3e9, 4e9], [8e9, 8e9, 8e9, 9e9]],
    )


# -- the shared fill and delta rules -----------------------------------------


def same_bytes(got, want):
    want = np.asarray(want, dtype=np.float64)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


def test_ffill_on_one_series():
    same_bytes(_ffill(np.array([NAN, 5.0, NAN, 7.0, NAN])),
               [5.0, 5.0, 5.0, 7.0, 7.0])
    same_bytes(_ffill(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])
    same_bytes(_ffill(np.array([NAN, NAN, NAN])), [0.0, 0.0, 0.0])


def test_event_deltas_on_one_series():
    # a wrap, a plain increment, then a fall too large to be a wrap
    filled = np.array([W32 - 100, 50.0, 60.0, 10.0])
    same_bytes(_event_deltas(filled, W32), [150.0, 10.0, 10.0])
    same_bytes(_event_deltas(np.array([3.0, 3.0, 4.0]), W32), [0.0, 1.0])


def test_ffill_fills_along_the_last_axis_of_a_stack():
    series = np.array([
        [[NAN, 5.0, NAN, 7.0, NAN],   # leading, interior, trailing gaps
         [NAN, NAN, NAN, NAN, NAN]],  # nothing reported: a zero row
        [[1.0, 2.0, 3.0, 4.0, 5.0],   # no gap
         [NAN, NAN, NAN, NAN, 9.0]],  # only the last time reported
    ])
    same_bytes(_ffill(series), [
        [[5.0, 5.0, 5.0, 7.0, 7.0], [0.0, 0.0, 0.0, 0.0, 0.0]],
        [[1.0, 2.0, 3.0, 4.0, 5.0], [9.0, 9.0, 9.0, 9.0, 9.0]],
    ])


def test_event_deltas_take_one_width_per_row_of_a_stack():
    filled = np.array([
        [[W32 - 100, 50.0, 60.0]],  # wraps at 2**32
        [[W32 - 100, 50.0, 60.0]],  # the same fall at 2**48 is a reset
    ])
    widths = np.array([[[W32]], [[W48]]])
    same_bytes(_event_deltas(filled, widths),
               [[[150.0, 10.0]], [[50.0, 10.0]]])
