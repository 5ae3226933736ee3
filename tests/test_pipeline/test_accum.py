"""Accumulation: deltas, rollover, gaps, alignment.

Every hand-built case is written to raw-file text and read twice: by
``BlockParser`` into ``accumulate_blocks`` (the ETL) and by
``StampingReferenceParser`` into the frozen per-sample ``accumulate`` (the
oracle in ``reference.py``).  The two must agree array for array, or
both reject the job; the assertions below then pin the values.
"""

import numpy as np
import pytest

from repro.core.collector import Sample
from repro.core.rawfile import BlockParser, RawFileWriter
from repro.core.store import CentralStore
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.pipeline.accum import accumulate_blocks
from repro.pipeline.parallel import assemble_jobs, parse_blocks
from tests.test_core.reference import StampingReferenceParser
from tests.test_pipeline import reference

SCHEMAS = {
    "mdc": Schema([
        SchemaEntry("reqs", width=64),
        SchemaEntry("wait_us", width=64, unit="us"),
        SchemaEntry("open", width=64),
        SchemaEntry("close", width=64),
        SchemaEntry("getattr", width=64),
        SchemaEntry("setattr", width=64),
    ]),
    "rapl": Schema([
        SchemaEntry("pkg_energy", width=48, unit="uJ"),
        SchemaEntry("core_energy", width=48, unit="uJ"),
        SchemaEntry("dram_energy", width=48, unit="uJ"),
    ]),
    "mem": Schema([
        SchemaEntry("MemTotal", event=False, unit="B"),
        SchemaEntry("MemUsed", event=False, unit="B"),
        SchemaEntry("FilePages", event=False, unit="B"),
        SchemaEntry("Slab", event=False, unit="B"),
        SchemaEntry("AnonPages", event=False, unit="B"),
    ]),
}


def sample(host, ts, reqs=0.0, pkg=0.0, used=0.0):
    return Sample(
        host=host, timestamp=ts, jobids=["J"],
        data={
            "mdc": {"t": np.array([reqs, reqs * 10, 0, 0, 0, 0])},
            "rapl": {"0": np.array([pkg, 0.0, 0.0])},
            "mem": {"0": np.array([64e9, used, 0, 0, 0])},
        },
        procs=[],
    )


def accumulate(samples_by_host, arch="intel_snb"):
    """The ETL's accum for job J, checked against the oracle's."""
    blocks = {}
    oracle = reference.JobData(jobid="J")
    for host, samples in samples_by_host.items():
        w = RawFileWriter(host, arch, SCHEMAS)
        text = w.header() + "".join(w.record(s) for s in samples)
        blocks[host] = BlockParser().parse_text(text)
        parser = StampingReferenceParser()
        for s in parser.parse(text):
            oracle.add(host, s)
        oracle.arch = parser.arch
    oracle.sort()
    jobdata, _ = assemble_jobs(blocks, require_samples=0)
    try:
        want = reference.accumulate(oracle)
    except ValueError:
        with pytest.raises(ValueError):
            jobdata["J"].accumulate()
        raise
    got = jobdata["J"].accumulate()
    reference.assert_same_accum(got, want)
    return got


def test_basic_deltas_and_elapsed():
    a = accumulate({
        "n1": [sample("n1", 0, reqs=0), sample("n1", 600, reqs=300),
               sample("n1", 1200, reqs=900)],
    })
    assert a.elapsed == 1200
    assert a.n_hosts == 1
    assert list(a.deltas["mdc_reqs"][0]) == [300.0, 600.0]
    assert list(a.dt) == [600.0, 600.0]


def test_vector_width_from_arch():
    job = {"n1": [sample("n1", 0), sample("n1", 600)]}
    assert accumulate(job, arch="intel_nhm").vector_width == 2
    assert accumulate(job, arch="intel_hsw").vector_width == 4


@pytest.mark.parametrize("first, second, width", [
    ("intel_hsw", "intel_nhm", 4), ("intel_nhm", "intel_hsw", 2),
])
def test_vector_width_of_a_job_of_mixed_architectures(tmp_path, first,
                                                      second, width):
    """The rule for a job whose hosts differ in architecture: the vector
    width and ``meta["arch"]`` are its first host's, in sorted order,
    whatever order the hosts are listed in — batch and oracle alike."""
    store = CentralStore(tmp_path)
    for host, arch in (("n2", second), ("n1", first)):
        w = RawFileWriter(host, arch, SCHEMAS)
        store.append(host, w.header() + "".join(
            w.record(sample(host, ts)) for ts in (0, 600)), arrived_at=0)
    jobdata, _ = assemble_jobs(parse_blocks(store))
    oracle, _ = reference.map_jobs(store)
    got, want = jobdata["J"].accumulate(), reference.accumulate(oracle["J"])
    reference.assert_same_accum(got, want)
    assert (got.vector_width, got.meta) == (width, {"arch": first})


def test_rollover_unwrapped():
    wrap = 2.0**48
    a = accumulate({
        "n1": [sample("n1", 0, pkg=wrap - 1000),
               sample("n1", 600, pkg=500.0)],
    })
    assert a.deltas["rapl_pkg_uj"][0, 0] == pytest.approx(1500.0)


def test_gauge_not_unwrapped():
    a = accumulate({
        "n1": [sample("n1", 0, used=8e9), sample("n1", 600, used=2e9)],
    })
    assert list(a.gauges["mem_used"][0]) == [8e9, 2e9]


def test_hosts_aligned_on_common_timestamps():
    a = accumulate({
        "n1": [sample("n1", t) for t in (0, 600, 1200)],
        "n2": [sample("n2", t) for t in (0, 1200)],  # missed one
    })
    assert list(a.times) == [0, 1200]
    assert a.deltas["mdc_reqs"].shape == (2, 1)


def test_missing_device_type_zero_filled():
    a = accumulate({"n1": [sample("n1", 0), sample("n1", 600)]})
    assert np.all(a.deltas["ib_bytes"] == 0)
    assert np.all(a.deltas["cpu_user"] == 0)


def test_too_few_samples_rejected():
    with pytest.raises(ValueError):
        accumulate({"n1": [sample("n1", 0)]})


def test_no_hosts_rejected():
    with pytest.raises(ValueError):
        reference.accumulate(reference.JobData(jobid="J"))
    with pytest.raises(ValueError):
        accumulate_blocks("J", {})


def test_duplicate_timestamps_deduped():
    # prolog + periodic collection can coincide: the later record wins
    a = accumulate({
        "n1": [sample("n1", 0, reqs=0), sample("n1", 0, reqs=40),
               sample("n1", 600, reqs=100)],
    })
    assert a.deltas["mdc_reqs"].shape == (1, 1)
    assert a.deltas["mdc_reqs"][0, 0] == pytest.approx(60.0)


def test_missing_instance_contributes_nothing():
    """A socket absent from one record adds nothing to that record's
    sum; it does not poison the series with NaN."""
    def two_sockets(ts, pkg0, pkg1=None):
        s = sample("n1", ts, pkg=pkg0)
        if pkg1 is not None:
            s.data["rapl"]["1"] = np.array([pkg1, 0.0, 0.0])
        return s

    a = accumulate({
        "n1": [two_sockets(0, 100.0, 1000.0), two_sockets(600, 150.0),
               two_sockets(1200, 300.0, 1500.0)],
    })
    # sums per record: 1100, 150 (socket 1 absent), 1800; the drop is
    # classified as a reset, so the interval restarts from the later value
    assert list(a.deltas["rapl_pkg_uj"][0]) == [150.0, 1650.0]


def test_interior_gap_forward_filled():
    """A record with no reading of a device type repeats the previous
    value: zero increment over the gap, the whole increment after it."""
    gap = sample("n1", 600)
    del gap.data["mdc"]
    a = accumulate({
        "n1": [sample("n1", 0, reqs=100), gap,
               sample("n1", 1200, reqs=700)],
    })
    assert list(a.deltas["mdc_reqs"][0]) == [0.0, 600.0]
    assert list(a.times) == [0, 600, 1200]


def test_quantity_sums_counters():
    # llite_oc = open + close; here via mdc open/close columns is
    # exercised indirectly: mdc quantity sums only "reqs"
    a = accumulate({
        "n1": [sample("n1", 0, reqs=10), sample("n1", 600, reqs=30)],
    })
    assert a.deltas["mdc_wait_us"][0, 0] == pytest.approx(200.0)


def test_counter_reset_not_misread_as_rollover():
    """A node reboot resets counters to ~0; the accumulator must not
    manufacture a near-2^64 increment out of the drop."""
    a = accumulate({
        "n1": [sample("n1", 0, reqs=1_000_000),
               sample("n1", 600, reqs=500.0)],  # rebooted mid-job
    })
    assert a.deltas["mdc_reqs"][0, 0] == pytest.approx(500.0)


def test_true_rollover_still_unwrapped_after_reset_heuristic():
    wrap = 2.0**48
    a = accumulate({
        "n1": [sample("n1", 0, pkg=wrap - 200.0),
               sample("n1", 600, pkg=300.0)],
    })
    assert a.deltas["rapl_pkg_uj"][0, 0] == pytest.approx(500.0)
