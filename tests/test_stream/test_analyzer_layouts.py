"""The live flag analyzer against batch accumulation, across layouts.

:class:`~repro.stream.analyzer.StreamingFlagAnalyzer` sums a sample's
row under the batch accumulator's own plan.  Fed a store's host files
the way the live path is — one message per record, the header with the
first, one parser per host, the hosts' queues interleaved — its
completion-time ``_assemble()`` must be
``accumulate_blocks(..., quantities=STREAM_QUANTITIES)`` of the same
files, arrays compared by their bytes.  The hosts are drawn by
``tests/test_pipeline/test_accum_layouts.py``'s strategy — an extra or
missing device, a core counter type only some hosts report, an
instance absent from some records (a late one when it is the first), a
repeated timestamp and a schema-less device of varying width — and
some list an instance twice in every record.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CentralStore
from repro.core.rawfile import BlockParser, RawFileParser
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.pipeline.accum import _event_deltas, accumulate_blocks
from repro.pipeline.parallel import assemble_jobs
from repro.stream.analyzer import STREAM_QUANTITIES, StreamingFlagAnalyzer
from repro.tsdb import TimeSeriesDB
from repro.tsdb.store import ingest_file
from tests.test_pipeline.test_accum_layouts import (
    BASE, SCHEMAS, assert_accum_equals_the_oracle, host_text, hosts,
)
from tests.test_stream.test_analyzer_oracle import assert_same_arrays
from tests.test_tsdb.reference import ingest_file_reference
from tests.test_tsdb.test_ingest import assert_same_store

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class Capturing(StreamingFlagAnalyzer):
    """Keeps each job's accumulation as it completes."""

    def __init__(self):
        super().__init__()
        self.accums = {}

    def _finalize(self, js):
        self.accums[js.jobid] = (js._assemble(), js.diverged)
        super()._finalize(js)


def messages(text):
    """A host file as the daemon publishes it: one record a message,
    ``$``/``!`` lines at the head of the message after them."""
    out, current, has_record = [], [], False
    for line in text.splitlines(keepends=True):
        if has_record and (line[0].isdigit() or line[0] in "$!"):
            out.append("".join(current))
            current, has_record = [], False
        current.append(line)
        has_record = has_record or line[0].isdigit()
    return out + ["".join(current)]


def live(texts):
    """Each host's messages parsed as they arrive, the hosts in turn;
    then the end of the stream.  Job id → (accumulation, diverged)."""
    analyzer = Capturing()
    queues = {host: messages(text) for host, text in texts.items()}
    parsers = {host: RawFileParser(on_error="quarantine") for host in texts}
    while any(queues.values()):
        for host, queue in queues.items():
            if queue:
                parser = parsers[host]
                for sample in parser.parse(queue.pop(0)):
                    analyzer.observe(host, sample)
    analyzer.finalize()
    return analyzer.accums


def batch(texts):
    """Job id → the batch accumulation of the streamed quantities."""
    blocks = {host: BlockParser().parse_text(t) for host, t in texts.items()}
    jobdata, _ = assemble_jobs(blocks)
    return {
        jid: accumulate_blocks(
            jid, jd.host_rows, quantities=STREAM_QUANTITIES)
        for jid, jd in jobdata.items()
    }


def listed_twice(text, device, rng):
    """``device``'s line followed, in every record, by another of other
    values: the record's reading is the later one."""
    lines = []
    for line in text.splitlines():
        lines.append(line)
        if device is not None and line.startswith(device + " "):
            values = rng.integers(0, 1 << 59, len(line.split(" ")) - 2)
            lines.append(device + " " + " ".join(map(str, values)))
    return "".join(line + "\n" for line in lines)


@given(
    st.lists(st.tuples(hosts(), st.sampled_from([None, "cpu 0", "mdc t"])),
             min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_live_accum_equals_batch_on_mixed_layouts(specs, seed):
    rng = np.random.default_rng(seed)
    texts = {
        f"h{h}": listed_twice(host_text(f"h{h}", spec, rng), twice, rng)
        for h, (spec, twice) in enumerate(specs)
    }
    got, want = live(texts), batch(texts)
    assert sorted(got) == sorted(want) == ["J"]
    accum, diverged = got["J"]
    assert not diverged
    assert_same_arrays(accum, want["J"])


def test_a_mid_stream_schema_line_sets_the_width_a_wrap_is_read_at():
    """A host's register modulus is the one its last aligned record
    was read under: a ``!`` line that widens ``mdc``'s register mid-job
    makes the later fall a wrap at 2**48, live as in batch."""
    text = "".join(line + "\n" for line in [
        "$tacc_stats 2.3.2", "$hostname h0", "$arch intel_hsw", "$mem 0",
        "!mdc reqs,E,W=32", "!mem MemUsed,U=B",
        "0 J", "mdc t 100", "mem 0 5",
        "600 J", "mdc t 200", "mem 0 5",
        "!mdc reqs,E,W=48",
        "1200 J", f"mdc t {2**48 - 100}", "mem 0 5",
        "1800 J", "mdc t 50", "mem 0 5",
    ])
    got, want = live({"h0": text}), batch({"h0": text})
    accum, diverged = got["J"]
    assert not diverged
    assert want["J"].deltas["mdc_reqs"].tolist() == [
        [100.0, 2.0**48 - 300, 150.0]]
    assert_same_arrays(accum, want["J"])


# -- a reading is filed under the schema it was written with --------------------


def written(text, type_name, counter):
    """Per record of ``text``, ``counter``'s value summed over the
    ``type_name`` devices it lists."""
    sums = []
    for line in text.splitlines():
        if line[0].isdigit():
            sums.append(0.0)
        elif line.startswith(type_name + " "):
            sums[-1] += float(line.split(" ")[2 + counter])
    return np.array(sums)


def assert_live_equals_batch(texts, tmp_path):
    """Every job's completion-time live accumulation is batch's and the
    per-sample oracle's, arrays by their bytes, and no reading of the
    files is quarantined.  Job id → batch's accumulation."""
    blocks = {host: BlockParser().parse_text(t) for host, t in texts.items()}
    assert all(block.errors == [] for block in blocks.values())
    got, want = live(texts), batch(texts)
    assert sorted(got) == sorted(want)
    for jid, (accum, diverged) in got.items():
        assert not diverged
        assert_same_arrays(accum, want[jid])
    store = CentralStore(tmp_path)
    for host, text in texts.items():
        store.path_for(host).write_text(text)
    assert assert_accum_equals_the_oracle(store) == len(want)
    return want


def test_a_job_whose_hosts_have_different_device_types(tmp_path):
    """One host reports ``lnet``, the other a core counter type: each is
    read under its own layout, so the second host's ``instructions``
    deltas are the counts it wrote (all 0.0 while a job kept the schemas
    of its first host)."""
    rng = np.random.default_rng(41)
    times = [0, 600, 1200, 1800]
    texts = {
        "h0": host_text("h0", ({**BASE, "lnet": ["0"]}, times,
                               (None, set()), False), rng),
        "h1": host_text("h1", ({**BASE, "intel_hsw": ["0", "1"]}, times,
                               (None, set()), False), rng),
    }
    want = assert_live_equals_batch(texts, tmp_path)["J"]
    instructions = _event_deltas(written(texts["h1"], "intel_hsw", 0),
                                 2.0**48)
    assert (instructions != 0).all()
    assert want.deltas["instructions"].tobytes() == np.stack(
        [np.zeros(3), instructions]).tobytes()


def test_a_schema_change_inside_one_host_file(tmp_path):
    """A day-2 header adds a counter to ``mdc`` in the file the central
    store keeps appending to: the day-1 readings stay under the day-1
    schema — the last day-1 record, which the header follows, too — so
    day-1 job ``J1``'s ``mdc_reqs`` deltas are the counts written (they
    were quarantined and read 0.0 while a file kept its last schema),
    and the TSDB loader takes the file as the per-sample reference
    does."""
    wider = {**SCHEMAS, "mdc": Schema([
        SchemaEntry("reqs"), SchemaEntry("wait_us", unit="us"),
        SchemaEntry("getattr")])}
    rng = np.random.default_rng(42)
    day = (BASE, [600 * k for k in range(6)], (None, set()), False)
    day2 = (BASE, [86_400 + 600 * k for k in range(6)], (None, set()), False)
    text = (host_text("h0", day, rng, job="J1")
            + host_text("h0", day2, rng, schemas=wider, job="J2"))
    block = BlockParser().parse_text(text)
    assert [run.records.tolist() for run in block.runs] == [
        list(range(6)), list(range(6, 12))]
    want = assert_live_equals_batch({"h0": text}, tmp_path)
    reqs = _event_deltas(written(text, "mdc", 0), 2.0**64)
    assert (reqs != 0).all()
    assert want["J1"].deltas["mdc_reqs"][0].tobytes() == reqs[:5].tobytes()
    assert want["J2"].deltas["mdc_reqs"][0].tobytes() == reqs[6:].tobytes()
    new, ref = TimeSeriesDB(), TimeSeriesDB()
    assert ingest_file(new, "h0", text) == ingest_file_reference(
        ref, "h0", text)
    assert_same_store(new, ref)
    getattr_ = new.select("stats", {"type": "mdc", "event": "getattr"})
    assert [len(s) for s in getattr_] == [6]
