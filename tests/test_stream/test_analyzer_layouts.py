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

from repro.core.rawfile import BlockParser, RawFileParser
from repro.pipeline.accum import accumulate_blocks
from repro.pipeline.parallel import assemble_jobs
from repro.stream.analyzer import STREAM_QUANTITIES, StreamingFlagAnalyzer
from tests.test_pipeline.test_accum_layouts import SCHEMAS, host_text, hosts
from tests.test_stream.test_analyzer_oracle import assert_same_arrays

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
                    analyzer.observe(host, sample, parser.schemas)
    analyzer.finalize()
    return analyzer.accums


def batch(texts, schemas=None):
    """Job id → the batch accumulation of the streamed quantities."""
    blocks = {host: BlockParser().parse_text(t) for host, t in texts.items()}
    jobdata, _ = assemble_jobs(blocks)
    return {
        jid: accumulate_blocks(
            jid, jd.host_rows, schemas or jd.schemas, jd.arch,
            quantities=STREAM_QUANTITIES,
        )
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
    got, want = live(texts), batch(texts, SCHEMAS)
    assert sorted(got) == sorted(want) == ["J"]
    accum, diverged = got["J"]
    assert not diverged
    assert_same_arrays(accum, want["J"])


def test_a_mid_stream_schema_line_sets_the_width_a_wrap_is_read_at():
    """Batch keeps one schema per type, the file's last: a ``!`` line
    that widens ``mdc``'s register mid-job makes the later fall a wrap
    at 2**48, live as in batch."""
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
