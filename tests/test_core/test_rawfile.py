"""Raw stats file format: write/parse round-trips."""

import io
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.collector import Sample
from repro.core.rawfile import (
    _LAYOUTS, BlockParser, Layout, ParseError, RawFileParser, RawFileWriter,
    _decimals,
)
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.hardware.devices.procfs import ProcessRecord
from repro.tsdb.store import TimeSeriesDB, ingest_file
from tests.test_core.reference import (
    ReferenceRawFileParser, StampingReferenceParser,
)

SCHEMAS = {
    "mdc": Schema([SchemaEntry("reqs", width=64),
                   SchemaEntry("wait_us", width=64, unit="us")]),
    "mem": Schema([SchemaEntry("MemTotal", event=False, unit="B"),
                   SchemaEntry("MemUsed", event=False, unit="B")]),
}


def make_writer():
    return RawFileWriter("c401-101", "intel_snb", SCHEMAS, mem_bytes=1 << 35)


def make_sample(ts=1443657600, jobids=("100",), reqs=5.0):
    return Sample(
        host="c401-101",
        timestamp=ts,
        jobids=list(jobids),
        data={
            "mdc": {"scratch-MDT0000-mdc": np.array([reqs, reqs * 350])},
            "mem": {"0": np.array([1 << 34, 1 << 30])},
        },
        procs=[
            ProcessRecord(
                pid=41, name="wrf.exe", owner="alice", jobid="100",
                vmsize_kb=160, vmhwm_kb=200, vmrss_kb=100, vmrss_hwm_kb=120,
                vmlck_kb=8, data_kb=64, stack_kb=8, text_kb=2, threads=2,
                cpu_affinity=(0, 16), mem_affinity=(0,),
            )
        ],
    )


def roundtrip(samples):
    w = make_writer()
    text = w.header() + "".join(w.record(s) for s in samples)
    parser = RawFileParser()
    return parser, list(parser.parse(text))


def test_header_fields_parsed():
    parser, _ = roundtrip([make_sample()])
    assert parser.hostname == "c401-101"
    assert parser.arch == "intel_snb"
    assert parser.mem_bytes == 1 << 35
    assert set(parser.schemas) == {"mdc", "mem"}


def test_record_roundtrip_values():
    _, out = roundtrip([make_sample(reqs=7)])
    s = out[0]
    assert s.timestamp == 1443657600
    assert s.jobids == ["100"]
    assert s.data["mdc"]["scratch-MDT0000-mdc"][0] == 7
    assert s.data["mem"]["0"][0] == float(1 << 34)


def test_ps_record_roundtrip():
    _, out = roundtrip([make_sample()])
    p = out[0].procs[0]
    assert p.pid == 41
    assert p.name == "wrf.exe"
    assert p.jobid == "100"
    assert p.cpu_affinity == (0, 16)
    assert p.vmhwm_kb == 200


def test_ps_lines_equal_the_frozen_parser_and_share_cpusets():
    """16 ``ps`` lines a record, cpusets repeating across lines and
    records, ``-`` for none: the records equal the frozen parser's, and
    one cpuset string is parsed into one tuple."""
    samples = []
    for i in range(3):
        s = make_sample(ts=1443657600 + 600 * i)
        s.procs = [
            ProcessRecord(
                pid=4000 + r, name="wrf.exe", owner="alice", jobid="100",
                vmsize_kb=160 + r, vmhwm_kb=200, vmrss_kb=100,
                vmrss_hwm_kb=120, vmlck_kb=8, data_kb=64, stack_kb=8,
                text_kb=2, threads=2,
                cpu_affinity=(r % 4, r % 4 + 16) if r % 5 else (),
                mem_affinity=(r // 8,),
            )
            for r in range(16)
        ]
        samples.append(s)
    w = make_writer()
    text = w.header() + "".join(w.record(s) for s in samples)
    got = list(RawFileParser().parse(text))
    want = list(ReferenceRawFileParser().parse(text))
    assert [g.procs for g in got] == [w.procs for w in want]
    assert [g.procs for g in got] == [s.procs for s in samples]
    firsts = [g.procs[1].cpu_affinity for g in got]
    assert firsts[0] == (1, 17) and all(c is firsts[0] for c in firsts)


def test_no_jobs_renders_dash():
    w = make_writer()
    s = make_sample(jobids=())
    text = w.record(s)
    assert text.splitlines()[0].endswith(" -")
    parser = RawFileParser()
    parser.schemas = dict(SCHEMAS)
    parser.hostname = "c401-101"
    out = list(parser.parse(text))
    assert out[0].jobids == []


def test_multiple_jobids_comma_separated():
    _, out = roundtrip([make_sample(jobids=("1", "2"))])
    assert out[0].jobids == ["1", "2"]


def test_multiple_records_stream():
    _, out = roundtrip([make_sample(ts=t) for t in (10, 20, 30)])
    assert [s.timestamp for s in out] == [10, 20, 30]


def test_counters_serialised_as_integers():
    w = make_writer()
    s = make_sample(reqs=3.9)
    line = [l for l in w.record(s).splitlines() if l.startswith("mdc")][0]
    assert line.split()[2] == "3"  # registers are integers on the wire


def test_schema_mismatch_rejected():
    parser = RawFileParser()
    text = "!mdc reqs,E,W=64 wait_us,E,W=64\n100 -\nmdc x 1 2 3\n"
    with pytest.raises(ValueError):
        list(parser.parse(text))


def test_data_before_record_rejected():
    parser = RawFileParser()
    with pytest.raises(ValueError):
        list(parser.parse("!mdc reqs,E,W=64\nmdc x 1\n"))


def test_unsupported_version_rejected():
    parser = RawFileParser()
    with pytest.raises(ValueError):
        list(parser.parse("$tacc_stats 9.0.0\n"))


def test_mid_file_header_reparsed():
    """Cron mode re-emits headers at each rotation; parsing continues."""
    w = make_writer()
    text = (
        w.header() + w.record(make_sample(ts=10))
        + w.header() + w.record(make_sample(ts=86410))
    )
    out = list(RawFileParser().parse(text))
    assert [s.timestamp for s in out] == [10, 86410]


@given(
    st.lists(
        st.tuples(
            st.integers(0, 2**40),
            st.floats(0, 1e15, allow_nan=False),
        ),
        min_size=1, max_size=5,
    )
)
@settings(max_examples=40)
def test_roundtrip_property(points):
    """Any sequence of (ts, value) samples round-trips to integers."""
    points = sorted(points)
    samples = [
        Sample(
            host="h", timestamp=ts, jobids=["1"],
            data={"mdc": {"i": np.array([v, v])}}, procs=[],
        )
        for ts, v in points
    ]
    w = RawFileWriter("h", "intel_snb", {"mdc": SCHEMAS["mdc"]})
    text = w.header() + "".join(w.record(s) for s in samples)
    out = list(RawFileParser().parse(text))
    assert len(out) == len(samples)
    for s_in, s_out in zip(samples, out):
        assert s_out.timestamp == s_in.timestamp
        assert s_out.data["mdc"]["i"][0] == float(
            int(s_in.data["mdc"]["i"][0])
        )


# -- record-at-a-time decoding ≡ the frozen line-at-a-time parser ------------------
#
# ``RawFileParser`` decodes a record at a time and, where a record
# repeats the previous one's line structure with counters of 1–18 ASCII
# digits, in one match of its template's pattern;
# ``tests/test_core/reference.py`` keeps the parser it replaced.
# Whatever the text, however it is fed, in either mode: same samples
# bit for bit, same ``errors`` entry for entry, same raised text, same
# parser state — but for one stated divergence, which
# :class:`LedgeringReferenceParser` adds to the frozen parser.

PS_LINE = "ps 41 wrf.exe alice 100 160 200 100 120 8 64 8 2 2 0,16 0"
ODD_TOKENS = ["nan", "inf", "-inf", "-0.0", "1e5", "1_0", "1.5", "0x10",
              "", "x", "١٢", "+7"]
STRAY_LINES = [
    "total garbage line", "x", " ", "\t", "ps 1 2", "ps", "ps ",
    "$hostname other", "$mem 7", "$mem seven", "$tacc_stats 9.0", "$",
    "!", "!a c0,E c0,E", "!b c0,E,W=sixty", "14436x8800 1", "²3 -",
    "12 ", "13", "a 0", "a 0 ", "a  1 2", "", "",
]


@st.composite
def host_streams(draw):
    """``[[line, ...], ...]``: a host's messages, damaged in places."""
    types = ["a", "b", "c", "d"][:draw(st.integers(2, 4))]
    widths = {t: draw(st.integers(0, 5)) for t in types}
    devices = {
        t: [str(i) for i in range(draw(st.integers(1, 4)))] for t in types
    }

    def schema_line(t, width):
        return f"!{t} " + " ".join(f"c{i},E,W=64" for i in range(width))

    def header(changed=None):
        # the last type never announces a schema
        return ["$tacc_stats 2.3.2", "$hostname h1", "$arch intel_snb",
                "$mem 1024"] + [
            schema_line(t, widths[t] + (t == changed)) for t in types[:-1]
        ]

    value = st.integers(0, 2**40).map(str) | st.sampled_from(
        ["0", "7", "nan", "-0.0", "1e5"])
    msgs = []
    for r in range(draw(st.integers(2, 6))):
        jobs = draw(st.sampled_from(["-", "100", "100,200", ""]))
        lines = [f"{600 * r} {jobs}"]
        for t in types:
            for dev in devices[t]:
                vals = [draw(value) for _ in range(widths[t])]
                lines.append(" ".join([t, dev] + vals))
        lines += [PS_LINE] * draw(st.integers(0, 2))
        msgs.append(lines)
    msgs[0] = header() + msgs[0]

    def spot():
        m = draw(st.integers(0, len(msgs) - 1))
        return msgs[m], draw(st.integers(0, len(msgs[m]) - 1))

    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([
            "truncate", "add", "drop", "space", "dup", "move", "stray",
            "reannounce", "change", "swap", "token", "widen",
        ]))
        lines, i = spot()
        line = lines[i]
        if kind == "widen":
            # a ``!`` line inside a record, after its data line ``i``,
            # and the record's later lines of that type at the new width
            t = draw(st.sampled_from(types[:-1]))
            lines[i + 1:] = header(changed=t) + [
                rest + " 7" if rest.startswith(f"{t} ") else rest
                for rest in lines[i + 1:]]
        elif kind == "truncate":
            lines[i] = line[:draw(st.integers(0, len(line)))]
        elif kind == "add":
            lines[i] = line + " 7"
        elif kind == "drop":
            lines[i] = line.rpartition(" ")[0]
        elif kind == "space":
            cut = draw(st.integers(0, len(line)))
            lines[i] = line[:cut] + " " + line[cut:]
        elif kind == "dup":
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif kind == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif kind == "stray":
            lines.insert(i, draw(st.sampled_from(STRAY_LINES)))
        elif kind == "reannounce":
            lines[i:i] = header()
        elif kind == "change":
            lines[i:i] = header(changed=draw(st.sampled_from(types)))
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            parts = line.split(" ")
            k = draw(st.integers(0, len(parts) - 1))
            parts[k] = draw(st.sampled_from(ODD_TOKENS))
            lines[i] = " ".join(parts)
    return msgs


class LedgeringReferenceParser(StampingReferenceParser):
    """The frozen parser and the one divergence from it: a record with
    a device of a type not as wide as the type's schema when the
    record's first data line was read (a ``!`` line inside the record
    changed it) is refused at its open line, in front of the record's
    own entries.  The frozen parser reads such a record silently, and
    its readings of that type have no schema."""

    def parse(self, stream):
        if isinstance(stream, str):
            stream = io.StringIO(stream)
        first = len(self.errors)  # this feed's first entry

        def lines():
            for lineno, raw in enumerate(stream, 1):
                if raw[:1].isdigit():
                    self._opening = (lineno, raw.rstrip("\n"))
                yield raw

        for sample in super().parse(lines()):
            bad = [t for t, per in sample.data.items()
                   if t in sample.schemas and any(
                       len(v) != len(sample.schemas[t]) for v in per.values())]
            if bad:
                lineno, line = sample.opening
                reason = (f"{', '.join(bad)}: a ! line inside the record "
                          f"changed its width; read without a schema")
                if self.on_error == "raise":
                    raise ValueError(reason)
                at = next((i for i in range(first, len(self.errors))
                           if self.errors[i].lineno > lineno),
                          len(self.errors))
                self.errors.insert(at, ParseError(lineno, line, reason))
            yield sample

    def _data_line(self, sample, line):
        if "schemas" not in vars(sample):
            sample.opening = self._opening
        super()._data_line(sample, line)


def frozen(sample):
    return (
        sample.host, sample.timestamp, sample.jobids,
        [(t, [(inst, v.dtype.str, v.tobytes()) for inst, v in per.items()])
         for t, per in sample.data.items()],
        sample.procs,
    )


def outcome(parser, feeds):
    """Everything a caller can see of ``parser`` reading ``feeds``."""
    reads = []
    for feed in feeds:
        samples, raised = [], None
        try:
            for sample in parser.parse(feed):
                if isinstance(parser, RawFileParser):
                    assert_row_contract(sample)
                samples.append(frozen(sample))
        except ValueError as exc:
            raised = str(exc)
        reads.append((samples, raised))
    return (
        reads, parser.errors, parser.hostname, parser.arch, parser.mem_bytes,
        [(t, s.names()) for t, s in parser.schemas.items()],
    )


def assert_row_contract(sample):
    flat = [(t, inst, v) for t, per in sample.data.items()
            for inst, v in per.items()]
    assert sample.columns == tuple((t, inst, len(v)) for t, inst, v in flat)
    assert sample.row.dtype == np.float64 and not sample.row.flags.writeable
    assert sample.row.tobytes() == b"".join(v.tobytes() for _, _, v in flat)


#: ``host_streams``' "widen" damage, pinned: a ``!`` line inside record
#: 0 widens ``a`` between its two devices, so the record is read under
#: the schema it opened with and ``a`` does not fit it
#: (``Layout.mismatched``); record 1 is read under the new schema.
#: Random draws seldom make this, so both properties run it every time.
WIDENED_INSIDE_A_RECORD = [
    ["$tacc_stats 2.3.2", "$hostname h1", "$arch intel_snb", "$mem 1024",
     "!a c0,E,W=64 c1,E,W=64", "0 100", "a 0 1 2",
     "!a c0,E,W=64 c1,E,W=64 c2,E,W=64", "a 1 3 4 5", "b 0 6"],
    ["600 100", "a 0 7 8 9", "a 1 10 11 12", "b 0 13", PS_LINE],
]


def test_the_pinned_widening_reads_its_record_schema_less():
    text = "".join(line + "\n" for lines in WIDENED_INSIDE_A_RECORD
                   for line in lines)
    block = BlockParser().parse_text(text)
    assert [run.layout.mismatched for run in block.runs] == [("a",), ()]
    assert [e.lineno for e in block.errors] == [6]


@given(host_streams(), st.booleans())
@example(WIDENED_INSIDE_A_RECORD, True)
@settings(max_examples=60, deadline=None)
def test_decoding_equals_the_frozen_parser(msgs, final_newline):
    bodies = ["".join(line + "\n" for line in lines) for lines in msgs]
    text = "".join(bodies)
    if not final_newline:
        text = text[:-1]
    for on_error in ("quarantine", "raise"):
        whole = outcome(LedgeringReferenceParser(on_error), [text])
        assert outcome(RawFileParser(on_error), [text]) == whole
        assert outcome(RawFileParser(on_error), [io.StringIO(text)]) == whole
        new = RawFileParser(on_error)
        assert outcome(new, bodies) == outcome(
            LedgeringReferenceParser(on_error), bodies)
        if on_error == "quarantine":
            assert new.template_records + new.line_records == sum(
                len(samples) for samples, _ in whole[0])


def test_template_learnt_before_a_schema_line_is_not_used_after_it():
    """The width check is baked into a template, so a ``!`` line ends
    it: lines that still have the old shape are refused as the
    line-at-a-time parser refuses them."""
    head = "$hostname h1\n!a c0,E c1,E\n"
    rec = "{} -\na 0 1 2\na 1 3 4\n"
    bodies = [
        head + rec.format(0), rec.format(600), rec.format(1200),
        "!a c0,E\n" + rec.format(1800), "1900 -\na 0 5\n",
        head + rec.format(2400), rec.format(3000),
    ]
    parser = RawFileParser(on_error="quarantine")
    samples = [s for body in bodies for s in parser.parse(body)]
    assert [len(s.row) for s in samples] == [4, 4, 4, 0, 1, 4, 4]
    assert [e.lineno for e in parser.errors] == [3, 4]
    assert "2 values vs schema of 1" in parser.errors[0].reason
    # one template before the schema changed, another once it is back
    assert samples[0].columns is samples[1].columns is samples[2].columns
    assert samples[5].columns is samples[6].columns
    assert samples[5].columns is not samples[2].columns
    assert samples[5].columns == samples[2].columns
    assert (parser.template_records, parser.line_records) == (3, 4)
    assert outcome(RawFileParser("quarantine"), bodies) == outcome(
        ReferenceRawFileParser("quarantine"), bodies)


REGULAR = ["a 0 1 2", "a 1 3 4", "b - 5", PS_LINE]

#: every irregularity that sends a record to the line path: the third
#: record's lines, and how many of the five records are then decoded
#: line by line (the first always is; a record whose columns changed
#: leaves a template the next regular record does not match)
IRREGULAR = {
    "regular": (REGULAR, 1),
    # tokens ``float`` takes but the pattern does not
    "values only differ": (["a 0 nan -0.0", "a 1 1e5 1_0", "b - inf",
                            PS_LINE], 2),
    "a 19-digit token": (["a 0 1 2", "a 1 3 1234567890123456789", "b - 5",
                          PS_LINE], 2),
    "a 20-digit token ≥ 2**63": (["a 0 1 2", "a 1 3 18446744073709551615",
                                  "b - 5", PS_LINE], 2),
    "a non-ASCII digit": (["a 0 1 2", "a 1 3 ٣", "b - 5", PS_LINE], 2),
    "a token float refuses": (["a 0 1 2", "a 1 3 x", "b - 5", PS_LINE], 3),
    "an empty token": (["a 0 1 2", "a 1 3 ", "b - 5", PS_LINE], 3),
    "a token too many": (["a 0 1 2", "a 1 3 4 9", "b - 5", PS_LINE], 3),
    "a token too few": (["a 0 1 2", "a 1 3", "b - 5", PS_LINE], 3),
    "a doubled space": (["a 0 1 2", "a 1  3 4", "b - 5", PS_LINE], 3),
    "a device renamed": (["a 0 1 2", "a 7 3 4", "b - 5", PS_LINE], 3),
    "a device missing": (["a 0 1 2", "b - 5", PS_LINE], 3),
    "a device added": (["a 0 1 2", "a 1 3 4", "a 2 5 6", "b - 5",
                        PS_LINE], 3),
    "a device listed twice": (["a 0 1 2", "a 1 3 4", "a 0 8 9", "b - 5",
                               PS_LINE], 2),
    "types interleaved": (["a 0 1 2", "b - 5", "a 1 3 4", PS_LINE], 2),
    "a ps line mid-record": (["a 0 1 2", PS_LINE, "a 1 3 4", "b - 5"], 2),
    "a bad ps line": (["a 0 1 2", "a 1 3 4", "b - 5", PS_LINE + " 9"], 2),
    "no ps line": (["a 0 1 2", "a 1 3 4", "b - 5"], 1),
    # ``b`` has no schema: fourteen values that read as a process record
    "a device line that reads like a ps line": (
        REGULAR + ["b 41 1 2 3 160 200 100 120 8 64 8 2 2 0 0"], 3),
    "a $ line mid-record": (["a 0 1 2", "$mem 7", "a 1 3 4", "b - 5",
                             PS_LINE], 2),
    "a $ line at its end": (REGULAR + ["$mem 7"], 2),
    "a ! line mid-record": (["a 0 1 2", "!a c0,E c1,E", "a 1 3 4", "b - 5",
                             PS_LINE], 3),
    "a changed ! line at its end": (REGULAR + ["!a c0,E"], 4),
    "a blank line": (["a 0 1 2", "", "a 1 3 4", "b - 5", PS_LINE], 2),
}


@pytest.mark.parametrize("name", IRREGULAR)
def test_what_sends_a_record_to_the_line_path(name):
    third, line_records = IRREGULAR[name]
    records = [REGULAR, REGULAR, third, REGULAR, REGULAR]
    bodies = [
        f"{600 * i} 100\n" + "".join(line + "\n" for line in lines)
        for i, lines in enumerate(records)
    ]
    bodies[0] = "$hostname h1\n!a c0,E c1,E\n" + bodies[0]
    for feeds in (bodies, ["".join(bodies)]):
        for on_error in ("quarantine", "raise"):
            assert outcome(RawFileParser(on_error), feeds) == outcome(
                ReferenceRawFileParser(on_error), feeds), on_error
    parser = RawFileParser("quarantine")
    assert len(outcome(parser, bodies)[0]) == 5
    assert (parser.template_records, parser.line_records) == (
        5 - line_records, line_records)


#: counters the pattern takes, spelt as a register read can spell them
DIGITS = (
    st.integers(0, 10**18 - 1).map(str)
    | st.sampled_from([str(2**53 - 1), str(2**53), str(2**53 + 1),
                       str(10**18 - 1), "0", "00", "007",
                       "000000000000000001"])
    | st.tuples(st.integers(0, 10**9), st.integers(1, 18)).map(
        lambda v: str(v[0]).zfill(v[1])[-18:])
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_counter_of_1_to_18_digits_is_decoded_exactly_by_template(data):
    """Records of 1–18-digit counters: bit for bit the frozen parser's
    rows (``float(token)``), and every record after the first is taken
    by the template's pattern."""
    widths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    records = data.draw(st.integers(2, 5))
    head = "$hostname h1\n" + "".join(
        f"!t{i} " + " ".join(f"c{k},E,W=64" for k in range(w)) + "\n"
        for i, w in enumerate(widths))
    bodies = []
    for r in range(records):
        lines = [f"{600 * r} {data.draw(st.sampled_from(['-', '1', '1,2']))}"]
        lines += [
            f"t{i} {dev} " + " ".join(data.draw(DIGITS) for _ in range(w))
            for i, w in enumerate(widths) for dev in ("0", "1")
        ]
        lines += [PS_LINE] * data.draw(st.integers(0, 2))
        bodies.append("".join(line + "\n" for line in lines))
    bodies[0] = head + bodies[0]
    text = "".join(bodies)
    whole = outcome(ReferenceRawFileParser("raise"), [text])
    for feeds, want in (
        ([text], whole), ([io.StringIO(text)], whole),
        (bodies, outcome(ReferenceRawFileParser("raise"), bodies)),
    ):
        parser = RawFileParser("raise")
        assert outcome(parser, feeds) == want
        assert (parser.template_records, parser.line_records) == (
            records - 1, 1)


# -- BlockParser ≡ the frozen parser, whichever path the file takes ----------------
#
# A regular file is sliced by stride; any other is the record decoder's
# rows, stacked.  Either way the block holds what the frozen parser
# reads from the same text — every timestamp, job id, process record
# and array, each record under the schemas in force when its first
# data line was read — its ``errors`` are that parser's ledger in file
# order, and raise mode names the ledger's first line.


def arrays(sample):
    return {(t, inst): (v.dtype.str, v.tobytes())
            for t, per in sample.data.items() for inst, v in per.items()}


def schemas_read_under(sample):
    """A sample's types and the schemas its layout reads them under,
    for those whose devices are as wide as the schema."""
    return {t: sc.names() for t, sc in sample.schemas.items()
            if t in sample.data and all(
                len(v) == len(sc) for v in sample.data[t].values())}


def assert_block_equals_the_frozen_parser(text):
    ref = LedgeringReferenceParser("quarantine")
    want = list(ref.parse(text))
    block = BlockParser("quarantine").parse_text(text)
    got = list(block.iter_samples(range(block.n_records)))
    assert len(got) == len(want) == block.n_records
    for g, w in zip(got, want):
        assert (g.timestamp, g.jobids, g.procs) == (
            w.timestamp, w.jobids, w.procs)
        assert arrays(g) == arrays(w)
        assert {t: sc.names() for t, sc in g.layout.schemas.items()} == (
            schemas_read_under(w))
    # a subset, out of order: those records, in that order
    some = list(range(block.n_records))[::-2]
    assert [(s.timestamp, arrays(s)) for s in block.iter_samples(some)] == [
        (got[r].timestamp, arrays(got[r])) for r in some]
    assert (block.host, block.arch, block.mem_bytes) == (
        ref.hostname or "?", ref.arch, ref.mem_bytes)
    # every record in exactly one run, its rows in record order
    assert sorted(r for run in block.runs for r in run.records.tolist()) \
        == list(range(block.n_records))
    for run in block.runs:
        assert (np.diff(run.records) > 0).all()
        assert run.matrix.shape == (
            len(run.records), sum(w for _, _, w in run.layout.columns))
    assert [e for e in block.errors if e in ref.errors] == ref.errors
    dropped = [e for e in block.errors if e not in ref.errors]
    assert dropped == []
    linenos = [e.lineno for e in block.errors]
    assert linenos == sorted(linenos)
    if block.errors:
        first = block.errors[0]
        with pytest.raises(ValueError) as exc:
            BlockParser("raise").parse_text(text)
        assert str(exc.value) == f"line {first.lineno}: {first.reason}"
    else:
        strict = BlockParser("raise").parse_text(text)
        assert [arrays(s) for s in strict.iter_samples(
            range(strict.n_records))] == [
            arrays(s) for s in got]
    return block


@given(host_streams(), st.booleans())
@example(WIDENED_INSIDE_A_RECORD, True)
@settings(max_examples=60, deadline=None)
def test_block_parser_equals_the_frozen_parser(msgs, with_ps):
    lines = [line for lines in msgs for line in lines
             if with_ps or not line.startswith("ps")]
    assert_block_equals_the_frozen_parser("".join(l + "\n" for l in lines))


def regular_lines(records=4, extra=()):
    lines = ["$hostname h1", "$arch intel_snb", "!a c0,E c1,E", "!b c0,E"]
    for k in range(records):
        lines += [f"{600 * k} 100", f"a 0 {k} 2", f"a 1 3 {k}", *extra,
                  f"b - {5 * k}"]
    return lines


def is_strided(lines):
    return BlockParser()._try_strided(
        "".join(line + "\n" for line in lines)) is not None


# -- what the strided kernel takes ------------------------------------------
#
# The strided path decodes a file's body in one pass over its bytes and
# takes exactly what ``RawFileWriter`` writes: unsigned integers of 1–18
# ASCII digits, single spaces, ``\n`` line ends.  Any other spelling
# leaves the file to the record decoder.  Either way the block is the
# frozen parser's; these pin which path each spelling takes, so the fast
# path is known to run on every spelling it should.

#: name → (line of ``regular_lines()`` to replace — 8 opens record 1, 10
#: is one of its device lines — the replacement, whether it is strided)
SPELLINGS = {
    "float": (10, "a 1 1.5 1", False),
    "negative": (10, "a 1 -7 1", False),
    "exponent": (10, "a 1 1e5 1", False),
    "plus sign": (10, "a 1 +7 1", False),
    "nan": (10, "a 1 nan 1", False),
    "inf": (10, "a 1 inf 1", False),
    "underscore": (10, "a 1 1_0 1", False),
    "18 digits": (10, "a 1 999999999999999999 1", True),
    "19 digits": (10, "a 1 1000000000000000000 1", False),
    "20 digits": (10, "a 1 99999999999999999999 1", False),
    "leading zeros": (10, "a 1 007 1", True),
    "CR": (10, "a 1 3 1\r", False),
    "tab": (10, "a 1 3 1\t", False),
    "tab between values": (10, "a 1 3\t1", False),
    "CR between values": (10, "a 1 3\r1", False),
    "trailing space": (10, "a 1 3 1 ", False),
    "double space": (10, "a 1 3  1", False),
    "full-width digit": (10, "a 1 ３ 1", False),
    "open: extra token": (8, "600 100 extra", False),
    "open: bare timestamp": (8, "600", False),
    "open: trailing space": (8, "600 ", False),
    "open: no job": (8, "600 -", True),
    "open: two jobs": (8, "600 100,200", True),
    "open: plus sign": (8, "+600 100", False),
    "open: leading zero": (8, "0600 100", True),
    "open: underscore": (8, "6_00 100", False),
    "open: Arabic-Indic digit": (8, "٦٠٠ 100", False),
    "open: non-ASCII job id": (8, "600 jöb", False),
}


@pytest.mark.parametrize("name", SPELLINGS)
def test_which_spellings_the_strided_kernel_takes(name):
    at, line, strided = SPELLINGS[name]
    lines = regular_lines()
    lines[at] = line
    assert is_strided(lines) is strided
    assert_block_equals_the_frozen_parser("".join(l + "\n" for l in lines))


def test_an_empty_instance_is_left_to_the_decoder():
    lines = [line.replace("b - ", "b  ") for line in regular_lines()]
    assert not is_strided(lines)
    block = assert_block_equals_the_frozen_parser("\n".join(lines) + "\n")
    assert block.layout.columns == (("a", "0", 2), ("a", "1", 2),
                                    ("b", "", 1))


def test_every_record_wider_than_its_schema_is_left_to_the_decoder():
    lines = [line + " 9" if line.startswith("b ") else line
             for line in regular_lines()]
    assert not is_strided(lines)
    block = assert_block_equals_the_frozen_parser("\n".join(lines) + "\n")
    assert block.layout.columns == (("a", "0", 2), ("a", "1", 2))
    assert len(block.errors) == 4


def test_a_ps_line_of_digits_in_every_record_is_a_process_record():
    """Every field a number: the kernel would take it, the layout must
    not."""
    digits_ps = "ps 41 7 8 100 160 200 100 120 8 64 8 2 2 0 0"
    lines = regular_lines(extra=(digits_ps,))
    assert not is_strided(lines)
    block = assert_block_equals_the_frozen_parser("\n".join(lines) + "\n")
    assert block.layout.columns == (("a", "0", 2), ("a", "1", 2),
                                    ("b", "-", 1))
    assert len(block.procs) == 4


def test_no_final_newline_is_strided():
    text = "\n".join(regular_lines())
    assert BlockParser()._try_strided(text) is not None
    assert_block_equals_the_frozen_parser(text)


def test_a_layout_memo_emptied_by_another_thread_leaves_every_parse_strided():
    """Three times as many layouts as the table keeps, parsed by four
    threads at once: the table is emptied under the readers, and every
    file still takes the strided path."""
    texts = ["".join(line + "\n" for line in
                     regular_lines(extra=(f"a {k + 2} 1 2",)))
             for k in range(3 * _LAYOUTS)]

    def strided(offset):
        return [BlockParser()._try_strided(texts[(offset + k) % len(texts)])
                is not None for k in range(len(texts))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = list(pool.map(strided, range(0, 4 * _LAYOUTS, _LAYOUTS)))
    finally:
        sys.setswitchinterval(interval)
    assert all(all(run) for run in runs)


class _EmptiedAfterEachLookup(dict):
    """A layout table that another thread empties right after every
    lookup — the worst interleaving, made deterministic."""

    def __contains__(self, key):
        found = super().__contains__(key)
        self.clear()
        return found

    def get(self, key, default=None):
        found = super().get(key, default)
        self.clear()
        return found


def test_a_layout_memo_emptied_between_lookups_still_serves_the_hit(
        monkeypatch):
    monkeypatch.setattr(Layout, "_interned", _EmptiedAfterEachLookup())
    text = "".join(line + "\n" for line in regular_lines())
    assert BlockParser()._try_strided(text) is not None
    # the second parse finds its layout, then loses the memo under it
    assert BlockParser()._try_strided(text) is not None


@st.composite
def regular_files(draw):
    """``(text, strided)``: a file of the writer's shape — every record
    the same device lines — with values drawn from 0 … 10**20."""
    types = ["a", "b", "c"][:draw(st.integers(1, 3))]
    widths = {t: draw(st.integers(0, 4)) for t in types}
    devices = {
        t: [str(i) for i in range(draw(st.integers(1, 3)))] for t in types
    }
    value = st.integers(0, 10**20) | st.sampled_from(
        [0, 2**53 - 1, 2**53 + 1, 10**18 - 1, 10**18])
    # the last type announces no schema
    lines = ["$hostname h1", "$arch intel_snb"] + [
        f"!{t} " + " ".join(f"c{i},E" for i in range(widths[t]))
        for t in types[:-1]
    ]
    biggest = 0
    for r in range(draw(st.integers(1, 6))):
        lines.append(f"{600 * r} {draw(st.sampled_from(['-', '7', '7,8']))}")
        for t in types:
            for dev in devices[t]:
                vals = [draw(value) for _ in range(widths[t])]
                biggest = max([biggest] + vals)
                lines.append(f"{t} {dev} " + " ".join(map(str, vals)))
    strided = min(widths.values()) > 0 and biggest < 10**18
    return "".join(line + "\n" for line in lines), strided


@given(regular_files())
@settings(max_examples=50, deadline=None)
def test_regular_files_are_strided_iff_every_value_fits(case):
    text, strided = case
    assert (BlockParser()._try_strided(text) is not None) is strided
    assert_block_equals_the_frozen_parser(text)


#: tokens whose float64 is not the integer they spell, or only just is
DECIMALS = ["0", "7", "10", "007", str(2**53 - 1), str(2**53),
            str(2**53 + 1), str(10**17), "123456789012345678",
            str(10**18 - 1)]


def spans(tokens):
    """``tokens`` as one line of bytes, and each one's ``[start, end)``."""
    b = np.frombuffer((" ".join(tokens) + "\n").encode(), np.uint8)
    ends = np.flatnonzero(b <= 32)
    return b, np.concatenate(([0], ends[:-1] + 1)), ends


def assert_decimals_equal_float(tokens):
    ints = _decimals(*spans(tokens))
    assert ints.dtype == np.int64
    assert ints.tolist() == [int(t) for t in tokens]
    assert ints.astype(np.float64).tobytes() == np.array(
        tokens, dtype=np.float64).tobytes()


def test_decimals_are_the_doubles_float_reads():
    assert_decimals_equal_float(DECIMALS)
    assert_decimals_equal_float(DECIMALS[::-1])
    assert_decimals_equal_float(["5"])


@given(st.lists(st.integers(0, 10**18 - 1), min_size=1, max_size=40))
@settings(max_examples=60)
def test_decimals_property(values):
    assert_decimals_equal_float([str(v) for v in values])


@pytest.mark.parametrize("token", [
    "1000000000000000000", "-1", "+1", "1.0", "1e5", "nan", "inf", "1_0",
    "0x1", "３", "٣",
])
def test_decimals_refuse_what_is_not_1_to_18_ascii_digits(token):
    assert _decimals(*spans(["12", token, "34"])) is None


def test_decimals_refuse_an_empty_or_blank_token():
    b = np.frombuffer(b"12 3\t4 56\n", np.uint8)
    assert _decimals(b, np.array([0, 3, 7]), np.array([2, 6, 9])) is None
    assert _decimals(b, np.array([0, 3]), np.array([2, 3])) is None


def test_the_path_a_host_file_took_is_counted(monitored_run):
    counter = obs.counter("repro_rawfile_block_parses_total")

    def took(text):
        before = {p: counter.value(path=p) for p in ("strided", "records")}
        BlockParser().parse_text(text)
        return {p: counter.value(path=p) - n for p, n in before.items()}

    assert took(fleet_host_day()) == {"strided": 1, "records": 0}
    store = monitored_run.store
    session_day = store.path_for(store.hosts()[0]).read_text()
    assert took(session_day) == {"strided": 0, "records": 1}


#: ``batch_fleet_day``'s host: four cores, one LNET, one MDC, memory
FLEET_SCHEMAS = {
    "cpu": Schema([SchemaEntry(n, unit="cs") for n in (
        "user", "nice", "system", "idle", "iowait", "irq", "softirq")]),
    "lnet": Schema([SchemaEntry("rx_bytes", width=64, unit="B"),
                    SchemaEntry("tx_bytes", width=64, unit="B")]),
    "mdc": SCHEMAS["mdc"],
    "mem": Schema([SchemaEntry("MemUsed", event=False, unit="B")]),
}
FLEET_DEVICES = [("cpu", str(core)) for core in range(4)] + [
    ("lnet", "0"), ("mdc", "t"), ("mem", "0")]


def fleet_host_day(records=144, seed=0):
    """One host-day of ``batch_fleet_day``'s shape, written by
    ``RawFileWriter``: ``records`` samples 600 s apart, one job, 33
    monotone counters a sample."""
    rng = np.random.default_rng(seed)
    columns = {
        (t, dev): np.cumsum(rng.integers(
            0, 1 << 30, size=(records, len(FLEET_SCHEMAS[t]))), axis=0)
        for t, dev in FLEET_DEVICES
    }
    writer = RawFileWriter("c001-001", "intel_hsw", FLEET_SCHEMAS,
                           mem_bytes=1 << 37)
    parts = [writer.header()]
    for i in range(records):
        data = {}
        for (t, dev), cols in columns.items():
            data.setdefault(t, {})[dev] = cols[i].astype(np.float64)
        parts.append(writer.record(Sample(
            host="c001-001", timestamp=1_443_657_600 + 600 * i,
            jobids=["5000001"], data=data, procs=[],
        )))
    return "".join(parts)


def test_the_fleet_host_day_is_strided_and_exact():
    text = fleet_host_day()
    assert BlockParser()._try_strided(text) is not None
    block = assert_block_equals_the_frozen_parser(text)
    assert block.n_records == 144
    assert block.matrix.shape == (144, 33)


def test_ledger_is_in_file_order_and_raise_names_its_first_line():
    """Bad values at lines 7 and 9 and a bad ``ps`` at line 14."""
    lines = [
        "$hostname h1", "!a c0,E c1,E", "!b c0,E",
        "0 100", "a 0 1 2", "a 1 3 4", "b - x",
        "600 100", "a 0 1 y", "a 1 3 4", "b - 5",
        "1200 100", "a 0 1 2", "ps 1 2",
    ]
    block = assert_block_equals_the_frozen_parser("\n".join(lines) + "\n")
    assert [e.lineno for e in block.errors] == [7, 9, 14]
    with pytest.raises(ValueError, match=r"^line 7: "):
        BlockParser("raise").parse_text("\n".join(lines))


def test_device_listed_twice_in_a_regular_file_keeps_the_last_line():
    lines = regular_lines(extra=("a 0 70 80",))
    assert is_strided(lines)
    block = assert_block_equals_the_frozen_parser("\n".join(lines) + "\n")
    samples = list(block.iter_samples(range(4)))
    assert [s.data["a"]["0"].tolist() for s in samples] == [[70.0, 80.0]] * 4
    assert [list(s.data["a"]) for s in samples] == [["0", "1"]] * 4


def test_a_trailing_ps_line_changes_the_path_not_the_block():
    lines = regular_lines()
    assert is_strided(lines) and not is_strided(lines + [PS_LINE])
    strided = BlockParser().parse_text("\n".join(lines))
    stacked = BlockParser().parse_text("\n".join(lines + [PS_LINE]))
    assert strided.times.tobytes() == stacked.times.tobytes()
    assert strided.jobids == stacked.jobids
    # one run each, of the one interned layout
    assert strided.layout is stacked.layout is not None
    assert strided.matrix.shape == stacked.matrix.shape
    assert strided.matrix.tobytes() == stacked.matrix.tobytes()
    assert list(stacked.procs) == [3] and not strided.procs


def test_a_schema_line_inside_a_record_is_ledgered_not_dropped_silently():
    """Record 0's ``a`` devices are read under two ``!`` lines, so the
    type is read schema-less and its three values are neither
    accumulated nor written: one entry at the record's open line says
    so, and raise mode refuses the file before anything is written."""
    text = ("$hostname h\n!a x,E y,E\n0 J\na 0 1 2\n!a x,E\na 1 3\n"
            "600 J\na 0 4\na 1 5\n")
    reason = "a: a ! line inside the record changed its width; read " \
             "without a schema"
    block = assert_block_equals_the_frozen_parser(text)
    assert block.errors == [ParseError(3, "0 J", reason)]
    assert block.runs[0].layout.mismatched == ("a",)
    assert block.runs[1].layout.mismatched == ()
    db = TimeSeriesDB()
    with pytest.raises(ValueError, match=f"^h: line 3: {reason}$"):
        ingest_file(db, "h", text)
    assert db.n_points() == 0


def test_readings_under_an_earlier_schema_of_another_width_are_kept():
    """A record is filed under the schemas it was read with: a ``!``
    line that widens ``b`` starts a run of its own, and nothing is
    ledgered."""
    lines = regular_lines(records=2) + ["!b c0,E c1,E", "1200 100",
                                         "a 0 1 2", "b - 5 6"]
    block = assert_block_equals_the_frozen_parser("\n".join(lines) + "\n")
    assert block.errors == []
    assert [run.records.tolist() for run in block.runs] == [[0, 1], [2]]
    assert [run.layout.schemas["b"].names() for run in block.runs] == [
        ["c0"], ["c0", "c1"]]
    assert [s.data["b"]["-"].tolist() for s in block.iter_samples(
        range(3))] == [[0.0], [5.0], [5.0, 6.0]]
    # a type without a schema keeps every width, a run for each
    loose = [line for line in lines if not line.startswith("!b")]
    block = assert_block_equals_the_frozen_parser("\n".join(loose) + "\n")
    assert [run.layout.columns[-1] for run in block.runs] == [
        ("b", "-", 1), ("b", "-", 2)]
    assert "b" not in block.runs[0].layout.schemas
