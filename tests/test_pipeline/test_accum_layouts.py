"""Stacked accumulation against the per-sample oracle, across layouts.

``accumulate_blocks`` reads each record under its own layout: it
stacks the hosts of one layout and reduces each quantity over all of
them at once; a host of another layout, or each run of a host of
several, is planned on its own.  Whatever the mix, the job's
arrays must be the frozen per-sample ``accumulate``'s bit for bit.  The
jobs drawn here mix: hosts of one shared layout (stacked), a host with
an extra or a missing device, an instance absent from some records, a
repeated timestamp, a schema-less device of varying width (a ragged
group) and a core counter type only some hosts report.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import CentralStore
from repro.hardware.devices.base import Schema, SchemaEntry
from repro.pipeline.parallel import assemble_jobs, parse_blocks
from tests.test_pipeline import reference

CORE_EVENTS = ("instructions", "cycles", "loads", "l1_hits", "l2_hits",
               "llc_hits", "fp_scalar", "fp_vector")
SCHEMAS = {
    "cpu": Schema([SchemaEntry(n, unit="cs") for n in (
        "user", "nice", "system", "idle", "iowait", "irq", "softirq")]),
    "intel_hsw": Schema([SchemaEntry(n, width=48) for n in CORE_EVENTS]),
    "lnet": Schema([SchemaEntry("rx_bytes", unit="B"),
                    SchemaEntry("tx_bytes", unit="B")]),
    "mdc": Schema([SchemaEntry("reqs"), SchemaEntry("wait_us", unit="us")]),
    "mem": Schema([SchemaEntry("MemUsed", event=False, unit="B")]),
}
#: every host's devices, before its own changes
BASE = {"cpu": ["0", "1"], "mdc": ["t"], "mem": ["0"]}


@st.composite
def hosts(draw):
    """One host: ``(devices, records, absent, ragged)``."""
    devices = {t: list(insts) for t, insts in BASE.items()}
    change = draw(st.sampled_from(
        ["none", "none", "extra cpu", "no mdc", "core", "lnet"]))
    if change == "extra cpu":
        devices["cpu"].append("2")
    elif change == "no mdc":
        del devices["mdc"]
    elif change == "core":
        devices["intel_hsw"] = ["0", "1"]
    elif change == "lnet":
        devices["lnet"] = ["0"]
    times = [600 * k for k in range(draw(st.integers(2, 5)))]
    if draw(st.booleans()):  # a prolog record on a periodic one
        at = draw(st.integers(0, len(times) - 1))
        times.insert(at, times[at])
    # an instance some records lack: the record decoder reads the file
    absent = draw(st.sampled_from([None, ("cpu", "1"), ("mdc", "t")]))
    absent_from = draw(st.sets(st.integers(0, len(times) - 1), max_size=2))
    ragged = draw(st.booleans())
    return devices, times, (absent, absent_from), ragged


def host_text(name, spec, rng, schemas=SCHEMAS, job="J"):
    devices, times, (absent, absent_from), ragged = spec
    lines = ["$tacc_stats 2.3.2", f"$hostname {name}", "$arch intel_hsw",
             "$mem 0"]
    lines += [schemas[t].spec_line(t) for t in sorted(devices)]
    for r, ts in enumerate(times):
        lines.append(f"{ts} {job}")
        for t in sorted(devices):
            for inst in devices[t]:
                if (t, inst) == absent and r in absent_from:
                    continue
                values = rng.integers(0, 1 << 59, len(schemas[t]))
                lines.append(f"{t} {inst} " + " ".join(map(str, values)))
        if ragged:  # no schema, one more value each record
            lines.append("xdev 0 " + " ".join(["7"] * (r + 1)))
    return "".join(line + "\n" for line in lines)


def write_store(root, specs, seed):
    rng = np.random.default_rng(seed)
    store = CentralStore(root)
    for h, spec in enumerate(specs):
        store.path_for(f"h{h}").write_text(host_text(f"h{h}", spec, rng))
    return store


def assert_accum_equals_the_oracle(store):
    """Returns the number of jobs both sides accumulated."""
    jobdata, _ = assemble_jobs(parse_blocks(store))
    oracle, _ = reference.map_jobs(store)
    assert sorted(jobdata) == sorted(oracle)
    compared = 0
    for jid, jd in jobdata.items():
        try:
            want = reference.accumulate(oracle[jid])
        except ValueError:
            try:
                jd.accumulate()
            except ValueError:
                continue
            raise AssertionError(f"{jid}: the oracle refused the job")
        reference.assert_same_accum(jd.accumulate(), want, jid)
        compared += 1
    return compared


@given(st.lists(hosts(), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_accumulate_equals_the_oracle_on_mixed_layouts(
        tmp_path_factory, specs, seed):
    root = tmp_path_factory.mktemp("store")
    assert_accum_equals_the_oracle(write_store(root, specs, seed))


def test_each_kind_of_host_in_one_job(tmp_path):
    """The cases the property draws from, side by side in one job."""
    shared = (BASE, [0, 600, 1200], (None, set()), False)
    specs = [
        shared, shared, shared,                              # stacked
        ({**BASE, "cpu": ["0", "1", "2"]}, [0, 600, 1200], (None, set()),
         False),                                             # extra device
        ({"cpu": ["0", "1"], "mem": ["0"]}, [0, 600, 1200], (None, set()),
         False),                                             # no mdc
        ({**BASE, "intel_hsw": ["0", "1"]}, [0, 600, 1200], (None, set()),
         False),                                             # a core type
        (BASE, [0, 600, 1200], (("cpu", "1"), {1}), False),  # absent once
        (BASE, [0, 0, 600, 1200], (None, set()), False),     # repeated ts
        (BASE, [0, 600, 1200], (None, set()), True),         # ragged
    ]
    store = write_store(tmp_path, specs, seed=7)
    blocks = parse_blocks(store)
    layouts = [blocks[f"h{h}"].layout for h in range(len(specs))]
    assert layouts[0] is layouts[1] is layouts[2] is not None
    assert layouts[3] is not layouts[0] and layouts[3] is not None
    # a host of several layouts: a run for each, the shared one too
    assert [(run.layout, run.records.tolist()) for run in blocks["h6"].runs] \
        == [(layouts[0], [0, 2]), (blocks["h6"].runs[1].layout, [1])]
    assert ("cpu", "1", 7) not in blocks["h6"].runs[1].layout.columns
    assert [run.layout.columns[-1] for run in blocks["h8"].runs] == [
        ("xdev", "0", 1), ("xdev", "0", 2), ("xdev", "0", 3)]
    assert layouts[7] is layouts[0]  # a repeated record is still regular
    assert assert_accum_equals_the_oracle(store) == 1
