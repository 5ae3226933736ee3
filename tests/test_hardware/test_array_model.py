"""The array device model against its per-counter reference.

A device keeps its true counters as one ``(instances, counters)``
matrix and advances it with one :meth:`Device.step` per tick.  The
contract is that nothing observable changes: after one step the true
matrix equals what :class:`reference.ReferenceDevice` reaches bumping
counter by counter, bit for bit, and the generator has drawn exactly
the same values (its state is equal).  Truncating the whole matrix
equals truncating each row.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.collector import Sample
from repro.core.rawfile import RawFileParser, RawFileWriter
from repro.hardware.activity import Activity
from repro.hardware.arch import ARCHITECTURES
from repro.hardware.devices import CoreCounterDevice, CpuTimeDevice, RaplDevice
from repro.hardware.devices.base import (
    Device,
    Schema,
    SchemaEntry,
    rollover_delta,
)
from repro.hardware.topology import Topology
from tests.test_hardware.reference import (
    ReferenceDevice,
    advance_core,
    advance_cpu,
    advance_rapl,
    reference_truncate,
)

WIDTHS = (32, 48, 64)

#: increments: zero, negative, tiny, ordinary, huge, and NaN
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -1e12, 1e-300, float("nan")]),
    st.floats(min_value=-1e6, max_value=1e19, allow_nan=False),
)

schemas = st.lists(
    st.tuples(st.booleans(), st.sampled_from(WIDTHS)), min_size=1, max_size=6,
).map(lambda spec: Schema([
    SchemaEntry(f"c{i}", event=event, width=width)
    for i, (event, width) in enumerate(spec)
]))


def _true(dev) -> np.ndarray:
    return np.array(list(dev.read_true().values()))


def _same(dev, ref, rng, ref_rng) -> None:
    assert np.array_equal(_true(dev), ref.matrix(), equal_nan=True)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def steps(draw):
    """A schema, a start state, and one tick's increments over some
    rows (in loop order) and some columns (in increments-dict order)."""
    schema = draw(schemas)
    n = draw(st.integers(1, 4))
    start = draw(st.lists(
        st.floats(0.0, 2.0**64, allow_nan=False),
        min_size=n * len(schema), max_size=n * len(schema),
    ))
    if draw(st.booleans()):
        rows = list(range(n))
    else:
        rows = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    if draw(st.booleans()):
        columns = list(range(len(schema)))
    else:
        columns = draw(st.lists(
            st.integers(0, len(schema) - 1), min_size=1, unique=True))
    values = draw(st.lists(
        st.lists(VALUES, min_size=len(columns), max_size=len(columns)),
        min_size=len(rows), max_size=len(rows),
    ))
    noise = draw(st.sampled_from([0.0, 0.02, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return schema, n, start, rows, columns, values, noise, seed


def _pair(schema, n, start, noise):
    names = [f"i{k}" for k in range(n)]
    dev = Device(schema, names, noise=noise)
    ref = ReferenceDevice(schema, names, noise=noise)
    k = len(schema)
    for r, name in enumerate(names):
        preset = dict(zip(schema.names(), start[r * k:(r + 1) * k]))
        dev.preset(name, preset)
        ref._true[name][:] = list(preset.values())
    return names, dev, ref


@given(steps())
def test_one_step_draws_and_accumulates_like_the_reference(case):
    schema, n, start, rows, columns, values, noise, seed = case
    names, dev, ref = _pair(schema, n, start, noise)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    col_names = [schema.entries[c].name for c in columns]
    for r, row in zip(rows, values):
        ref.bump(names[r], dict(zip(col_names, row)), ref_rng)
    whole = rows == list(range(n)) and columns == list(range(len(schema)))
    if whole and seed % 2:  # the slice path the devices take
        dev.step(values, rng)
    else:
        dev.step(values, rng, np.array(rows), np.array(columns))
    _same(dev, ref, rng, ref_rng)


@given(steps())
def test_bump_is_the_one_row_step(case):
    schema, n, start, rows, columns, values, noise, seed = case
    names, dev, ref = _pair(schema, n, start, noise)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    col_names = [schema.entries[c].name for c in columns]
    increments = dict(zip(col_names, values[0]))
    dev.bump(names[rows[0]], increments, rng)
    ref.bump(names[rows[0]], increments, ref_rng)
    _same(dev, ref, rng, ref_rng)


fractions = st.sampled_from([0.0, 0.0, 0.05, 0.5, 0.95, 1.0])


@st.composite
def activities(draw, cpus):
    """A fitted, validated activity: some CPUs idle, some over-full."""
    def per_cpu():
        return np.array(draw(st.lists(fractions, min_size=cpus, max_size=cpus)))
    act = Activity(
        cpu_user_frac=per_cpu(),
        cpu_system_frac=per_cpu(),
        cpu_iowait_frac=per_cpu(),
        instr_per_cycle=draw(st.floats(0.0, 4.0)),
        loads_per_instr=draw(st.floats(0.0, 1.0)),
        fp_scalar_per_instr=draw(st.floats(0.0, 1.0)),
        fp_vector_per_instr=draw(st.floats(0.0, 1.0)),
        mem_bw_bytes=draw(st.sampled_from([0.0, 1e9, 5e10])),
    )
    return act.with_cpus(cpus).validated()


@given(
    st.sampled_from(sorted(ARCHITECTURES)), st.data(),
    st.sampled_from([1, 60, 600]), st.sampled_from([0.0, 0.02]),
    st.integers(0, 2**32 - 1),
)
def test_cpu_devices_advance_like_their_loops(name, data, dt, noise, seed):
    """Core counters, jiffies and RAPL: the three devices whose advance
    skips rows, reorders columns or reduces over hardware threads."""
    arch = ARCHITECTURES[name]
    topo = Topology.from_architecture(arch)
    act = data.draw(activities(arch.cpus))
    cpu_names = [str(i) for i in range(arch.cpus)]
    socket_names = [str(s) for s in range(topo.sockets)]
    cases = [
        (CoreCounterDevice(arch, noise=noise), cpu_names,
         lambda ref, r: advance_core(ref, arch, act, dt, r)),
        (CpuTimeDevice(arch.cpus, noise=noise), cpu_names,
         lambda ref, r: advance_cpu(ref, arch.cpus, act, dt, r)),
        (RaplDevice(topo, noise=noise), socket_names,
         lambda ref, r: advance_rapl(ref, RaplDevice, topo, act, dt, r)),
    ]
    for dev, names, reference in cases:
        ref = ReferenceDevice(dev.schema, names, noise=noise)
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for _ in range(2):
            dev.advance(act, dt, rng)
            reference(ref, ref_rng)
        _same(dev, ref, rng, ref_rng)
        assert all(
            np.array_equal(dev.read()[k], v) for k, v in ref.read().items()
        )


def _edge_values(width):
    m = 2.0**width
    return [m, np.nextafter(m, 0.0), np.nextafter(m, np.inf), m - 1.0,
            m + 1.0, 2.0 * m + 3.0, 0.0, 0.5, 1e300]


@given(
    st.lists(st.tuples(st.booleans(), st.sampled_from(WIDTHS)),
             min_size=1, max_size=5),
    st.integers(1, 4), st.data(),
)
def test_matrix_truncation_equals_row_truncation(spec, n, data):
    schema = Schema([SchemaEntry(f"c{i}", event=e, width=w)
                     for i, (e, w) in enumerate(spec)])
    rows = np.array([
        [data.draw(st.one_of(
            st.sampled_from(_edge_values(w)),
            st.floats(0.0, 2.0**66, allow_nan=False)))
         for _, w in spec]
        for _ in range(n)
    ])
    whole = schema.truncate(rows)
    for r in range(n):
        assert np.array_equal(whole[r], reference_truncate(schema, rows[r]))
        assert np.array_equal(schema.truncate(rows[r]), whole[r])


def test_truncation_at_the_register_edge():
    for w in WIDTHS:
        m = 2.0**w
        d = 2.0 ** max(0, w - 52)  # the value spacing just above 2**W
        s = Schema([SchemaEntry("c", width=w), SchemaEntry("g", event=False)])
        out = s.truncate(np.array([[m, m], [m - d, m - d], [m + d, 3.5]]))
        assert out[:, 0].tolist() == [0.0, m - d, d]
        assert out[:, 1].tolist() == [m, m - d, 3.5]  # gauges never wrap


def test_near_wrap_still_wraps_on_the_next_increment():
    """The widened wide-register margin parks a counter where float64
    still resolves it, so the next increment past the margin wraps."""
    for w in WIDTHS:
        schema = Schema([SchemaEntry("a", width=w), SchemaEntry("b", width=w),
                         SchemaEntry("g", event=False)])
        dev = Device(schema, ["x", "y"], noise=0.0)
        dev.bump("y", {"g": 7.0})
        dev.near_wrap()
        before = np.array(list(dev.read().values()))
        margin = max(1000.0, 2.0**w * 2.0**-44)
        assert np.all(before[:, :2] == 2.0**w - margin)
        inc = 3.0 * margin
        dev.step([[inc, inc, 7.0]] * 2)
        after = np.array(list(dev.read().values()))
        assert np.all(after[:, :2] < before[:, :2])  # wrapped
        for r in range(2):
            delta = rollover_delta(after[r], before[r], schema)
            assert delta[:2].tolist() == [inc, inc]


def test_writer_keeps_registers_above_int64():
    """A 64-bit register read above 2**63 goes on the wire exactly."""
    schema = Schema([SchemaEntry("rx", width=64), SchemaEntry("g", event=False)])
    big = 2.0**64 - 4096.0
    w = RawFileWriter("h", "intel_snb", {"ib": schema})
    text = w.header() + w.record(Sample(
        host="h", timestamp=600, jobids=[],
        data={"ib": {"p": np.array([big, 3.0])}}, procs=[],
    ))
    assert "\nib p 18446744073709547520 3\n" in text
    (sample,) = RawFileParser().parse(text)
    assert sample.data["ib"]["p"].tolist() == [big, 3.0]


def test_reads_follow_every_write():
    schema = Schema([SchemaEntry("a", width=32), SchemaEntry("g", event=False)])
    dev = Device(schema, ["x", "y"], noise=0.0)
    writes = [
        lambda: dev.step([[5.0, 1.0]] * 2),
        lambda: dev.bump("y", {"a": 2.0}),
        lambda: dev.preset("x", {"a": 2.0**32 + 7.0}),
        lambda: dev.near_wrap(),
        lambda: dev.reset_instance("x"),
    ]
    for write in writes:
        before = np.array(list(dev.read().values()))
        write()
        after = np.array(list(dev.read().values()))
        expected = np.array([reference_truncate(schema, row)
                             for row in dev.read_true().values()])
        assert np.array_equal(after, expected)
        assert not np.array_equal(after, before)
