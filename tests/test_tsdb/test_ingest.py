"""``ingest_file``: the columnar loader against the per-sample reference.

Every case loads the same text twice — once through
``repro.tsdb.store.ingest_file`` (``BlockParser`` slabs, one group
``put_many`` per set of devices that share a record index), once
through the frozen per-sample gather it replaced
(:func:`tests.test_tsdb.reference.ingest_file_reference`) — and demands
bitwise-equal stores: the same series, the same ``(t, v)`` columns,
``n_points``, ``storage_bytes`` before and after ``seal_heads``, and
the same sealed chunks.  How many write calls it took is not data:
``epoch`` is held to its own rule (one bump per block written), not to
the reference's count.

Both name a reading by the schema it was read under, so a ``!`` line
that *redefines* a type after records were written — a new day's
header in a host file the central store keeps appending to — files the
readings before it under the old names and widths and the later ones
under the new (:func:`test_schema_redefined_mid_file_equals_the_reference`).
Widths are checked where every reader checks them — by the record
decoder, as each line is read, against the schema then in force — so
after a redefinition that changes the counter count a line of the old
width is refused like any other bad line.
"""

import io

import numpy as np
import pytest

from repro import obs
from repro.tsdb import TimeSeriesDB
from repro.tsdb.store import _tagkey, ingest_file
from tests.test_tsdb.reference import assert_same_chunk, ingest_file_reference

HEADER = [
    "$tacc_stats 2.3.2",
    "$hostname c401-101",
    "$arch intel_snb",
    "$mem 34359738368",
    "!cpu user,E,U=cs nice,E system,E",
    "!mdc reqs,E wait,E,U=us",
]

T0 = 1443657600


def record(ts, jobs="1000001", cpu=("0", "1"), mdc=("scratch",), k=0):
    lines = [f"{ts} {jobs}"]
    for dev in cpu:
        lines.append(f"cpu {dev} {100 + k} {k} {7 * k + int(dev)}")
    for dev in mdc:
        lines.append(f"mdc {dev} {1000 * k} {3 * k}")
    return lines


def regular_file(records=12):
    lines = list(HEADER)
    for k in range(records):
        lines += record(T0 + 600 * k, k=k)
    return "\n".join(lines) + "\n"


PS = "ps 4001 wrf.exe alice 1000001 196608 196608 122880 122880 6144 98304 8192 2048 1 0,16 0"


def load_both(text, chunk_size=512, **kw):
    new, ref = TimeSeriesDB(chunk_size=chunk_size), TimeSeriesDB(
        chunk_size=chunk_size
    )
    got = ingest_file(new, "c401-101", text, **kw)
    want = ingest_file_reference(ref, "c401-101", text, **kw)
    assert got == want
    return new, ref


def assert_same_store(new, ref, writes=None):
    """``new`` holds bit for bit what ``ref`` holds.  ``writes`` is the
    number of write calls ``new`` has seen when that is not one per open
    head block, which is what one load into a fresh store makes."""
    assert set(new._series) == set(ref._series)
    assert new.n_series() == ref.n_series()
    assert new.n_points() == ref.n_points()
    assert new.storage_bytes() == ref.storage_bytes()
    # ``epoch`` counts write calls, not series: it moved iff points were
    # written, once per block ``ingest_file`` wrote (the reference makes
    # one call per series, so its count says nothing about the data)
    assert bool(new.epoch) == bool(ref.epoch) == bool(new.n_points())
    assert new.epoch == (len(new._blocks) if writes is None else writes)
    for key, want in ref._series.items():
        got = new._series[key]
        assert got.tags == want.tags and len(got) == len(want)
        # the raw head, in insertion order, before any read-side sort
        assert got.head()[0].tolist() == want.head()[0].tolist(), key
        assert np.array_equal(
            got.head()[1].view(np.uint64),
            want.head()[1].view(np.uint64),
        ), key
        (gt, gv), (wt, wv) = got.arrays(), want.arrays()
        assert np.array_equal(gt, wt), key
        assert np.array_equal(gv.view(np.uint64), wv.view(np.uint64)), key
    new.seal_heads()
    ref.seal_heads()
    assert new.storage_bytes() == ref.storage_bytes()
    assert new.n_chunks() == ref.n_chunks()
    for key, want in ref._series.items():
        got = new._series[key]
        assert not got.head_len() and len(got.chunks) == len(want.chunks)
        for a, b in zip(got.chunks, want.chunks):
            assert_same_chunk(a, b, key)


def blocks_of(db):
    """The ``(type, device)`` slabs of each open head block, oldest
    first: ``ingest_file`` writes one block per shared record index."""
    return [
        sorted({(s.tags["type"], s.tags["device"]) for s in block.members})
        for block in db._blocks
    ]


HOST_BLOCK = [("cpu", "0"), ("cpu", "1"), ("mdc", "scratch")]


def test_strided_fast_path():
    new, ref = load_both(regular_file())
    assert new.n_series() == 2 * 3 + 2 and new.n_points() == 12 * 8
    # a regular host: one write and one head block where the reference
    # made a call per series
    assert blocks_of(new) == [HOST_BLOCK] and (new.epoch, ref.epoch) == (1, 8)
    assert_same_store(new, ref)


def test_heads_crossing_the_chunk_size_seal_identically():
    new, ref = load_both(regular_file(records=40), chunk_size=16)
    assert new.n_chunks() == ref.n_chunks() > 0
    assert_same_store(new, ref)


def test_ps_lines_take_the_general_path():
    lines = list(HEADER)
    for k in range(6):
        lines += record(T0 + 600 * k, k=k)
        if k % 2:
            lines.append(PS)
    new, ref = load_both("\n".join(lines) + "\n")
    assert new.select("stats", {"type": "ps"}) == []
    # the general parser builds one record index per device; they are
    # equal, so the host is one block all the same
    assert blocks_of(new) == [HOST_BLOCK] and new.epoch == 1
    assert_same_store(new, ref)


def test_device_first_appearing_mid_file():
    lines = list(HEADER)
    for k in range(8):
        cpu = ("0", "1") if k < 3 else ("0", "1", "2")
        mdc = ("scratch",) if k != 5 else ()  # and one that skips a record
        lines += record(T0 + 600 * k, cpu=cpu, mdc=mdc, k=k)
    new, ref = load_both("\n".join(lines) + "\n")
    late = new.select("stats", {"type": "cpu", "device": "2"})
    assert len(late) == 3 and all(len(s) == 5 for s in late)
    # each covers other records than the host block: blocks of their own
    assert blocks_of(new) == [
        [("cpu", "0"), ("cpu", "1")], [("cpu", "2")], [("mdc", "scratch")]]
    assert_same_store(new, ref)


def test_duplicate_and_out_of_order_timestamps():
    lines = list(HEADER)
    for k, ts in enumerate([T0, T0 + 1200, T0 + 600, T0 + 1200, T0 + 1800, T0]):
        lines += record(ts, k=k)
    new, ref = load_both("\n".join(lines) + "\n")
    s = new.select("stats", {"type": "cpu", "device": "0", "event": "user"})[0]
    t, v = s.arrays()
    assert list(t) == [T0, T0 + 600, T0 + 1200, T0 + 1800]
    assert list(v) == [105.0, 102.0, 103.0, 104.0]  # last write wins
    assert_same_store(new, ref)


def test_device_listed_twice_in_one_record_last_line_wins():
    lines = list(HEADER)
    for k in range(4):
        lines += record(T0 + 600 * k, k=k)
        if k == 2:
            lines.append("cpu 0 9999 9 9")
    new, ref = load_both("\n".join(lines) + "\n")
    s = new.select("stats", {"type": "cpu", "device": "0", "event": "user"})[0]
    assert list(s.arrays()[1]) == [100.0, 101.0, 9999.0, 103.0]
    # with the dropped line gone cpu 0 covers every record again —
    # compared, not assumed — so it sits in the host block
    assert blocks_of(new) == [HOST_BLOCK] and new.epoch == 1
    assert_same_store(new, ref)


def test_schema_less_type_is_skipped():
    lines = list(HEADER)
    for k in range(5):
        lines += record(T0 + 600 * k, k=k)
        lines.append(f"mystery x {k} {k}" + (" 5" if k == 3 else ""))
    new, ref = load_both("\n".join(lines) + "\n")
    assert new.select("stats", {"type": "mystery"}) == []
    assert_same_store(new, ref)


# -- block-shaped cases the per-series loader could not get wrong ---------------

def test_late_device_blocks_seal_identically_across_the_chunk_size():
    lines = list(HEADER)
    for k in range(40):
        cpu = ("0", "1") if k < 7 else ("0", "1", "2")
        mdc = ("scratch",) if k % 9 else ()
        lines += record(T0 + 600 * k, cpu=cpu, mdc=mdc, k=k)
    new, ref = load_both("\n".join(lines) + "\n", chunk_size=16)
    assert blocks_of(new) == [
        [("cpu", "0"), ("cpu", "1")], [("cpu", "2")], [("mdc", "scratch")]]
    assert new.n_chunks() == 3 * 2 * 2 + 3 * 2 + 2 * 2
    assert_same_store(new, ref)


@pytest.mark.parametrize("seal_between", [False, True])
def test_same_file_twice_into_one_store(seal_between):
    """The second load's group finds its series open in the first load's
    block (and reuses it) or sealed and parked (and starts a new one);
    every timestamp arrives twice and the later value wins."""
    first = regular_file(records=21)
    second = first.replace(" 100", " 5100")  # same records, other values
    assert second != first
    new, ref = TimeSeriesDB(chunk_size=16), TimeSeriesDB(chunk_size=16)
    for db, loader in ((new, ingest_file), (ref, ingest_file_reference)):
        assert loader(db, "c401-101", first) == (21 * 8, 21)
        if seal_between:
            db.seal_heads()
        assert loader(db, "c401-101", second) == (21 * 8, 21)
    assert blocks_of(new) == [HOST_BLOCK]
    s = new.select("stats", {"device": "0", "event": "user"})[0]
    assert len(s) == 42 and not s._ordered
    t, v = s.arrays()
    assert len(t) == 21 and v[0] == 5100.0
    assert_same_store(new, ref, writes=2)


def test_file_after_live_puts_on_two_of_its_series():
    """Open points come along from one block only: the first series a
    live ``put`` touched joins the host block with its row, the second
    keeps its own block and is written as a detached column."""
    early = {"host": "c401-101", "type": "cpu", "device": "0", "event": "nice"}
    other = {"host": "c401-101", "type": "mdc", "device": "scratch",
             "event": "wait"}
    new, ref = TimeSeriesDB(chunk_size=8), TimeSeriesDB(chunk_size=8)
    for db, loader in ((new, ingest_file), (ref, ingest_file_reference)):
        db.put("stats", early, T0 - 600, -1.0)
        db.put("stats", other, T0 + 900, -2.0)  # lands mid-file
        loader(db, "c401-101", regular_file(records=20))
    own, host = new._blocks  # oldest first; the first put's is gone
    assert new._series[("stats", _tagkey(other))]._block is own
    assert len(own.members) == 1 and len(host.members) == 8
    assert [host.members[j].tags for j in host.detached] == [other]
    assert new._series[("stats", _tagkey(early))]._block is host
    assert_same_store(new, ref, writes=3)


@pytest.mark.parametrize("types", [["mdc"], ("cpu",), {"cpu", "mdc"}, ["nope"]])
def test_types_filter(types):
    new, ref = load_both(regular_file(), types=types)
    kept = set(types) & {"cpu", "mdc"}
    assert {s.tags["type"] for s in new._series.values()} == kept
    # what is kept of the host block is still one block
    assert [{t for t, _ in slabs} for slabs in blocks_of(new)] == (
        [kept] if kept else [])
    assert_same_store(new, ref)


def test_metric_name_and_header_only_file():
    new, ref = load_both(regular_file(), metric="raw")
    assert new.metrics() == ["raw"]
    assert_same_store(new, ref)
    new, ref = load_both("\n".join(HEADER) + "\n")
    assert new.n_series() == 0 and new.epoch == 0
    new, ref = load_both("")
    assert new.n_series() == 0


def test_str_stringio_and_open_file_sources(tmp_path):
    text = regular_file()
    path = tmp_path / "c401-101.raw"
    path.write_text(text)
    stores = []
    for make in (lambda: text, lambda: io.StringIO(text), lambda: open(path)):
        db = TimeSeriesDB()
        src = make()
        try:
            assert ingest_file(db, "c401-101", src) == (96, 12)
        finally:
            if not isinstance(src, str):
                src.close()
        stores.append(db)
    for db in stores:
        fresh = TimeSeriesDB()
        ingest_file_reference(fresh, "c401-101", text)
        assert_same_store(db, fresh)


def test_truncated_tail_raises_in_both_and_writes_nothing():
    text = regular_file()
    cut = text[: text.rindex(" ")]  # last mdc line loses a counter
    assert cut != text
    for loader in (ingest_file, ingest_file_reference):
        db = TimeSeriesDB()
        with pytest.raises(ValueError, match="schema of 2"):
            loader(db, "c401-101", cut)
        assert db.n_series() == 0 and db.n_points() == 0 and db.epoch == 0


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ("cpu 0 12 x 3", "could not convert string to float"),
        ("cpu 0 1 2", "3"),  # width vs schema of 3
        ("14436abc 1000001", "invalid literal"),
    ],
)
def test_corrupt_line_names_host_and_line_and_leaves_store_untouched(
    bad_line, reason
):
    lines = regular_file().split("\n")
    lineno = len(HEADER) + 4 * 5 + 2  # a cpu line of the sixth record
    if bad_line[0].isdigit():
        lineno -= 1  # its record-open line
    lines[lineno - 1] = bad_line
    db = TimeSeriesDB()
    db.put("stats", {"host": "other"}, T0, 1.0)
    before = (db.n_series(), db.n_points(), db.epoch, db.storage_bytes())
    with pytest.raises(ValueError) as err:
        ingest_file(db, "c401-107", "\n".join(lines))
    assert str(err.value).startswith(f"c401-107: line {lineno}: ")
    assert reason in str(err.value)
    assert (
        db.n_series(), db.n_points(), db.epoch, db.storage_bytes()
    ) == before
    with pytest.raises(ValueError):
        ingest_file_reference(TimeSeriesDB(), "c401-107", "\n".join(lines))


def test_schema_redefined_mid_file_equals_the_reference():
    """A redefinition keeps every reading under the schema it was read
    with — the record the ``!`` line follows too."""
    lines = list(HEADER)
    for k in range(3):
        lines += record(T0 + 600 * k, k=k)
    lines.append("!mdc requests,E latency,E,U=us")  # same width, renamed
    for k in range(3, 6):
        lines += record(T0 + 600 * k, k=k)
    text = "\n".join(lines) + "\n"
    new, ref = load_both(text)
    events = lambda db: {
        s.tags["event"]: len(s) for s in db.select("stats", {"type": "mdc"})
    }
    assert events(new) == {"reqs": 3, "wait": 3, "requests": 3, "latency": 3}
    assert_same_store(new, ref)

    # a redefinition that changes the width refuses the later lines of
    # the old width, in both
    widened = text.replace(
        "!mdc requests,E latency,E,U=us", "!mdc requests,E"
    )
    db = TimeSeriesDB()
    with pytest.raises(ValueError, match=r"^h: line \d+: .*2 .*schema of 1"):
        ingest_file(db, "h", widened)
    assert db.n_series() == 0 and db.epoch == 0
    with pytest.raises(ValueError, match="2 values vs schema of 1"):
        ingest_file_reference(TimeSeriesDB(), "h", widened)
    # ... and takes the file whose later lines conform to it: each
    # reading under its own width
    conforming = "\n".join(
        line.rpartition(" ")[0] if i > 18 and line.startswith("mdc") else line
        for i, line in enumerate(widened.split("\n"))
    )
    assert conforming.count("mdc scratch") == 6 and conforming != widened
    new, ref = load_both(conforming)
    assert events(new) == {"reqs": 3, "wait": 3, "requests": 3}
    assert_same_store(new, ref)


def test_seal_heads_counts_once_per_metric_with_exact_totals():
    obs.reset()
    db = TimeSeriesDB(chunk_size=16)
    ingest_file(db, "h1", regular_file(records=40), metric="stats")
    ingest_file(db, "h2", regular_file(records=7), metric="aux")
    seals = obs.counter("repro_tsdb_chunk_seals_total")
    size = obs.counter("repro_tsdb_chunk_bytes_total")
    threshold = {m: seals.value(metric=m) for m in ("stats", "aux")}
    assert threshold == {"stats": 8 * 2, "aux": 0}
    db.seal_heads()
    assert seals.value(metric="stats") == 8 * 3
    assert seals.value(metric="aux") == 8
    for m in ("stats", "aux"):
        assert size.value(metric=m) == sum(
            c.nbytes for s in db.select(m) for c in s.chunks
        )
    assert db.storage_bytes() == sum(
        size.value(metric=m) for m in ("stats", "aux")
    )
    db.seal_heads()  # nothing buffered: nothing counted
    assert seals.value(metric="stats") == 8 * 3


def test_seal_heads_slabs_do_not_change_the_chunks(monkeypatch):
    """A slab boundary is invisible: one head per slab or all in one."""
    import repro.tsdb.store as store_mod

    text = regular_file(records=30)
    whole, sliced = TimeSeriesDB(), TimeSeriesDB()
    for db in (whole, sliced):
        ingest_file(db, "h", text)
        db.put("stats", {"host": "h", "type": "late"}, T0 + 5, 2.0)
        db.put("stats", {"host": "h", "type": "late"}, T0, 1.0)  # unordered
    whole.seal_heads()
    monkeypatch.setattr(store_mod, "_SEAL_SLAB_POINTS", 3 * sliced.chunk_size)
    sliced.seal_heads()
    assert whole.storage_bytes() == sliced.storage_bytes()
    for key, a in whole._series.items():
        b = sliced._series[key]
        assert not a.head_len() and not b.head_len()
        assert_same_chunk(a.chunks[0], b.chunks[0], key)
    late = whole.select("stats", {"type": "late"})[0]
    assert list(late.arrays()[0]) == [T0, T0 + 5]
