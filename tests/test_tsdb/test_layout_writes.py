"""What a host layout is derived into, against the per-column code.

* Registration: ``ingest_file`` builds a host's series keys, tag sets
  and posting entries from its layout's template with the host filled
  in.  The store it leaves — series in insertion order, metric key
  sets, the tag index down to the order its tags and values were first
  met — must be what ``PerSeriesTSDB`` (``test_registration.py``: every
  series through ``_get_series``, one at a time) leaves, over a layout
  change, the same file twice and a prune between two files.
* Sealing: a head block is sealed one ``(K, n)`` slab per lower edge
  over its shared time vector.  Every chunk must be bit-equal to the
  per-column ``seal_many`` of the column the old per-series cut would
  have taken — with detached columns, unequal edges and rows out of
  order.
"""

import numpy as np
import pytest

import repro.tsdb.store as store
from repro.tsdb import TimeSeriesDB
from repro.tsdb.chunks import seal_many
from repro.tsdb.store import _DEAD, ingest_file
from tests.test_stream.reference import store_dump
from tests.test_tsdb.reference import assert_same_chunk
from tests.test_tsdb.test_registration import PerSeriesTSDB, layout

SCHEMA_LINES = ["!cpu user,E nice,E", "!mdc reqs,E wait,E"]


def host_file(host, records=3, t0=0, cpus=("0", "1"), mdc=True):
    lines = ["$tacc_stats 2.3.2", f"$hostname {host}", "$arch intel_snb",
             *SCHEMA_LINES]
    for r in range(records):
        lines.append(f"{t0 + 600 * r} 42")
        lines += [f"cpu {c} {r} {r + 1}" for c in cpus]
        if mdc:
            lines.append(f"mdc t {2 * r} {3 * r}")
    return "".join(line + "\n" for line in lines)


SCRIPT = [
    ("n1", host_file("n1")),
    ("n2", host_file("n2")),                        # the same layout
    ("n1", host_file("n1", t0=1800, cpus=("0", "1", "2"))),  # it grows
    ("n2", host_file("n2")),                        # the same file again
    ("prune", 1200),                                # deletes n2's series
    ("n2", host_file("n2", t0=3600, mdc=False)),    # partly re-registered
    ("n3", host_file("n3", records=2)),
    ("seal", None),
    ("n3", host_file("n3", records=2, t0=7200)),    # after the seal
]


@pytest.mark.parametrize("types", [None, ["cpu"]])
def test_template_registration_equals_the_per_series_loop(types):
    dbs = TimeSeriesDB(chunk_size=4), PerSeriesTSDB(chunk_size=4)
    for host, arg in SCRIPT:
        for db in dbs:
            if host == "prune":
                db.prune(arg)
            elif host == "seal":
                db.seal_heads()
            else:
                ingest_file(db, host, arg, types=types)
        got, want = dbs
        assert layout(got) == layout(want), host
        assert got._generation == want._generation
    assert store_dump(got) == store_dump(want)
    assert got.n_series() == want.n_series() > 0


def test_hosts_of_a_layout_share_the_template():
    db = TimeSeriesDB()
    ingest_file(db, "n1", host_file("n1"))
    ingest_file(db, "n2", host_file("n2"))
    s1 = db.select("stats", {"host": "n1"})
    s2 = db.select("stats", {"host": "n2"})
    assert len(s1) == len(s2) == 6
    for a, b in zip(s1, s2):
        assert a.tags == {**b.tags, "host": "n1"}
        assert list(a.tags) == ["host", "type", "device", "event"]
        assert a.key[1][:2] == b.key[1][:2] and a.key[1][3] == b.key[1][3]


# -- sealing a head block's slab ---------------------------------------------

def frozen_cut(block, cols, size):
    """The per-column cut sealing used to make: ``(series, t, v)`` over
    each column's oldest ``size`` open rows, sorted + keep-last when the
    block's rows are out of order."""
    t_all = block.t[:block.n]
    rising = bool((t_all[1:] > t_all[:-1]).all())
    out = []
    for j in cols.tolist():
        a = int(block.lo[j])
        b = min(a + size, block.n)
        t, v = block.t[a:b], block.v[j, a:b]
        if not rising:
            order = np.argsort(t, kind="stable")
            t, v = t[order], v[order]
            keep = np.append(t[1:] != t[:-1], True)
            t, v = t[keep], v[keep]
        out.append((block.members[j], t, v))
    return out


def messy_store(rising=True):
    """Blocks with a detached column and unequal lower edges."""
    db = TimeSeriesDB(chunk_size=8)
    tags = [{"host": "n1", "event": e} for e in "abcd"]
    group = db.group("m", tags[:3])
    stamps = [0, 10, 20] if rising else [20, 0, 20]
    for i, t in enumerate(stamps):
        db.put_many("m", group, [t], np.full((1, 3), float(i)))
    db.put("m", tags[1], 30, -1.0)              # column 1 leaves
    wide = db.group("m", tags)                  # a layout change: the
    for i, t in enumerate([40, 50] if rising else [40, 5]):  # new member
        db.put_many("m", wide, [t], np.full((1, 4), 10.0 + i))  # starts late
    return db


@pytest.mark.parametrize("rising", [True, False])
def test_slabs_are_the_per_column_cut(rising):
    db = messy_store(rising)
    blocks = list(db._blocks)
    assert any(len(set(b.lo[b.lo < _DEAD].tolist())) > 1 for b in blocks)
    for block in blocks:
        cols = np.flatnonzero(block.lo < block.n)
        want = frozen_cut(block, cols, block.n)
        got = [
            (s, t, v[k])
            for members, t, v in block.slabs(cols, block.n)
            for k, s in enumerate(members)
        ]
        assert sorted(id(s) for s, _, _ in got) == sorted(
            id(s) for s, _, _ in want)
        by_series = {id(s): (t, v) for s, t, v in got}
        for s, t, v in want:
            gt, gv = by_series[id(s)]
            assert gt.tobytes() == t.tobytes() and gv.tobytes() == v.tobytes()


@pytest.mark.parametrize("rising", [True, False])
def test_sealed_chunks_equal_per_column_seal_many(rising):
    db = messy_store(rising)
    want = {}
    for block in db._blocks:
        cut = frozen_cut(block, np.flatnonzero(block.lo < block.n), block.n)
        for (s, _, _), chunk in zip(cut, seal_many([(t, v) for _, t, v in cut])):
            want[s.key] = chunk
    db.seal_heads()
    assert want
    for key, chunk in want.items():
        assert_same_chunk(db._series[key].chunks[-1], chunk, key)


def test_a_full_chunk_seals_per_lower_edge_as_the_per_column_cut(
        monkeypatch):
    """``chunk_size`` reached inside an append: the columns due are cut
    at their own edges, and each chunk is the per-column one."""
    db = TimeSeriesDB(chunk_size=4)
    tags = [{"host": "n1", "event": e} for e in "abc"]
    db.put_many("m", db.group("m", tags[:2]), [0, 10, 20],
                np.arange(6.0).reshape(3, 2))
    wide = db.group("m", tags)
    seen = []
    real = store._seal_into

    def spy(slabs):
        for members, t, v in slabs:
            seen.append((members, seal_many([(t, row) for row in v])))
        real(slabs)

    monkeypatch.setattr(store, "_seal_into", spy)
    db.put_many("m", wide, [30, 40, 50, 60],
                np.arange(12.0).reshape(4, 3) + 100)
    assert [len(m) for m, _ in seen] == [2, 1]  # two edges, two slabs
    for members, chunks in seen:
        for s, chunk in zip(members, chunks):
            assert_same_chunk(s.chunks[-1], chunk, s.key)
