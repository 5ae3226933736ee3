"""The nightly pass parses each host file once.

The ETL (``ingest_jobs``) block-parses every host file; the TSDB load
that follows in the same process — a :class:`~repro.shard.ShardedTSDB`
over a :class:`~repro.shard.StoreSource`, or ``ingest_store`` — takes
those blocks back (``repro.core.rawfile.take_parsed``) instead of
parsing the files again, as long as a file still holds exactly the text
that was parsed.  Pinned here: one parse per file, a store identical to
one loaded without the ETL pass, how much of a pass the table keeps,
and every way the reuse must not happen — a same-size rewrite, a
quarantined line, a deleted file, a parse that no load follows.
"""

import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.core import CentralStore, rawfile
from repro.core.rawfile import BlockParser, file_parsed, take_parsed
from repro.db import Database
from repro.pipeline import ingest_jobs, parse_blocks
from repro.shard import ShardedTSDB, StoreSource
from repro.tsdb import TimeSeriesDB, ingest_store, window_stats
from repro.tsdb.query import query
from repro.tsdb.store import ingest_file
from tests.test_core.test_rawfile import fleet_host_day

HOSTS = 8
HOSTS_PER_JOB = 4


def write_rack(root, n_hosts=HOSTS):
    """``batch_fleet_day``'s rack-day: 8 host-days of
    ``fleet_host_day()`` (a seed each), two 4-host jobs — or
    ``n_hosts`` host-days in 4-host jobs."""
    root.mkdir(parents=True)
    hosts = []
    for h in range(n_hosts):
        host = f"c000-{h:03d}"
        job = str(5_000_000 + h // HOSTS_PER_JOB)
        text = fleet_host_day(seed=h).replace(
            "$hostname c001-001", f"$hostname {host}").replace(
            " 5000001\n", f" {job}\n")
        (root / f"{host}.raw").write_text(text)
        hosts.append(host)
    return hosts


def parses():
    return obs.counter("repro_rawfile_block_parses_total").total()


def etl(root, n_hosts=HOSTS):
    result = ingest_jobs(CentralStore(str(root)), None, Database())
    assert result.ingested == n_hosts // HOSTS_PER_JOB
    return result


def load(root, shards, workers, **kw):
    """A sharded load of ``root``, and the block parses it cost here
    and in its workers."""
    sdb = ShardedTSDB(shards=shards, workers=workers)
    before = parses()
    try:
        sdb.ingest(StoreSource(str(root)), **kw)
    except Exception:
        sdb.close()
        raise
    sdb.harvest_obs()
    return sdb, parses() - before


def columns(result):
    return [(s.tags, s.times.tobytes(),
             np.asarray(s.values, dtype=np.float64).tobytes())
            for s in result.series]


def contents(db):
    """What a store answers: every series' window stats, two queries'
    columns and the bytes at rest."""
    ask = db.query if isinstance(db, ShardedTSDB) else (
        lambda *a, **kw: query(db, *a, **kw))
    stats = (db.window_stats("stats") if isinstance(db, ShardedTSDB)
             else window_stats(db, "stats"))
    return (
        [repr(s) for s in stats],
        columns(ask("stats", tags={"type": "cpu"},
                    group_by=("host", "event"), rate=True)),
        columns(ask("stats", tags={"type": "mdc"}, group_by=("host",))),
        db.storage_bytes(),
    )


@pytest.fixture(scope="module")
def racks(tmp_path_factory):
    """Three copies of one rack-day: ``ref`` is never ETL'd, ``stale``
    is ETL'd and never loaded."""
    base = tmp_path_factory.mktemp("parse_once")
    return {name: (base / name, write_rack(base / name))
            for name in ("ref", "etl", "stale")}


@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("shards", [1, 3])
def test_a_load_after_the_etl_parses_no_file_again(racks, shards, workers):
    """Whatever an earlier pass left in the table: here the blocks of a
    rack whose load never came."""
    ref_root, _ = racks["ref"]
    root, _ = racks["etl"]
    etl(racks["stale"][0])
    want, ref_parses = load(ref_root, shards, workers)
    try:
        assert ref_parses == HOSTS
        before = parses()
        etl(root)
        got, _ = load(root, shards, workers)
        try:
            assert parses() - before == HOSTS  # the ETL's, and no other
            assert contents(got) == contents(want)
            assert got.n_points() == want.n_points() == HOSTS * 144 * 33
        finally:
            got.close()
    finally:
        want.close()


def test_ingest_store_reuses_the_etl_blocks_too(racks):
    ref_root, _ = racks["ref"]
    root, _ = racks["etl"]
    want = TimeSeriesDB()
    ingest_store(want, CentralStore(str(ref_root)))
    before = parses()
    store = CentralStore(str(root))
    ingest_jobs(store, None, Database())
    got = TimeSeriesDB()
    ingest_store(got, store)
    assert parses() - before == HOSTS
    assert contents(got) == contents(want)


@pytest.mark.parametrize("workers", [0, 1])
def test_a_same_size_rewrite_after_the_etl_is_loaded_as_rewritten(
        tmp_path, workers):
    """A digit flipped between the ETL and the load, size and mtime
    kept: the file is parsed again and its new value is what lands."""
    root = tmp_path / "rack"
    hosts = write_rack(root)
    etl(root)
    path = root / f"{hosts[2]}.raw"
    text = path.read_text()
    lines = text.split("\n")
    at = [i for i, line in enumerate(lines) if line.startswith("cpu 0 ")][5]
    old = lines[at].split(" ")
    new_user = old[2][:-1] + str((int(old[2][-1]) + 1) % 10)
    lines[at] = " ".join(old[:2] + [new_user] + old[3:])
    stat = os.stat(path)
    path.write_text("\n".join(lines))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns

    sdb, n = load(root, 3, workers)
    try:
        assert n == 1  # the rewritten file; the other seven were reused
        got = sdb.query("stats", tags={
            "host": hosts[2], "type": "cpu", "device": "0",
            "event": "user"})
        assert got.series[0].values[5] == float(new_user)
        assert float(new_user) != float(old[2])
    finally:
        sdb.close()


def expected_error(workers, exc):
    """The text a sharded load raises for ``exc`` in its shard."""
    if workers == 0:
        return str(exc)
    return f"shard worker 0: {type(exc).__name__}: {exc}"


@pytest.mark.parametrize("workers", [0, 1])
def test_a_file_the_etl_quarantined_a_line_of_fails_the_load_as_before(
        tmp_path, workers):
    root = tmp_path / "rack"
    hosts = write_rack(root)
    path = root / f"{hosts[5]}.raw"
    lines = path.read_text().split("\n")
    at = [i for i, line in enumerate(lines) if line.startswith("mdc ")][3]
    lines[at] = lines[at] + " x"
    path.write_text("\n".join(lines))
    assert not etl(root).errors  # the line is quarantined, the job kept
    with pytest.raises(ValueError) as raised:
        ingest_file(TimeSeriesDB(), hosts[5], path.read_text())
    assert str(raised.value).startswith(f"{hosts[5]}: line {at + 1}: ")

    with pytest.raises(ValueError if workers == 0 else RuntimeError) as exc:
        load(root, 3, workers)
    assert str(exc.value) == expected_error(workers, raised.value)


@pytest.mark.parametrize("workers", [0, 1])
def test_a_file_deleted_after_the_etl_fails_the_load_as_before(
        tmp_path, workers):
    root = tmp_path / "rack"
    hosts = write_rack(root)
    etl(root)
    path = root / f"{hosts[1]}.raw"
    path.unlink()
    with pytest.raises(FileNotFoundError) as missing:
        open(path)
    with pytest.raises(FileNotFoundError if workers == 0 else RuntimeError
                       ) as exc:
        load(root, 3, workers, hosts=hosts)
    assert str(exc.value) == expected_error(workers, missing.value)
    assert take_parsed(path) is None


def test_a_layout_unpickles_as_the_interned_one_memo_and_all(tmp_path):
    block = BlockParser().parse_text(fleet_host_day())
    layout = block.layout
    memo = object()
    marker = "a derivation that must not travel"
    assert layout.derive(("test", marker), lambda: memo) is memo
    wire = pickle.dumps(layout)
    assert marker.encode() not in wire
    back = pickle.loads(wire)
    assert back is layout
    assert back.derive(("test", marker), lambda: None) is memo
    # a slim block carries its layouts the same way, and only columns
    slim = pickle.loads(pickle.dumps(block.slim()))
    assert slim.runs[0].layout is layout
    assert (slim.jobids, slim.procs, slim.errors) == ([], {}, [])
    assert slim.times.tobytes() == block.times.tobytes()
    assert slim.matrix.tobytes() == block.matrix.tobytes()


def test_a_kept_block_is_read_only_and_taken_once(tmp_path):
    root = tmp_path / "rack"
    hosts = write_rack(root)
    blocks = parse_blocks(CentralStore(str(root)), keep=True)
    block = blocks[hosts[0]]
    for array in (block.times, block.matrix, block.runs[0].records):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    path = root / f"{hosts[0]}.raw"
    assert take_parsed(path) is block
    assert take_parsed(path) is None


def test_a_parse_no_load_follows_keeps_nothing(tmp_path):
    """The portal's job pages and the chaos check parse through
    ``parse_blocks`` and ``parse_path`` without ``keep``: nothing is
    filed, and their blocks stay theirs to edit."""
    root = tmp_path / "rack"
    hosts = write_rack(root)
    paths = [root / f"{h}.raw" for h in hosts]
    blocks = parse_blocks(CentralStore(str(root)), hosts=hosts[:2])
    block = BlockParser().parse_path(paths[2])
    assert all(take_parsed(path) is None for path in paths)
    for b in (blocks[hosts[0]], block):
        b.matrix[0, 0] = 0


def test_a_closed_store_drops_the_blocks_filed_for_its_files(tmp_path):
    """An ETL pass whose load never comes leaves nothing behind once
    its store closes; a store elsewhere keeps its own."""
    root, other = tmp_path / "rack", tmp_path / "other"
    hosts = write_rack(root)
    write_rack(other)
    store = CentralStore(str(root))
    ingest_jobs(store, None, Database())
    etl(other)
    store.close()
    assert all(take_parsed(root / f"{h}.raw") is None for h in hosts)
    assert all(take_parsed(other / f"{h}.raw") is not None for h in hosts)


def test_a_pass_of_24_files_is_parsed_once(tmp_path):
    """The table bounds characters, not files: 24 host-days of 66 kB
    are 1.6 M of its 8 Mi characters, and all 24 are reused."""
    root = tmp_path / "rack"
    hosts = write_rack(root, 24)
    before = parses()
    etl(root, 24)
    sdb, n = load(root, 3, 0)
    try:
        assert n == 0 and parses() - before == 24
        assert sdb.n_points() == 24 * 144 * 33
    finally:
        sdb.close()
    assert all(take_parsed(root / f"{h}.raw") is None for h in hosts)


def test_a_pass_over_the_table_keeps_its_newest_files(tmp_path, monkeypatch):
    """A pass with more text than the table holds: the oldest entries
    make room, so the load reuses the pass's last files — here 10 of
    24 — and parses the other 14 again."""
    root = tmp_path / "rack"
    hosts = write_rack(root, 24)
    sizes = [len((root / f"{h}.raw").read_text()) for h in hosts]
    monkeypatch.setattr(rawfile, "_PARSED_CHARS", sum(sizes[-10:]) + 1)
    assert sum(sizes[-11:]) > rawfile._PARSED_CHARS
    before = parses()
    etl(root, 24)
    assert list(rawfile._parsed.entries) == [
        str(root / f"{h}.raw") for h in hosts[-10:]]
    sdb, n = load(root, 3, 0)
    try:
        assert n == 14 and parses() - before == 24 + 14
    finally:
        sdb.close()
    assert rawfile._parsed.chars == sum(
        len(text) for text, _ in rawfile._parsed.entries.values())


def test_a_file_longer_than_the_table_is_not_kept(tmp_path, monkeypatch):
    text = fleet_host_day(records=4)
    monkeypatch.setattr(rawfile, "_PARSED_CHARS", 2 * len(text))
    path = tmp_path / "longer.raw"
    path.write_text(fleet_host_day(records=12))
    file_parsed(path, path.read_text(), BlockParser().parse_path(path))
    assert take_parsed(path) is None


def test_a_block_with_a_ledger_entry_is_refused_by_the_loader(tmp_path):
    """``ingest_file`` writes no block the text path would refuse: the
    same error, nothing written."""
    text = fleet_host_day(records=4).replace("\nmdc ", "\nmdc x ", 1)
    block = BlockParser(on_error="quarantine").parse_text(text)
    assert block.errors
    with pytest.raises(ValueError) as from_text:
        ingest_file(TimeSeriesDB(), "h", text)
    db = TimeSeriesDB()
    with pytest.raises(ValueError) as from_block:
        ingest_file(db, "h", block)
    assert str(from_block.value) == str(from_text.value)
    assert db.n_points() == 0
