"""The op table is the whole shard boundary — and all of it is tested.

``repro.shard.worker.OPS`` is enumerated *itself*: every row runs
through both backends (in-process ``LocalShards`` and a one-worker
``ShardWorkerPool``) holding the same corpus and must answer the same,
so a row added later cannot ship without having crossed the pipe.  A
name that is not a row is refused whatever attribute it spells, and
the wire cost of a fixed ``ShardedTSDB`` script is pinned frame for
frame.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.rawfile import BlockParser
from repro.shard import ShardedTSDB, ShardWorkerPool, StoreSource
from repro.shard.worker import OPS, LocalShards
from repro.tsdb.query import SeriesStats
from repro.tsdb.store import _tagkey

from .conftest import CHUNK_SIZE, TYPES

SHARDS = (0, 1)
T = np.arange(100, dtype=np.int64) * 10
#: shard → the series written there before any row runs
CORPUS = {
    0: [{"host": "a", "event": "x"}, {"host": "a", "event": "y"}],
    1: [{"host": "b", "event": "x"}],
}


def _values(tags):
    return np.sqrt(T + len(tags["host"]) + ord(tags["event"]))


def _slim(source, host):
    with source.open(host) as fh:
        return BlockParser().parse_text(fh.read()).slim()


#: op → ``(shard, source, hosts) -> args``; one entry per row of OPS
CASES = {
    "put": lambda s, src, hosts: ("stats", CORPUS[s][0], 5000 + s, 1.5),
    "put_many": lambda s, src, hosts: (
        "stats", {"host": f"new{s}"}, T[:7], np.cos(T[:7] + s)),
    # the first host as a block the coordinator parsed, the other read
    # and parsed by the shard
    "ingest": lambda s, src, hosts: (
        src, hosts[s::2], TYPES, "stats", {hosts[s]: _slim(src, hosts[s])}),
    "prune": lambda s, src, hosts: (300 + 10 * s, "stats"),
    "select": lambda s, src, hosts: ("stats", {"event": "x"}),
    "scan": lambda s, src, hosts: (
        "stats", [_tagkey(t) for t in reversed(CORPUS[s])], (40, 900)),
    "window_stats": lambda s, src, hosts: ("stats", None, (15, 555)),
    "stats": lambda s, src, hosts: (),
    "drop_read_caches": lambda s, src, hosts: (),
    "seal_heads": lambda s, src, hosts: (),
}


def norm(x):
    """A reply as plain comparable values — columns by their bytes."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, SeriesStats):
        return repr(x)
    if isinstance(x, dict):  # an ingest report's wall clock is not data
        return {k: norm(v) for k, v in x.items() if k != "seconds"}
    if isinstance(x, (list, tuple)):
        return [norm(v) for v in x]
    return x


def contents(backend):
    """Every point of every series, read back through the table."""
    tags = backend.call("select", {s: ("stats", None) for s in SHARDS})
    cols = backend.call("scan", {
        s: ("stats", [_tagkey(t) for t in tags[s]], None) for s in SHARDS
    })
    return norm([tags, cols, backend.call("stats", {s: () for s in SHARDS})])


@pytest.fixture(scope="module")
def backends():
    """The same corpus behind both backends.  Rows mutate it, but every
    test applies its row to both, so they stay comparable in any order."""
    local = LocalShards(SHARDS, CHUNK_SIZE)
    pool = ShardWorkerPool(len(SHARDS), 1, chunk_size=CHUNK_SIZE)
    for backend in (local, pool):
        for shard, series in CORPUS.items():
            for tags in series:
                backend.call(
                    "put_many", {shard: ("stats", tags, T, _values(tags))})
    yield local, pool
    pool.close()


def test_every_row_has_a_case():
    assert sorted(CASES) == sorted(OPS)


@pytest.mark.parametrize("op", sorted(OPS))
def test_row_answers_the_same_through_both_backends(op, backends, fleet_day):
    local, pool = backends
    source = StoreSource(str(fleet_day.store.root))
    hosts = source.hosts()[:4]
    args = {s: CASES[op](s, source, hosts) for s in SHARDS}
    want = local.call(op, args)
    got = pool.call(op, args)
    assert sorted(got) == sorted(want) == list(SHARDS)
    assert norm(got) == norm(want)
    assert contents(pool) == contents(local)


@pytest.mark.parametrize("name", ["no_such_op", "stores", "__class__"])
def test_a_name_that_is_not_a_row_is_refused(name, backends):
    """The worker looks a command up in OPS, never on an object: an
    attribute of the shard holder is as unknown as a typo — an ``err``
    reply, the worker alive after it."""
    local, pool = backends
    with pytest.raises(ValueError, match="unknown shard op"):
        local.call(name, {0: ()})
    with pytest.raises(RuntimeError, match="unknown shard op"):
        pool.call(name, {0: ()})
    assert pool._stale == [0]
    assert contents(pool) == contents(local)


def test_wire_cost_of_a_fixed_script_is_pinned(fleet_day):
    """One frame out and one back per worker per command, as at the
    commit before the op table (7275e47): ingest, window_stats, the
    query's select and scan, seal_heads."""
    frames = obs.counter("repro_shard_rpc_frames_total", "")
    source = StoreSource(str(fleet_day.store.root))
    db = ShardedTSDB(shards=4, workers=1, chunk_size=CHUNK_SIZE)
    try:
        f0, tx0 = frames.total(), frames.value(dir="tx")
        db.ingest(source, hosts=source.hosts()[:2], types=TYPES)
        assert len(db.window_stats("stats")) == 24
        assert len(db.query("stats", group_by=("host",))) == 2
        db.seal_heads()
        assert frames.total() - f0 == 10
        assert frames.value(dir="tx") - tx0 == 5
    finally:
        db.close()
