"""Model-based suite for the store's write side (ROADMAP item 5a).

A hypothesis state machine drives one :class:`TimeSeriesDB` (tiny
``chunk_size``) through every way points get in and out — ``put``,
one-series and group ``put_many``, groups that share series, a superset
group (a layout change), a raw file loaded by ``ingest_file`` over the
same series, late and duplicate timestamps, non-finite values,
``seal_heads``, ``prune`` with and without a metric, writes through
handles a prune left stale, windowed scans through a two-entry buffer
cache — and after every step compares it with two independent
statements of what the store should hold:

* the frozen list engine (:class:`~tests.test_tsdb.reference.
  ListBackedTSDB`): every series' sorted columns, ``query`` and
  ``window_stats`` — over fixed windows too, so a result the store's
  query cache kept across a write that missed its window is checked
  at every step;
* :class:`ModelSeries`, the per-series head the row blocks replaced
  (append to a list, freeze the oldest ``chunk_size`` points, rebuild
  the list to prune): chunk boundaries, the raw head in arrival order,
  ``_ordered`` / ``_max_ts``, point and byte counts.

One more invariant is about the store alone: its registry of live head
blocks is exactly the set of blocks some series sits in.  The direct
tests below pin properties of the block heads that a comparison of
stores cannot see.
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro import obs
from repro.tsdb import Chunk, TimeSeriesDB, window_stats
from repro.tsdb.cache import BufferCache
from repro.tsdb.query import query
from repro.tsdb.store import (
    _EMPTY, _HeadBlock, _Series, _tagkey, ingest_file,
)
from tests.test_stream.reference import store_dump
from tests.test_tsdb.reference import ListBackedTSDB, baseline_query

CHUNK = 4
#: the tag scheme of a raw file, so ``ingest_file`` writes these too
TAGS = [
    {"host": "n1", "type": "t", "device": "d", "event": e} for e in "abcde"
]
#: column sets of the group handles: "abc" and "bcd" share two series,
#: "abcde" is the layout both grow into, "c" is a one-series group
GROUPS = {"abc": [0, 1, 2], "bcd": [1, 2, 3], "abcde": [0, 1, 2, 3, 4],
          "c": [2]}

#: fixed windows whose results the store's query cache keeps across
#: writes: one the writes soon leave behind, one they cross, one they
#: reach only late in a run
WINDOWS = ((0, 14), (11, 30), (60, 1 << 40))

#: sums of these are exact in any association, so ``window_stats``
#: agrees bit for bit across engines; the non-finite ones ride along
values = st.one_of(
    st.integers(-40, 40).map(lambda i: i / 2),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
#: mostly forward, sometimes late or a duplicate
steps = st.integers(-3, 6)


def bits(v) -> list:
    return np.asarray(v, dtype=np.float64).view(np.uint64).tolist()


def sort_keep_last(points):
    """Stable sort by time, the last-arrived value per timestamp."""
    out = {}
    for t, v in sorted(points, key=lambda p: p[0]):
        out[t] = v
    return sorted(out.items())


class ModelSeries:
    """One series as the per-series list head kept it."""

    def __init__(self):
        self.chunks, self.head = [], []
        self.ordered, self.max_ts = True, None

    def write(self, points):
        for t, v in points:
            if self.max_ts is not None and t <= self.max_ts:
                self.ordered = False
            else:
                self.max_ts = t
            self.head.append((t, v))
        while len(self.head) >= CHUNK:
            self.chunks.append(sort_keep_last(self.head[:CHUNK]))
            del self.head[:CHUNK]

    def seal(self):
        if self.head:
            self.chunks.append(sort_keep_last(self.head))
            self.head = []

    def prune(self, before) -> int:
        n = len(self)
        self.chunks = [
            kept for c in self.chunks
            if (kept := [p for p in c if p[0] >= before])
        ]
        self.head = [p for p in self.head if p[0] >= before]
        return n - len(self)

    def points(self):
        flat = [p for c in self.chunks for p in c] + self.head
        return flat if self.ordered else sort_keep_last(flat)

    def oldest(self):
        return min(p[0] for c in self.chunks + [self.head] for p in c)

    def nbytes(self):
        return 16 * len(self.head) + sum(
            Chunk.seal([t for t, _ in c], [v for _, v in c]).nbytes
            for c in self.chunks
        )

    def __len__(self):
        return sum(map(len, self.chunks)) + len(self.head)


class StoreMachine(RuleBasedStateMachine):
    @initialize()
    def stores(self):
        # a decoded-buffer cache of two entries: every windowed scan
        # below reads chunks the one before it evicted
        self.db = TimeSeriesDB(
            chunk_size=CHUNK, buffer_cache=BufferCache(maxsize=2))
        self.oracle = ListBackedTSDB()
        self.model = {}
        #: handles live for the whole run, so they go stale across prunes
        self.handles = {
            name: (self.db.group("m", [TAGS[j] for j in cols]),
                   self.oracle.group("m", [TAGS[j] for j in cols]))
            for name, cols in GROUPS.items()
        }
        self.now = 10

    def _ts(self, step):
        ts = max(0, self.now + step)
        self.now = max(self.now, ts)
        return ts

    def _model_write(self, metric, tags, points):
        key = (metric, _tagkey(tags))
        self.model.setdefault(key, ModelSeries()).write(points)

    @rule(metric=st.sampled_from(["m", "x"]), j=st.integers(0, 4),
          step=steps, v=values)
    def put(self, metric, j, step, v):
        ts = self._ts(step)
        for store in (self.db, self.oracle):
            store.put(metric, TAGS[j], ts, v)
        self._model_write(metric, TAGS[j], [(ts, v)])

    @rule(metric=st.sampled_from(["m", "x"]), j=st.integers(0, 4),
          col=st.lists(st.tuples(steps, values), min_size=1, max_size=9))
    def put_column(self, metric, j, col):
        points = [(self._ts(step), v) for step, v in col]
        t, v = zip(*points)
        for store in (self.db, self.oracle):
            assert store.put_many(metric, TAGS[j], t, v) == len(t)
        self._model_write(metric, TAGS[j], points)

    @rule(data=st.data(), name=st.sampled_from(sorted(GROUPS)),
          n=st.integers(1, 6))
    def put_rows(self, data, name, n):
        cols = GROUPS[name]
        t = [self._ts(data.draw(steps)) for _ in range(n)]
        block = [[data.draw(values) for _ in cols] for _ in range(n)]
        for store, handle in zip((self.db, self.oracle), self.handles[name]):
            assert store.put_many("m", handle, t, block) == n * len(cols)
        for i, j in enumerate(cols):
            self._model_write(
                "m", TAGS[j], [(ts, row[i]) for ts, row in zip(t, block)])

    @rule(data=st.data(), n=st.integers(1, 6), late=st.integers(0, 6))
    def ingest_raw_file(self, data, n, late):
        """A raw file of ``n`` records: device ``d`` — the five ``TAGS``
        series, whatever blocks they sit in by now — in every record,
        device ``d2`` from record ``late`` on (a block of its own,
        unless ``late`` is 0: then the file is regular)."""
        lines = ["$hostname n1", "!t a b c d e"]
        columns = {}
        for i in range(n):
            ts = self._ts(data.draw(steps))
            lines.append(f"{ts} -")
            for device in ("d", "d2") if i >= late else ("d",):
                row = [data.draw(values) for _ in "abcde"]
                lines.append(f"t {device} " + " ".join(map(repr, row)))
                for event, v in zip("abcde", row):
                    columns.setdefault((device, event), []).append((ts, v))
        text = "\n".join(lines) + "\n"
        points = 5 * (n + max(0, n - late))
        for store in (self.db, self.oracle):
            assert ingest_file(store, "n1", text, metric="m") == (points, n)
        for (device, event), column in columns.items():
            self._model_write(
                "m", {**TAGS[0], "device": device, "event": event}, column)

    @rule()
    def seal_heads(self):
        self.db.seal_heads()
        for s in self.model.values():
            s.seal()

    @rule(metric=st.sampled_from([None, "m", "x", "nope"]),
          back=st.integers(-4, 25))
    def prune(self, metric, back):
        self._prune(self.now - back, metric)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def prune_a_series_away(self, data):
        """A horizon just past one series' newest point: it is deleted,
        and its metric's cached results with it."""
        key = data.draw(st.sampled_from(sorted(self.model)))
        self._prune(self.model[key].max_ts + 1, key[0])
        assert key not in self.db._series

    def _prune(self, before, metric):
        dropped = self.db.prune(before, metric)
        # the list engine counts a duplicate a seal already folded away
        self.oracle.prune(before, metric)
        want = 0
        for key in [k for k in self.model if metric in (None, k[0])]:
            want += self.model[key].prune(before)
            if not len(self.model[key]):
                del self.model[key]
        assert dropped == want

    @rule(back=st.integers(0, 30), width=st.integers(0, 30))
    def windowed_scan(self, back, width):
        """The scan plan proper, through whatever earlier reads left in
        the buffer cache, then through what this one filed."""
        window = (self.now - back, self.now - back + width)
        series = self.db.select("m")
        want = self.oracle.scan(self.oracle.select("m"), window)
        for _ in range(2):
            got = self.db.scan(series, window)
            assert [(t.tolist(), bits(v)) for t, v in got] == [
                (t.tolist(), bits(v)) for t, v in want], window
        assert len(self.db.buffer_cache) <= 2

    @invariant()
    def same_store(self):
        db = self.db
        assert set(db._series) == set(self.model)
        assert store_dump(db) == store_dump(self.oracle)
        assert db.metrics() == self.oracle.metrics()
        assert db.tag_values("event") == self.oracle.tag_values("event")
        for key, want in self.model.items():
            s = db._series[key]
            assert [(c.t_min, c.t_max, c.count) for c in s.chunks] == [
                (c[0][0], c[-1][0], len(c)) for c in want.chunks], key
            t, v = s.head()
            assert (t.tolist(), bits(v)) == (
                [p[0] for p in want.head], bits([p[1] for p in want.head]))
            assert (s._ordered, s._max_ts) == (want.ordered, want.max_ts), key
            t, v = s.arrays()
            assert (t.tolist(), bits(v)) == (
                [p[0] for p in want.points()],
                bits([p[1] for p in want.points()])), key
            # the low-water mark is a lower bound on what is held
            assert db._low[key[0]] <= want.oldest(), key
        assert set(db._low) == {key[0] for key in self.model}
        assert db.n_points() == sum(map(len, self.model.values()))
        assert db.storage_bytes() == sum(
            s.nbytes() for s in self.model.values())

    @invariant()
    def live_blocks_are_registered(self):
        """What a walk over every series would find, kept as it changes."""
        db = self.db
        assert set(db._blocks) == {
            s._block for s in db._series.values()} - {_EMPTY}

    @invariant()
    def same_answers(self):
        """Every answer equals the oracle's — the fixed windows' through
        results the query cache kept across the writes that missed
        them."""
        window = (self.now - 12, self.now - 1)
        for kw in ({}, {"group_by": ("event",), "aggregate": "max"},
                   {"time_range": window, "downsample": (4, "min")},
                   *({"time_range": w, "group_by": ("event",),
                      "aggregate": "sum"} for w in WINDOWS)):
            got = query(self.db, "m", **kw)
            want = baseline_query(self.oracle, "m", **kw)
            assert [
                (s.tags, s.times.tolist(), bits(s.values)) for s in got.series
            ] == [
                (s.tags, s.times.tolist(), bits(s.values)) for s in want.series
            ], kw
        for time_range in (None, window, *WINDOWS):
            got, want = (
                window_stats(store, "m", time_range=time_range)
                for store in (self.db, self.oracle)
            )
            assert [
                (s.tags, s.points, s.count, s.first_ts, s.last_ts,
                 bits([s.sum, s.min, s.max, s.first, s.last])) for s in got
            ] == [
                (s.tags, s.points, s.count, s.first_ts, s.last_ts,
                 bits([s.sum, s.min, s.max, s.first, s.last])) for s in want
            ], time_range


StoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
)
# sealing ±inf values warns while summing the chunk's pre-aggregate
TestStoreMachine = pytest.mark.filterwarnings("ignore::RuntimeWarning")(
    StoreMachine.TestCase
)


# -- what a comparison of stores cannot see -------------------------------------

def test_columns_read_before_a_change_are_never_rewritten():
    """A ``(t, v)`` a reader holds is bit-unchanged by what the writer
    does next: growth, a seal, both kinds of prune cut, a detach."""
    db = TimeSeriesDB(chunk_size=8)
    group = db.group("m", TAGS[:3])
    held = []

    def hold():
        for s in db.select("m"):
            for t, v in (s.head(), s.arrays()):
                held.append((t, v, t.tolist(), bits(v)))

    for i in range(5):                                   # growth: 4 → 8 rows
        db.put_many("m", group, [10 * i], [[i, i + .5, -i]])
        hold()
    db.put_many("m", group, [50, 60, 70, 80, 90], np.ones((5, 3)))  # seals 8
    hold()
    assert db.prune(85) == 3 * 9                         # ordered: edges move
    hold()
    db.put_many("m", group, [88, 87], np.zeros((2, 3)))  # late rows
    hold()
    assert db.prune(88) == 3                             # unordered: compaction
    hold()
    db.put("m", TAGS[1], 95, 9.0)                        # detaches a column
    db.put_many("m", group, [96], [[1.0, 2.0, 3.0]])
    hold()
    db.seal_heads()
    db.put_many("m", group, [97], [[1.0, 2.0, 3.0]])
    for t, v, t_was, v_was in held:
        assert (t.tolist(), bits(v)) == (t_was, v_was)
    assert [s.arrays()[0].tolist() for s in db.select("m")] == [
        [88, 90, 96, 97], [88, 90, 95, 96, 97], [88, 90, 96, 97]]


def test_prune_pass_that_cannot_drop_visits_no_series(monkeypatch):
    visits = []
    for cls, name in ((_Series, "prune_chunks"), (_HeadBlock, "cut")):
        real = getattr(cls, name)
        monkeypatch.setattr(
            cls, name,
            lambda self, before, real=real: (
                visits.append(type(self)), real(self, before))[1],
        )
    obs.reset()
    db, oracle = TimeSeriesDB(chunk_size=8), ListBackedTSDB()
    for store in (db, oracle):
        group = store.group("m", TAGS)
        for i in range(20):
            store.put_many("m", group, [100 + 10 * i], [[float(i)] * 5])
        store.put("x", TAGS[0], 5, 1.0)
    passes = obs.counter("repro_tsdb_prune_passes_total")

    # at or below the oldest point of the metric: exact, and no walk
    for before, metric in ((100, "m"), (-7, None), (10**9, "nope")):
        assert db.prune(before, metric) == oracle.prune(before, metric) == 0
    assert visits == []
    assert passes.value(outcome="skipped") == 4
    assert passes.value(outcome="walked") == 0

    epoch = db.epoch
    assert db.prune(155, "m") == oracle.prune(155, "m") == 5 * 6
    assert visits.count(_HeadBlock) == 1 and visits.count(_Series) == 5
    assert db.epoch == epoch + 1
    assert store_dump(db) == store_dump(oracle)
    # a pass that walked raised the mark: the same horizon again is free
    del visits[:]
    assert db.prune(155, "m") == 0 and visits == []
    # ... and a late write lowers it again
    db.put("m", TAGS[0], 120, 1.0)
    assert db.prune(155, "m") == 1
    assert passes.value(outcome="walked") == 2
    obs.reset()


def test_a_series_leaving_its_block_is_counted_once():
    obs.reset()
    db = TimeSeriesDB()
    group = db.group("m", TAGS[:3])
    db.put_many("m", group, [0], [[1.0, 2.0, 3.0]])
    detaches = obs.counter("repro_tsdb_head_detaches_total")
    assert detaches.total() == 0
    db.put("m", TAGS[0], 10, 4.0)
    db.put("m", TAGS[0], 20, 5.0)
    db.put_many("m", group, [30], [[6.0, 7.0, 8.0]])   # the tail loop
    assert detaches.total() == 1
    assert db.select("m", {"event": "a"})[0].arrays()[1].tolist() == [
        1.0, 4.0, 5.0, 6.0]
    # a superset group adopts the block: nobody lands on a tail loop
    wide = db.group("m", TAGS[1:])
    db.put_many("m", wide, [40], [[1.0] * 4])
    assert detaches.total() == 1 and wide._block.detached == []
    # a one-series group is that series' own block
    db.put_many("m", db.group("m", [TAGS[2]]), [50], [[9.0]])
    assert detaches.total() == 2 and wide._block.detached == [1]
    obs.reset()


def test_a_feed_that_never_seals_leaks_no_block():
    """The live-feed shape: a host whose layout keeps changing and no
    ``seal_heads`` ever.  Every change adopts the open rows into a new
    block; the one left without a column must leave the registry."""
    db, oracle = TimeSeriesDB(), ListBackedTSDB()
    for i in range(1000):
        tag_sets = TAGS[:3 + i % 2]
        for store in (db, oracle):
            store.put_many(
                "m", store.group("m", tag_sets), [10 * i],
                [[float(i)] * len(tag_sets)])
        assert len(db._blocks) <= 2
        assert set(db._blocks) == {s._block for s in db._series.values()}
    assert store_dump(db) == store_dump(oracle)
    assert db.n_points() == 3 * 1000 + 500


def test_seal_heads_finds_open_blocks_without_walking_the_series():
    class NoWalk(dict):
        def _refuse(self, *args):
            raise AssertionError("seal_heads walked the series table")

        __iter__ = keys = values = items = _refuse

    db = TimeSeriesDB(chunk_size=8)
    db.put_many("m", db.group("m", TAGS[:3]), [0, 10], np.ones((2, 3)))
    db.put("m", TAGS[4], 5, 2.0)
    series = db._series
    db._series = NoWalk(series)
    assert len(db._blocks) == 2
    generation = db._generation
    db.seal_heads()                                  # two open blocks
    assert db._blocks == {} and db._generation == generation + 1
    db.seal_heads()                                  # nothing open
    assert db._generation == generation + 1
    db._series = series
    assert db.n_chunks() == 4 and db.n_points() == 7
    assert all(s._block is _EMPTY for s in series.values())
