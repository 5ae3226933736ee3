"""A group's missing series are registered in one step, exactly as the
series-by-series loop it replaced would have registered them.

The oracle is the same store with ``_register`` done column by column
through ``_get_series``.  After every step of a random sequence of
group writes — new groups, groups that partly exist after a layout
change, groups written again after a prune deleted some of their series
(a generation bump), one-series groups and rollup groups derived from
another group — both stores must hold the same series in the same
insertion order, the same metric key sets and the same tag index, down
to the order its tags and values were first met, and the same points.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.tsdb import TimeSeriesDB
from tests.test_stream.reference import store_dump

#: two hosts' four events, plus a series whose tag dict lists its tags
#: in another order and carries one more
TAGS = [{"host": h, "event": e} for h in ("n1", "n2") for e in "abcd"] + [
    {"event": "a", "device": 0, "host": "n3"},
]


class PerSeriesTSDB(TimeSeriesDB):
    """The store registering a group's missing series one at a time."""

    def _register(self, group, members, fresh):
        for j in fresh:
            members[j] = self._get_series(group.keys[j], group.tag_sets[j])


def layout(db):
    return (
        list(db._series),
        [(m, set(keys)) for m, keys in db._by_metric.items()],
        [
            (tag, [(value, set(keys)) for value, keys in by_value.items()])
            for tag, by_value in db._index.items()
        ],
    )


columns = st.lists(
    st.integers(0, len(TAGS) - 1), min_size=1, max_size=len(TAGS), unique=True
)
steps = st.lists(st.one_of(
    st.tuples(st.just("group"), columns),
    st.tuples(st.just("derive"), st.integers(0, 99)),
    st.tuples(st.just("write"), st.integers(0, 99)),
    st.tuples(st.just("put"), st.integers(0, len(TAGS) - 1)),
    st.tuples(st.just("prune"), st.integers(0, 6)),
), max_size=30)


class Run:
    """One store and its group handles, driven step by step."""

    def __init__(self, db):
        self.db = db
        self.groups = [db.group("m", TAGS)]
        self.now = 0

    def step(self, kind, arg):
        db = self.db
        if kind == "group":
            self.groups.append(db.group("m", [TAGS[j] for j in arg]))
        elif kind == "derive":
            base = self.groups[arg % len(self.groups)]
            self.groups.append(db.group(base.metric + ".avg3600s", base))
        elif kind == "write":
            group = self.groups[arg % len(self.groups)]
            self.now += 10
            row = np.arange(len(group), dtype=np.float64)[None, :] + self.now
            db.put_many(group.metric, group, [self.now], row)
        elif kind == "put":
            self.now += 10
            db.put("m", TAGS[arg], self.now, -1.0)
        else:
            db.prune(self.now - 10 * arg)


@settings(max_examples=150, deadline=None)
@given(script=steps)
def test_registration_equals_the_per_series_loop(script):
    runs = Run(TimeSeriesDB(chunk_size=4)), Run(PerSeriesTSDB(chunk_size=4))
    for kind, arg in script + [("write", 0)]:
        for run in runs:
            run.step(kind, arg)
        got, want = (run.db for run in runs)
        assert layout(got) == layout(want), (kind, arg)
        assert got._generation == want._generation
    assert store_dump(got) == store_dump(want)
    for key, s in got._series.items():
        w = want._series[key]
        assert (s._ordered, s._max_ts) == (w._ordered, w._max_ts), key


def test_each_kind_of_group_registers_as_the_loop_would():
    """The cases the property draws from, each spelled out once."""
    runs = Run(TimeSeriesDB()), Run(PerSeriesTSDB())
    script = [
        ("write", 0),              # a new group: every series at once
        ("group", [3, 4, 8]),      # a one-host subset, then ...
        ("write", 1),
        ("group", [1, 0, 8]),      # ... a layout change: partly there
        ("write", 2),
        ("group", [5]),            # a one-series group
        ("write", 3),
        ("derive", 0),             # the rollup layout of the first
        ("write", 4),
        ("put", 6),
        ("prune", 2),              # deletes 7 of the first group's 9
        ("write", 0),              # the generation moved: re-register
        ("derive", 2),             # every series of it exists already
        ("write", 5),
    ]
    for kind, arg in script:
        for run in runs:
            run.step(kind, arg)
            if (kind, arg) == ("prune", 2):
                assert run.db.n_series() == 2 + len(TAGS)
        assert layout(runs[0].db) == layout(runs[1].db), (kind, arg)
    assert store_dump(runs[0].db) == store_dump(runs[1].db)
    assert runs[0].db.n_series() == 2 * len(TAGS)


def test_a_derived_group_reuses_its_source_layout():
    db = TimeSeriesDB()
    raw = db.group("m", TAGS)
    rollup = db.group("m.avg3600s", raw)
    assert rollup.tag_sets is raw.tag_sets
    assert [key for _, key in rollup.keys] == [key for _, key in raw.keys]
    assert all(a[1] is b[1] for a, b in zip(rollup.keys, raw.keys))
    assert {m for m, _ in rollup.keys} == {"m.avg3600s"}
    db.put_many("m", raw, [0], np.ones((1, len(TAGS))))
    db.put_many("m.avg3600s", rollup, [0], np.ones((1, len(TAGS))))
    # the series share the group's tag dicts, raw and rollup alike
    for j, tags in enumerate(raw.tag_sets):
        assert db._series[raw.keys[j]].tags is tags
        assert db._series[rollup.keys[j]].tags is tags
    # what the tag index gains was worked out once, for the layout
    assert rollup._layout is raw and raw._postings is not None
    assert rollup.postings(range(len(TAGS))) is raw._postings
