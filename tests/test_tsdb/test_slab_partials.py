"""The slab pre-aggregate kernel against the frozen one-row partial.

:func:`repro.tsdb.chunks.preaggregate` reduces ``(k, n)`` rows at once:
it seals a head block's pre-aggregates and gives ``window_stats`` its
head partials, one call per (head block, lower edge), and its decoded
edge-slice partials (``k = 1``).  Two properties pin it:

* row for row, its numbers are bit for bit what the frozen one-row
  partial (``tests/test_tsdb/reference.py::part_stats``) returns on
  that row alone — rows holding NaN, all-NaN rows, ±0.0 and ±inf;
* ``window_stats`` is byte for byte the frozen per-series body
  (``window_stats_reference``) on stores whose head blocks are partly
  sealed (columns with different lower edges), for windows that cut
  the head, on the chunked store and on the list-backed one.

The sharded store's side is in ``tests/test_shard/test_window_partials.py``.
"""

import struct
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import TimeSeriesDB, window_stats
from repro.tsdb.chunks import preaggregate
from tests.test_tsdb.reference import (
    ListBackedTSDB, part_stats, stats_bytes, window_stats_reference,
)

SPECIALS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    1e308, -1e308, 5e-324, -5e-324, 1.5, -2.75,
]
#: NaN with a payload and the sign bit set
PAYLOAD_NAN = float(
    np.array([0xFFF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]
)

value_st = st.one_of(
    st.sampled_from(SPECIALS + [PAYLOAD_NAN]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


def _key(x):
    return struct.pack("<d", x) if type(x) is float else repr(x)


@given(st.data(), st.integers(1, 6), st.integers(1, 70))
@settings(max_examples=150, deadline=None)
def test_preaggregate_rows_equal_frozen_part_stats(data, k, n):
    """Each row of the kernel is the frozen partial of that row."""
    v = np.array(
        data.draw(st.lists(value_st, min_size=k * n, max_size=k * n)),
        dtype=np.float64,
    ).reshape(k, n)
    for r in data.draw(st.lists(st.integers(0, k - 1), max_size=k)):
        v[r] = np.nan  # all-NaN rows
    zeros = data.draw(st.lists(st.integers(0, k - 1), max_size=k))
    for r in zeros:  # rows of signed zeros only: extrema pick a sign
        v[r] = np.where(np.arange(n) % 2, 0.0, -0.0)
    t = np.arange(n, dtype=np.int64) * 600
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = list(zip(*preaggregate(v)))
        refs = [part_stats(t, v[r]) for r in range(k)]
    assert len(rows) == k
    for r, (got, ref) in enumerate(zip(rows, refs)):
        assert [_key(x) for x in got] == [_key(x) for x in ref[1:7]], r


def _partly_sealed(db, solo, rows, values, late):
    """One group of ``len(solo)`` series: column 0 first gets ``solo``
    points of its own, then the group writes ``rows`` rows, so the
    group's block starts column 0 at row 0 and every other column at
    row ``solo`` — they reach the store's ``chunk_size`` open points,
    and seal, at different rows.  ``late`` rewrites one timestamp of the last
    column, putting it out of order."""
    k = len(values[0])
    tags = [{"host": "h", "event": f"e{j}"} for j in range(k)]
    vals = iter(values)
    t = np.arange(solo + rows, dtype=np.int64) * 600
    if solo:
        db.put_many(
            "m", tags[0], t[:solo], [next(vals)[0] for _ in range(solo)])
    if rows:
        group = db.group("m", tags)
        db.put_many(
            "m", group, t[solo:], np.array([next(vals) for _ in range(rows)]))
    if late and len(t):
        db.put("m", tags[-1], int(t[0]), next(vals)[-1])


@given(
    st.integers(3, 9),                      # chunk size
    st.integers(2, 5),                      # series
    st.integers(0, 12),                     # column 0's own points
    st.integers(0, 30),                     # group rows
    st.booleans(),                          # one late write
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_window_stats_equals_frozen_body(
    chunk_size, k, solo, rows, late, data
):
    """Partly sealed heads, any window: byte for byte the old body."""
    values = data.draw(st.lists(
        st.lists(value_st, min_size=k, max_size=k),
        min_size=solo + rows + 1, max_size=solo + rows + 1,
    ))
    end = 600 * (solo + rows) + 1
    a = data.draw(st.integers(-600, end))
    b = data.draw(st.integers(-600, end))
    windows = [None, (min(a, b), max(a, b) + 1)]
    stores = [TimeSeriesDB(chunk_size=chunk_size), ListBackedTSDB()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for db in stores:
            _partly_sealed(db, solo, rows, values, late)
        for db in stores:
            for window in windows:
                got = stats_bytes(window_stats(db, "m", time_range=window))
                for use_preagg in (True, False):
                    want = window_stats_reference(
                        db, "m", time_range=window, use_preagg=use_preagg)
                    assert got == stats_bytes(want), (
                        type(db).__name__, window, use_preagg)


def test_head_block_with_two_lower_edges():
    """A directed case of the property: the block's columns start at
    two rows, column 0 has sealed once and the others not yet, and the
    window cuts both the sealed chunk and the head."""
    db = TimeSeriesDB(chunk_size=8)
    values = [[float(i) + 0.5 * j for j in range(4)] for i in range(11)]
    values[7][2] = float("nan")
    values[9] = [-0.0, 0.0, float("inf"), float("nan")]
    _partly_sealed(db, 5, 6, values, late=False)
    series = db.select("m")
    block = series[1]._block
    assert sorted(set(block.lo.tolist())) == [5, 8]
    assert [len(s.chunks) for s in series] == [1, 0, 0, 0]
    assert all(s._ordered for s in series)
    for window in (None, (3 * 600, 9 * 600 + 1), (9 * 600, 11 * 600)):
        got = window_stats(db, "m", time_range=window)
        want = window_stats_reference(db, "m", time_range=window)
        assert stats_bytes(got) == stats_bytes(want), window
        assert sum(st.points for st in got) > 0
