"""TSDB queries: grouping, aggregation, rate, downsampling, correlation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import TimeSeriesDB, correlate
from repro.tsdb.query import ResultSeries, _downsample, _to_rate, query

from tests.test_tsdb.reference import _to_rate_ref, downsample_1d


def fill(db, host, values, metric="m", t0=0, step=600, **tags):
    tags = {"host": host, **tags}
    for i, v in enumerate(values):
        db.put(metric, tags, t0 + i * step, v)


def test_group_by_host():
    db = TimeSeriesDB()
    fill(db, "n1", [1, 2, 3])
    fill(db, "n2", [10, 20, 30])
    res = query(db, "m", group_by=("host",))
    assert len(res) == 2
    assert list(res.by_tags(host="n2").values) == [10, 20, 30]


def test_aggregate_sum_across_hosts():
    db = TimeSeriesDB()
    fill(db, "n1", [1, 2, 3])
    fill(db, "n2", [10, 20, 30])
    res = query(db, "m", aggregate="sum")
    assert len(res) == 1
    assert list(res.series[0].values) == [11, 22, 33]


@pytest.mark.parametrize("agg,expected", [
    ("avg", [5.5, 11.0, 16.5]),
    ("max", [10, 20, 30]),
    ("min", [1, 2, 3]),
])
def test_other_aggregators(agg, expected):
    db = TimeSeriesDB()
    fill(db, "n1", [1, 2, 3])
    fill(db, "n2", [10, 20, 30])
    res = query(db, "m", aggregate=agg)
    assert list(res.series[0].values) == expected


def test_unknown_aggregator_rejected():
    db = TimeSeriesDB()
    with pytest.raises(ValueError):
        query(db, "m", aggregate="median")


def test_misaligned_series_nan_skipped():
    db = TimeSeriesDB()
    fill(db, "n1", [1, 2, 3], t0=0)
    fill(db, "n2", [10], t0=600)
    res = query(db, "m", aggregate="sum")
    assert list(res.series[0].values) == [1, 12, 3]


def test_rate_conversion():
    db = TimeSeriesDB()
    fill(db, "n1", [0, 600, 1800])  # counter
    res = query(db, "m", rate=True)
    assert list(res.series[0].values) == [1.0, 2.0]
    assert list(res.series[0].times) == [600, 1200]


def test_rate_corrects_counter_resets():
    db = TimeSeriesDB()
    fill(db, "n1", [100, 200, 5, 65])  # reset at third sample
    res = query(db, "m", rate=True)
    # a reset is corrected to the post-reset value, not dropped: the
    # series keeps every interval, shared policy with the batch
    # pipeline (repro.hardware.counters.correct_rollover)
    assert list(res.series[0].times) == [600, 1200, 1800]
    assert list(res.series[0].values) == pytest.approx(
        [100 / 600, 5 / 600, 60 / 600]
    )


def test_rate_corrects_mid_series_wrap():
    width = 2**32
    db = TimeSeriesDB()
    fill(db, "n1", [width - 300, width - 100, 100])  # wraps past 2**32
    res = query(db, "m", rate=True, counter_width=float(width))
    assert list(res.series[0].times) == [600, 1200]
    assert list(res.series[0].values) == pytest.approx(
        [200 / 600, 200 / 600]
    )


def test_rate_wrap_policy_matches_batch_pipeline():
    import numpy as np

    from repro.hardware.counters import correct_rollover

    width = 2**32
    values = np.array([width - 1000.0, 500.0, 600.0, 50.0])
    db = TimeSeriesDB()
    fill(db, "n1", list(values))
    res = query(db, "m", rate=True, counter_width=float(width))
    expected = correct_rollover(
        np.diff(values), values[1:], float(width)
    ) / 600.0
    assert list(res.series[0].values) == pytest.approx(list(expected))


def test_downsample_avg():
    db = TimeSeriesDB()
    fill(db, "n1", [1, 3, 5, 7], step=300)
    res = query(db, "m", downsample=(600, "avg"))
    assert list(res.series[0].values) == [2.0, 6.0]
    assert list(res.series[0].times) == [0, 600]


def test_time_range_filter():
    db = TimeSeriesDB()
    fill(db, "n1", [1, 2, 3, 4])
    res = query(db, "m", time_range=(600, 1800))
    assert list(res.series[0].values) == [2, 3]


def test_tag_filter_with_group_by():
    db = TimeSeriesDB()
    fill(db, "n1", [1, 2], type="mdc", event="reqs")
    fill(db, "n1", [5, 6], type="mdc", event="wait_us")
    fill(db, "n2", [9, 9], type="mdc", event="reqs")
    res = query(db, "m", tags={"event": "reqs"}, group_by=("host",))
    assert len(res) == 2
    assert list(res.by_tags(host="n1").values) == [1, 2]


def test_empty_selection():
    db = TimeSeriesDB()
    res = query(db, "nothing")
    assert len(res) == 0
    assert res.by_tags(host="x") is None


def test_correlate_perfect_and_anti():
    a = ResultSeries({}, np.arange(5) * 600, np.array([1.0, 2, 3, 4, 5]))
    b = ResultSeries({}, np.arange(5) * 600, np.array([2.0, 4, 6, 8, 10]))
    c = ResultSeries({}, np.arange(5) * 600, np.array([5.0, 4, 3, 2, 1]))
    assert correlate(a, b) == pytest.approx(1.0)
    assert correlate(a, c) == pytest.approx(-1.0)


def test_correlate_insufficient_overlap_nan():
    a = ResultSeries({}, np.array([0, 600]), np.array([1.0, 2.0]))
    b = ResultSeries({}, np.array([0, 600]), np.array([1.0, 2.0]))
    assert np.isnan(correlate(a, b))


def test_correlate_constant_series_nan():
    t = np.arange(5) * 600
    a = ResultSeries({}, t, np.ones(5))
    b = ResultSeries({}, t, np.arange(5, dtype=float))
    assert np.isnan(correlate(a, b))


@given(
    st.lists(st.floats(0, 1e6), min_size=4, max_size=20),
)
@settings(max_examples=30)
def test_sum_of_singleton_group_is_identity(values):
    db = TimeSeriesDB()
    fill(db, "n1", values)
    res = query(db, "m", aggregate="sum")
    assert np.allclose(res.series[0].values, values)


_EDGE_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
    st.floats(0.0, 2.0**64),
)


@st.composite
def _one_row(draw):
    """A sorted, unique time column (a union grid) and its values:
    empty and one-point series included."""
    n = draw(st.integers(0, 24))
    times = draw(st.lists(
        st.integers(0, 100_000), min_size=n, max_size=n, unique=True
    ))
    values = draw(st.lists(_EDGE_VALUES, min_size=n, max_size=n))
    return (np.asarray(sorted(times), dtype=np.int64),
            np.asarray(values, dtype=np.float64))


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


@given(
    row=_one_row(),
    width=st.sampled_from([2.0**32, 2.0**48, 2.0**64]),
    interval=st.sampled_from([1, 7, 600, 3600]),
    agg=st.sampled_from(["sum", "avg", "max", "min"]),
)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore:All-NaN slice:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
def test_matrix_kernels_on_one_row_equal_the_one_row_kernels(
    row, width, interval, agg
):
    """The union-grid path runs the matrix kernels on ``v[None]``; on
    one row they must equal the one-row kernels they replaced, byte
    for byte."""
    t, v = row
    with np.errstate(all="ignore"):
        want_t, want_v = _to_rate_ref(t, v, width)
        got_t, got_m = _to_rate(t, v[None], width)
    assert _same_bytes(got_t, want_t) and _same_bytes(got_m[0], want_v)
    for tt, vv in ((t, v), (want_t, want_v)):
        want_t2, want_v2 = downsample_1d(tt, vv, interval, agg)
        got_t2, got_m2 = _downsample(tt, vv[None], interval, agg)
        assert _same_bytes(got_t2, want_t2)
        assert _same_bytes(got_m2[0], want_v2)


def test_method_attached_to_class():
    db = TimeSeriesDB()
    fill(db, "n1", [1, 2])
    assert len(db.query("m")) == 1
