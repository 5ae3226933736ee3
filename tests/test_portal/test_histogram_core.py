"""The column core of the Fig. 4 quartet against one ``np.histogram``
per panel (``reference.job_histograms``), bit for bit."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.portal.histograms import (
    DEFAULT_PANELS,
    column_histograms,
    job_histograms,
    render_ascii,
)

from tests.test_portal import reference

_FIELDS = [f for f, _ in DEFAULT_PANELS]
_FINITE = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300,
                     3599.0, 3600.0, 7200.5)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6),
    st.integers(-2**53, 2**53),
    st.none(),
)


@st.composite
def _columns(draw):
    """Four columns of one length: mixed values, or one value repeated;
    now and then a NaN or an infinity in one of them."""
    n = draw(st.integers(1, 24))
    columns = []
    for _ in _FIELDS:
        if draw(st.booleans()):
            columns.append([draw(_FINITE)] * n)
        else:
            columns.append(draw(st.lists(_FINITE, min_size=n, max_size=n)))
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from((float("nan"), float("inf"),
                                    float("-inf"))))
        columns[draw(st.integers(0, 3))][draw(st.integers(0, n - 1))] = bad
    return columns


def _records(columns):
    return [SimpleNamespace(**dict(zip(_FIELDS, values)))
            for values in zip(*columns)]


def _outcome(fn, *args):
    """``(result, exception, warning categories)`` of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out, exc = fn(*args), None
        except Exception as e:  # noqa: BLE001 — the exception is compared
            out, exc = None, (type(e), str(e))
    return out, exc, {w.category for w in caught}


def _same(got, want):
    assert list(got) == list(want)
    for field, h in want.items():
        g = got[field]
        assert (g.field, g.label) == (h.field, h.label)
        assert g.counts.dtype == h.counts.dtype
        assert g.counts.tobytes() == h.counts.tobytes(), field
        assert g.edges.dtype == h.edges.dtype
        assert g.edges.tobytes() == h.edges.tobytes(), field
        assert g.outlier_count() == h.outlier_count()
        assert render_ascii(g) == reference.render_ascii(h)


@settings(max_examples=60, deadline=None)
@given(columns=_columns())
def test_the_core_is_one_np_histogram_per_panel(columns):
    want, want_exc, want_warned = _outcome(reference.job_histograms,
                                           _records(columns))
    for got, exc, warned in (_outcome(column_histograms, columns),
                             _outcome(job_histograms, _records(columns))):
        assert exc == want_exc
        assert warned <= want_warned
        if want_exc is None:
            _same(got, want)


@pytest.mark.parametrize("columns", [
    [[None]] * 4,                                  # n = 1, None is 0
    [[3600]] * 4,                                  # n = 1
    [[-0.0, 0.0, -0.0]] * 4,                       # signed zeros are 0
    [[5, 5, 5], [0, 0, 0], [7200] * 3, [1e15] * 3],  # constant columns
    [[1e-300, 2e-300], [1e300, -1e300], [1, 2], [0.5, None]],
    [[1], [2], [3], [1e300]],                      # no 20 distinct edges
    [[]] * 4,                                      # no matches
])
def test_the_edge_cases_bin_as_np_histogram_does(columns):
    got, exc, warned = _outcome(column_histograms, columns)
    want, want_exc, want_warned = _outcome(reference.job_histograms,
                                           _records(columns))
    assert exc == want_exc
    assert warned <= want_warned
    if want_exc is None:
        _same(got, want)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_value_raises_what_np_histogram_raised(bad):
    columns = [[1.0, 2.0], [1, 2], [bad, 3.0], [0.0, 1.0]]
    with pytest.raises(ValueError) as want:
        reference.job_histograms(_records(columns))
    with pytest.raises(ValueError) as got:
        column_histograms(columns)
    assert str(got.value) == str(want.value)
