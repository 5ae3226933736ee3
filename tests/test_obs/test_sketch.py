"""QuantileSketch properties: accuracy, merge algebra, odd floats.

The sketch's three contracts, each pinned deterministically and then
driven through hypothesis:

* **rank accuracy** — a reported quantile is within 1 % *rank* error
  of the exact order statistic (the acceptance bound; the sketch's
  alpha=0.5 % relative *value* error implies it for well-spread data);
* **merge algebra** — :meth:`QuantileSketch.dist_state` is exactly
  associative and commutative (integer bucket counts), so any merge
  tree over worker sketches is bit-identical;
* **odd floats** — NaN never enters a quantile, ±inf sort to the
  extremes, zeros and negatives round-trip.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch

#: finite, non-degenerate doubles: the sketch's bucket math covers
#: ~17 decades either side of zero before the collapse escape hatch
finite = st.floats(
    allow_nan=False, allow_infinity=False,
    min_value=-1e12, max_value=1e12,
)
any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)


def assert_rank_accurate(values, q, estimate, rank_tol=0.01):
    """``estimate`` falls between the order statistics bracketing
    rank ``q ± rank_tol`` (modulo the sketch's value accuracy)."""
    xs = sorted(values)
    n = len(xs)
    target = q * (n - 1)
    slack = rank_tol * (n - 1)
    lo = xs[max(0, math.floor(target - slack))]
    hi = xs[min(n - 1, math.ceil(target + slack))]

    def close(x):
        return abs(estimate - x) <= 2 * DEFAULT_ALPHA * abs(x) + 1e-12

    assert lo <= estimate <= hi or close(lo) or close(hi), (
        f"quantile({q}) = {estimate!r} outside "
        f"[{lo!r}, {hi!r}] for n={n}"
    )


# -- rank accuracy ------------------------------------------------------------


def test_quantiles_of_uniform_within_half_percent_value_error():
    sk = QuantileSketch()
    sk.observe_many([float(i) for i in range(1, 10_001)])
    for q in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
        want = 1 + q * 9_999
        assert abs(sk.quantile(q) - want) / want < 2 * DEFAULT_ALPHA


@given(st.lists(finite, min_size=1, max_size=400),
       st.sampled_from([0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]))
def test_quantile_rank_error_below_one_percent(values, q):
    sk = QuantileSketch()
    sk.observe_many(values)
    assert_rank_accurate(values, q, sk.quantile(q))


@given(st.lists(finite, min_size=1, max_size=300))
def test_quantile_stays_inside_observed_envelope(values):
    sk = QuantileSketch()
    sk.observe_many(values)
    for q in (0.0, 0.37, 1.0):
        est = sk.quantile(q)
        assert min(values) <= est <= max(values)


def test_scalar_and_vector_paths_agree_bitwise():
    values = [10 ** (i / 7.0 - 20) for i in range(300)]
    values += [-v for v in values] + [0.0, 0.0]
    scalar, vector = QuantileSketch(), QuantileSketch()
    for v in values:
        scalar.observe(v)
    vector.observe_many(values)
    assert scalar.dist_state() == vector.dist_state()


# -- merge algebra ------------------------------------------------------------


def _sketch_of(values) -> QuantileSketch:
    sk = QuantileSketch()
    sk.observe_many(values)
    return sk


@given(st.lists(any_float, max_size=150), st.lists(any_float, max_size=150))
def test_merge_commutes(a_vals, b_vals):
    ab = _sketch_of(a_vals).merge(_sketch_of(b_vals))
    ba = _sketch_of(b_vals).merge(_sketch_of(a_vals))
    assert ab.dist_state() == ba.dist_state()


@given(st.lists(any_float, max_size=100), st.lists(any_float, max_size=100),
       st.lists(any_float, max_size=100))
def test_merge_associates(a_vals, b_vals, c_vals):
    a, b, c = map(_sketch_of, (a_vals, b_vals, c_vals))
    left = a.copy().merge(b.copy()).merge(c.copy())
    right = a.copy().merge(b.copy().merge(c.copy()))
    assert left.dist_state() == right.dist_state()


@given(st.lists(finite, min_size=1, max_size=200), st.integers(2, 5))
def test_sharded_merge_matches_single_sketch(values, shards):
    whole = _sketch_of(values)
    parts = [QuantileSketch() for _ in range(shards)]
    for i, v in enumerate(values):
        parts[i % shards].observe(v)
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    assert merged.dist_state() == whole.dist_state()


def test_merge_rejects_alpha_mismatch():
    with pytest.raises(ValueError):
        QuantileSketch(alpha=0.005).merge(QuantileSketch(alpha=0.01))


# -- odd floats ---------------------------------------------------------------


def test_nan_counted_but_excluded_from_quantiles():
    sk = _sketch_of([1.0, 2.0, 3.0, math.nan, math.nan])
    assert sk.count == 5 and sk.nan == 2 and sk.valid == 3
    assert sk.quantile(0.5) == pytest.approx(2.0, rel=0.01)


def test_only_nans_gives_nan_quantile():
    sk = _sketch_of([math.nan])
    assert math.isnan(sk.quantile(0.5))


def test_infinities_sort_to_the_extremes():
    sk = _sketch_of([-math.inf, -1.0, 0.0, 1.0, math.inf])
    assert sk.quantile(0.0) == -math.inf
    assert sk.quantile(1.0) == math.inf
    assert abs(sk.quantile(0.5)) <= 1.0


@given(st.lists(any_float, min_size=1, max_size=200))
def test_count_ledger_always_balances(values):
    sk = _sketch_of(values)
    binned = sum(sk._pos.values()) + sum(sk._neg.values())
    assert sk.count == (binned + sk.zero + sk.nan
                        + sk.pos_inf + sk.neg_inf)


# -- serialisation ------------------------------------------------------------


@given(st.lists(any_float, max_size=200))
def test_to_from_dict_round_trips(values):
    sk = _sketch_of(values)
    back = QuantileSketch.from_dict(sk.to_dict())
    assert back == sk
    assert back.dist_state() == sk.dist_state()


def test_max_bins_collapse_keeps_top_quantiles():
    sk = QuantileSketch(max_bins=64)
    sk.observe_many([10 ** (i / 100.0) for i in range(2000)])
    assert sk.collapsed > 0
    # collapse folds the *smallest* buckets: the p99 stays accurate
    want = 10 ** (0.99 * 1999 / 100.0)
    assert abs(sk.quantile(0.99) - want) / want < 0.02
