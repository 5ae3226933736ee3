"""Pearson's r and its p-value, computed with NumPy alone.

The expected values are literals: the regularised incomplete beta and
the two-sided Pearson p-value of a standard statistics library, printed
to 17 significant digits.
"""

import numpy as np
import pytest

from repro.analysis.correlations import betainc, pearson_with_p

#: (a, b, x, I_x(a, b))
BETAINC = [
    (0.5, 0.5, 0.5, 0.5000000000000001),
    (2.0, 3.0, 0.4, 0.5247999999999999),
    (10.0, 0.5, 0.9, 0.15164090963470994),
    (0.5, 0.5, 0.01, 0.06376856085851985),
    (50.0, 0.5, 0.95, 0.02387270549699076),
    (22399.0, 0.5, 0.9879, 1.2891053966442572e-120),
    (1.0, 1.0, 0.3, 0.3),
    (5.0, 0.5, 0.999, 0.9222819921009667),
]


@pytest.mark.parametrize("a, b, x, want", BETAINC)
def test_betainc_literal_values(a, b, x, want):
    assert betainc(a, b, x) == pytest.approx(want, rel=1e-10)


def test_betainc_edges():
    assert betainc(3.0, 0.5, 0.0) == 0.0
    assert betainc(3.0, 0.5, 1.0) == 1.0
    # the symmetry that keeps the continued fraction convergent
    for a, b, x, _ in BETAINC:
        assert betainc(a, b, x) == pytest.approx(
            1.0 - betainc(b, a, 1.0 - x), rel=1e-9, abs=1e-15)


def test_pearson_r_and_p_literal_values():
    x = np.array([1.0, 2, 3, 4, 5, 6, 7, 8])
    y = np.array([2.0, 1, 4, 3, 7, 8, 6, 5])
    r, p = pearson_with_p(x, y)
    assert r == pytest.approx(0.7380952380952379, rel=1e-14)
    assert p == pytest.approx(0.036552761052860906, rel=1e-10)


def test_pearson_p_of_a_perfect_fit_is_zero():
    x = np.arange(10.0)
    r, p = pearson_with_p(x, 3 * x + 1)
    assert r == pytest.approx(1.0) and p == pytest.approx(0.0, abs=1e-12)
