import math
from fractions import Fraction

import pytest

from thompson_fp.rates import (
    DEFAULT_TOL,
    ln2_enclosure,
    rate_report,
    xi,
    xi_asymptotic,
    xi_via_direct,
    xi_via_y,
    zeta,
    zeta_via_y,
)

F = Fraction


def test_zeta_enclosure_is_certified():
    r = zeta(2, F(1, 10**9))
    assert r.low < r.high
    assert r.high - r.low <= F(1, 10**9)
    assert float(r.low) > 2.24 and float(r.high) < 2.25


def test_zeta_bounds_window():
    for p in range(2, 11):
        r = zeta(p, F(1, 10**7))
        assert p < r.low and r.high < F(2 * p + 1, 2), p


def test_zeta_two_forms_agree():
    for p in (2, 3, 7):
        a = zeta(p, F(1, 10**9))
        b = zeta_via_y(p, F(1, 10**9))
        assert abs(a.midpoint - b.midpoint) <= 2 * F(1, 10**9)


def test_xi_reference_values():
    expected = {2: 2.618033989, 3: 4.079595623, 4: 5.530132718, 5: 6.977144180}
    for p, val in expected.items():
        r = xi(p, F(1, 10**9))
        assert abs(float(r.midpoint) - val) < 1e-6, p


def test_xi2_is_golden_ratio_squared():
    # (3+sqrt(5))/2, the square of the golden ratio
    r = xi(2, F(1, 10**12))
    golden = (3 + math.sqrt(5)) / 2
    assert abs(float(r.midpoint) - golden) < 1e-9


def test_xi_three_forms_agree():
    for p in (2, 3, 5, 9):
        tol = F(1, 10**8)
        mids = [f(p, tol).midpoint for f in (xi, xi_via_direct, xi_via_y)]
        assert max(mids) - min(mids) <= 2 * tol, p


def test_rate_result_fields():
    r = xi(3, DEFAULT_TOL)
    assert r.p == 3
    assert r.low <= r.midpoint <= r.high
    assert r.width == r.high - r.low
    assert "rate" in r.equation


def test_tolerance_is_respected():
    for tol in (F(1, 100), F(1, 10**6)):
        r = xi(4, tol)
        assert r.width <= tol


def test_bad_tolerance_rejected():
    with pytest.raises(ValueError):
        xi(2, F(0))
    with pytest.raises(ValueError):
        zeta(2, F(-1, 10))


def test_ln2_enclosure():
    val, err = ln2_enclosure(F(1, 10**12))
    assert err <= F(1, 10**12)
    assert abs(float(val) - math.log(2)) < 1e-11


def test_ln2_memo_is_bounded():
    for p in range(2, 100):
        xi_asymptotic(p)
    assert ln2_enclosure.cache_info().currsize <= 64


def test_asymptotic_formula():
    # (p - 1/2)/ln2 + 1/2, delivered as a rational within the precision
    approx = xi_asymptotic(50, F(1, 10**9))
    expected = 49.5 / math.log(2) + 0.5
    assert abs(float(approx) - expected) < 1e-8


def test_gap_at_p50_is_small():
    r = xi(50, F(1, 10**9))
    gap = abs(float(r.midpoint - xi_asymptotic(50, F(1, 10**9))))
    assert gap < 0.05


def test_rate_report_shape():
    rows = rate_report(4, F(1, 10**7))
    assert [row.p for row in rows] == [2, 3, 4]
    for row in rows:
        assert row.bounds_ok
        assert row.zeta.low < row.xi.low  # xi exceeds zeta for all p
        assert 0 < row.lambda_excess < F(1, 2)
