from fractions import Fraction

import pytest

from thompson_fp.series import (
    PowerSeries,
    check_eqonn,
    expand_rational,
    positive_growth_series,
    series_to_ints,
    solve_M,
    solve_Mi,
)

F = Fraction


def test_arithmetic_basics():
    a = PowerSeries.from_coeffs([1, 2, 3])
    b = PowerSeries.from_coeffs([1, 1, 1])
    assert (a + b).coeffs == (F(2), F(3), F(4))
    assert (a - b).coeffs == (F(0), F(1), F(2))
    assert (a * b).coeffs == (F(1), F(3), F(6))
    assert (2 * a).coeffs == (F(2), F(4), F(6))


def test_truncation_order_is_min_of_operands():
    a = PowerSeries.from_coeffs([1, 1, 1, 1])
    b = PowerSeries.from_coeffs([1, 1])
    assert len((a * b).coeffs) == 2


def test_reciprocal_of_geometric():
    one_minus_x = PowerSeries.from_coeffs([1, -1, 0, 0, 0])
    geo = one_minus_x.reciprocal()
    assert geo.coeffs == (F(1),) * 5
    assert (one_minus_x * geo).coeffs == (F(1), F(0), F(0), F(0), F(0))


def test_reciprocal_requires_unit_constant_term():
    with pytest.raises(ArithmeticError):
        PowerSeries.from_coeffs([0, 1, 1]).reciprocal()


def test_int_power_negative_exponent():
    s = PowerSeries.from_coeffs([1, 1, 0, 0])
    assert s.int_power(-2).coeffs == s.reciprocal().int_power(2).coeffs


def test_divide_xk():
    s = PowerSeries.from_coeffs([0, 0, 1, 5])
    assert s.divide_xk(2).coeffs == (F(1), F(5))
    with pytest.raises(ArithmeticError):
        PowerSeries.from_coeffs([0, 1]).divide_xk(2)


def test_solve_M_satisfies_its_equation():
    # M = 1 + x^-2((1-x^3 M)^-(p-1) - 1), cleared of the x^-2
    for p in (2, 3, 4):
        order = 14
        m = solve_M(p, order)
        x2 = PowerSeries.x(order).int_power(2)
        x3 = PowerSeries.x(order).int_power(3)
        one = PowerSeries.one(order)
        lhs = (one - x3 * m).int_power(-(p - 1)).truncate(order)
        rhs = one - x2 + x2 * m
        assert (lhs - rhs).is_zero


def test_solve_Mi_product_telescopes():
    p, order = 4, 12
    prod = PowerSeries.one(order)
    for i in range(1, p):
        prod = prod * solve_Mi(p, i, order)
    assert (prod - solve_M(p, order)).is_zero


def test_p2_closed_form():
    # for p=2 the growth series of positive elements is rational
    for order in (30, 200):
        s = positive_growth_series(2, order).s
        closed = expand_rational([1, 0, -1], [1, -2, -1, 1], order)
        assert (s - closed).is_zero
        assert series_to_ints(s)[:7] == [1, 2, 4, 9, 20, 45, 101]


def test_first_coefficients_by_p():
    assert positive_growth_series(2, 6).counts() == [1, 2, 4, 9, 20, 45]
    assert positive_growth_series(3, 6).counts()[:2] == [1, 3]
    assert positive_growth_series(4, 5).counts()[:2] == [1, 4]


def test_bundle_is_consistent():
    b = positive_growth_series(3, 10)
    assert b.p == 3 and b.order == 10
    assert len(b.mi) == 2
    assert b.counts() == series_to_ints(b.s)


def test_order_zero_has_no_bundle():
    # an order-0 series has no constant term to invert
    with pytest.raises(ZeroDivisionError):
        positive_growth_series(2, 0)


def test_master_equation_residual():
    for p in (2, 3, 5):
        assert check_eqonn(p, 16).is_zero


def test_series_to_ints_rejects_fractions():
    with pytest.raises(ArithmeticError):
        series_to_ints(PowerSeries.from_coeffs([F(1, 2)]))


def test_expand_rational_geometric():
    assert series_to_ints(expand_rational([1], [1, -1], 5)) == [1, 1, 1, 1, 1]
    assert series_to_ints(expand_rational([1], [1, -2], 5)) == [1, 2, 4, 8, 16]
