import random
import re
from fractions import Fraction

import pytest

from thompson_fp import series
from thompson_fp.automaton import language_counts, phi_series
from thompson_fp.series import (
    PowerSeries,
    check_eqonn,
    expand_rational,
    positive_counts,
    positive_growth_series,
    series_to_ints,
    solve_M,
)

F = Fraction


def test_arithmetic_basics():
    a = PowerSeries.from_coeffs([1, 2, 3])
    b = PowerSeries.from_coeffs([1, 1, 1])
    assert (a + b).coeffs == (F(2), F(3), F(4))
    assert (a - b).coeffs == (F(0), F(1), F(2))
    assert (a * b).coeffs == (F(1), F(3), F(6))
    assert (2 * a).coeffs == (F(2), F(4), F(6))
    with pytest.raises(TypeError, match="cannot treat float as a power series"):
        PowerSeries.one(3) + 1.5


def test_series_is_read_only():
    a = PowerSeries.from_coeffs([1, 2, 3])
    with pytest.raises(AttributeError):
        a.coeffs = (0,)
    assert a.coeffs == (1, 2, 3)


def test_truncation_order_is_min_of_operands():
    a = PowerSeries.from_coeffs([1, 1, 1, 1])
    b = PowerSeries.from_coeffs([1, 1])
    assert len((a * b).coeffs) == 2


def test_reciprocal_of_geometric():
    one_minus_x = PowerSeries.from_coeffs([1, -1, 0, 0, 0])
    geo = PowerSeries.one(5) / one_minus_x
    assert geo.coeffs == (F(1),) * 5
    assert (one_minus_x * geo).coeffs == (F(1), F(0), F(0), F(0), F(0))


def test_reciprocal_requires_unit_constant_term():
    with pytest.raises(ArithmeticError):
        PowerSeries.one(3) / PowerSeries.from_coeffs([0, 1, 1])


def test_reciprocal_of_non_unit_is_not_integral():
    with pytest.raises(ArithmeticError, match="not ±1"):
        PowerSeries.one(2) / PowerSeries.from_coeffs([2, 1])
    assert (PowerSeries.one(3) / PowerSeries.from_coeffs([-1, 1, 0])).coeffs == (-1, -1, -1)


def _random_series(rng, order, unit=False):
    cs = [rng.randint(-9, 9) for _ in range(order)]
    if unit:
        cs[0] = rng.choice((1, -1))
    return PowerSeries.from_coeffs(cs)


def test_division_inverts_multiplication():
    rng = random.Random(11)
    for order in range(1, 41):
        a = _random_series(rng, order)
        b = _random_series(rng, order, unit=True)
        assert (a / b) * b == a, order
        assert (a * b) / b == a, order


def test_division_truncates_to_smaller_order():
    rng = random.Random(12)
    for na, nb in ((7, 3), (3, 7), (5, 5), (0, 4), (4, 1)):
        a = _random_series(rng, na)
        b = _random_series(rng, nb, unit=True)
        q = a / b
        assert q.order == min(na, nb)
        assert q * b.truncate(q.order) == a.truncate(q.order)


def test_division_needs_unit_constant_term():
    a = PowerSeries.from_coeffs([1, 2, 3])
    with pytest.raises(ZeroDivisionError):
        a / PowerSeries.from_coeffs([0, 1, 1])
    with pytest.raises(ZeroDivisionError):
        a / PowerSeries.from_coeffs([])
    with pytest.raises(ArithmeticError, match="not ±1"):
        a / PowerSeries.from_coeffs([2, 1, 0])
    assert (a / PowerSeries.from_coeffs([-1, 0, 0])).coeffs == (-1, -2, -3)


def test_negative_order_is_rejected():
    # a negative order used to slice from the end instead of failing
    with pytest.raises(ValueError):
        phi_series(2, -1)
    with pytest.raises(ValueError):
        language_counts(2, -1)
    with pytest.raises(ValueError):
        solve_M(3, -1)
    with pytest.raises(ValueError):
        PowerSeries.one(-1)
    with pytest.raises(ValueError):
        PowerSeries.from_coeffs([1, 2, 3, 4]).truncate(-1)


def test_int_power_negative_exponent():
    s = PowerSeries.from_coeffs([1, 1, 0, 0])
    assert s.int_power(-2).coeffs == (PowerSeries.one(4) / s).int_power(2).coeffs


def test_int_power_makes_no_unused_product(monkeypatch):
    # one product per set bit of k and one squaring per bit after the top one
    products = []
    mul = PowerSeries.__mul__

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    s = PowerSeries.from_coeffs([1, 1, 2, 3, 5, 8])
    repeated = [PowerSeries.one(6)]
    for _ in range(20):
        repeated.append(mul(repeated[-1], s))
    monkeypatch.setattr(PowerSeries, "__mul__", counting_mul)
    for k in range(1, 21):
        products.clear()
        assert s.int_power(k) == repeated[k]
        assert len(products) == bin(k).count("1") + k.bit_length() - 1, k


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


def _check_n_powers(p, order):
    powers = series._n_powers(p, order, range(1, p + 1))
    n = PowerSeries.from_coeffs(powers[0])
    assert n.order == order + 2, (p, order)
    for a, w in enumerate(powers, 1):
        assert tuple(w) == n.int_power(a).coeffs, (p, order, a)
    x = PowerSeries.x(order + 2)
    residual = x * n.int_power(p) + (x.int_power(3) - x - 1) * n + 1
    assert residual.is_zero, (p, order)


def test_n_powers_match_int_power():
    # Miller's recurrence against schoolbook squaring of the kernel's own N,
    # and N against the master equation
    for p in range(2, 9):
        for order in (*range(41), 200):
            _check_n_powers(p, order)
    for p in (20, 45):
        _check_n_powers(p, 60)


def test_solve_M_at_the_smallest_orders():
    for p in (2, 3, 6):
        assert solve_M(p, 0) == PowerSeries(())
    assert solve_M(3, 1).coeffs == (1,)
    assert solve_M(3, 2).coeffs == (1, 2)


def test_middle_series_product_telescopes():
    p, order = 4, 12
    prod = PowerSeries.one(order)
    for m_i in positive_growth_series(p, order).mi:
        prod = prod * m_i
    assert (prod - solve_M(p, order)).is_zero


def test_p2_closed_form():
    # for p=2 the growth series of positive elements is rational
    for order in (30, 200, 1000):
        s = positive_growth_series(2, order).s
        closed = expand_rational([1, 0, -1], [1, -2, -1, 1], order)
        assert (s - closed).is_zero
        counts = series_to_ints(s)
        assert counts[:7] == [1, 2, 4, 9, 20, 45, 101]
        # the denominator 1 - 2x - x^2 + x^3 as a plain integer recurrence,
        # independent of the series division that both routes above share
        for n in range(3, order):
            assert counts[n] == 2 * counts[n - 1] + counts[n - 2] - counts[n - 3], n


def test_first_coefficients_by_p():
    assert positive_growth_series(2, 6).counts() == [1, 2, 4, 9, 20, 45]
    assert positive_growth_series(3, 6).counts()[:2] == [1, 3]
    assert positive_growth_series(4, 5).counts()[:2] == [1, 4]


def test_bundle_is_consistent():
    b = positive_growth_series(3, 10)
    assert b.p == 3 and b.order == 10
    assert len(b.mi) == 2
    assert b.counts() == series_to_ints(b.s)
    for ps in (b.m, b.l, b.r, b.s, *b.mi):
        assert all(type(c) is int for c in ps.coeffs)


@pytest.mark.parametrize("p, bad", [(p, k) for p in (2, 3, 4, 6) for k in range(p + 1)])
def test_bundle_checks_catch_a_wrong_quotient(monkeypatch, p, bad):
    # a bundle divides p - 1 times, for M_1 .. M_{p-1}, and reads L, Q and S
    # from the tail; add 1 to the last coefficient of one quotient (bad <
    # p - 1), or to the last or a middle one of L (bad = p - 1) or Q (bad =
    # p) with S taken from the spoiled series, and the one check must fire
    div, tail = PowerSeries.__truediv__, series._tail
    calls, spoiled = [], []

    def spoiled_div(self, other):
        q = div(self, other)
        if len(calls) == bad:
            q = q + PowerSeries.from_coeffs([0] * (q.order - 1) + [1])
            spoiled.append(len(calls))
        calls.append(1)
        return q

    def spoiled_tail(m):
        l, q, _ = tail(m)
        (l, q)[bad - p + 1][at] += 1
        d = [x - y for x, y in zip(l[1:], q[1:])]  # S = (1 + x)(L - Q)/x
        spoiled.append(bad)
        return l, q, [x + y for x, y in zip(d, [0] + d)]

    monkeypatch.setattr(PowerSeries, "__truediv__", spoiled_div)
    if bad >= p - 1:
        monkeypatch.setattr(series, "_tail", spoiled_tail)
    for order in (1, 2, 5, 12):
        for at in {order, (order + 1) // 2}:  # L and Q have order + 1 coefficients
            calls.clear()
            spoiled.clear()
            with pytest.raises(ArithmeticError, match=re.escape("the two routes to S disagree")):
                positive_growth_series(p, order)
            assert spoiled == [bad] and len(calls) == p - 1, (order, at)


def test_positive_counts_equal_the_bundle():
    # the CLI's counts against the bundle's, whose S the factored route
    # through the quotients M_i checks; both read N^(p-1) from the same
    # kernel and L, Q and S from the same tail
    for p in range(2, 9):
        assert positive_counts(p, 200) == positive_growth_series(p, 200).counts(), p
    for p in (2, 3, 4, 5, 6, 9, 13, 20, 45, 70):
        for order in range(1, 41):
            bundle = positive_growth_series(p, order)
            assert positive_counts(p, order) == bundle.counts(), (p, order)


def test_positive_counts_read_the_shared_tail(monkeypatch):
    # the counts are the tail's S of solve_M's M, with no route of their own
    seen = []

    def tail(m):
        seen.append(tuple(m))
        return [1], [1], [7] * len(m)

    monkeypatch.setattr(series, "_tail", tail)
    assert positive_counts(3, 6) == [7] * 6
    assert seen == [solve_M(3, 6).coeffs]


def test_positive_counts_check_their_arguments():
    with pytest.raises(ValueError, match="p must be an integer >= 2, got 1"):
        positive_counts(1, 5)
    with pytest.raises(ValueError, match=re.escape("order must be >= 1, got 0")):
        positive_counts(2, 0)


def test_positive_counts_catch_a_wrong_product(monkeypatch):
    # one too large, every product leaves Miller's first division by k = 3
    # with a remainder, so the exactness check must fire
    monkeypatch.setattr(series, "mul", lambda a, b: a * b + 1)
    message = re.escape("coefficient 3 of N^2 is not an integer")
    for solve in (positive_counts, solve_M, positive_growth_series):
        with pytest.raises(ArithmeticError, match=message):
            solve(3, 5)


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
