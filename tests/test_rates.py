import math
from fractions import Fraction

import pytest

from thompson_fp import rates
from thompson_fp.cli import run
from thompson_fp.rates import (
    DEFAULT_TOL,
    _ONE_OVER_X,
    _X,
    _Y_OVER_Y_MINUS_1,
    _bisect,
    _image,
    _width_test,
    ln2_enclosure,
    rate_report,
    xi,
    xi_asymptotic,
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


def test_zeta_left_endpoint_is_positive():
    # zeta brackets its root on [1/(2p), 1/p] with no search: f(1/(2p)) > 0
    for p in range(2, 201):
        assert rates._zeta_eq(p, _ONE_OVER_X, "").at(F(1, 2 * p)) > 0, p


def test_each_route_form_is_its_printed_polynomial():
    # the two forms read through each route's map, on a grid of small (a, q)
    printed = [
        (rates._zeta_eq, _ONE_OVER_X,
         lambda p, a, q: (q * q - a * a) ** (p - 1) * (q * q - a * a + a * q) - q ** (2 * p)),
        (rates._zeta_eq, _X,
         lambda p, a, q: (a * a - q * q) ** (p - 1) * (a * a - q * q + a * q) - a ** (2 * p)),
        (rates._xi_eq, _ONE_OVER_X, lambda p, a, q: (q - a) ** (p - 1) * (2 * q - a) - q**p),
        (rates._xi_eq, _X, lambda p, a, q: (2 * a - q) * (a - q) ** (p - 1) - a**p),
        (rates._xi_eq, _Y_OVER_Y_MINUS_1, lambda p, a, q: -(a**p - (a + q) * q ** (p - 1))),
    ]
    for builder, rate, poly in printed:
        for p in range(2, 10):
            form = builder(p, rate, "").form
            for a in range(-4, 6):
                for q in range(-3, 6):
                    assert form(a, q) == poly(p, a, q), (builder.__name__, rate, p, a, q)


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
    # xi and xi_via_y agree, and xi's enclosure brackets a root of the
    # direct form (2z-1)(z-1)^(p-1) - z^p, evaluated in Fractions
    for p in (2, 3, 5, 9):
        tol = F(1, 10**8)
        r = xi(p, tol)
        assert abs(r.midpoint - xi_via_y(p, tol).midpoint) <= 2 * tol, p
        g = lambda z: (2 * z - 1) * (z - 1) ** (p - 1) - z**p
        assert g(r.low) * g(r.high) < 0, p


def test_rate_result_fields():
    r = xi(3, DEFAULT_TOL)
    assert r.p == 3
    assert r.low <= r.midpoint <= r.high
    assert "rate" in r.equation
    with pytest.raises(AttributeError):
        r.low = r.high


@pytest.mark.parametrize(
    "route, equation",
    [
        (zeta, "(1-x^2)^(p-1)*(1+x-x^2)=1, rate=1/x"),
        (zeta_via_y, "(y^2-1)^(p-1)*(y^2+y-1)=y^(2p)"),
        (xi, "(1-t)^p+(1-t)^(p-1)=1, rate=1/t"),
        (xi_via_y, "y^p=y+1, rate=y/(y-1)"),
    ],
)
def test_equation_text_is_pinned(route, equation):
    for p in (2, 5):
        assert route(p, F(1, 10**6)).equation == equation


def test_cli_prints_the_equation(capsys):
    for what, route in (("positive", zeta), ("lower-bound", xi)):
        assert run(["rate", what, "--p", "3"]) == 0
        assert f'"equation": "{route(3).equation}"' in capsys.readouterr().out


def test_width_test_on_the_three_maps():
    # the rate x on [1/8, 2/8]: 1/8 wide, so a dyadic tol of 1/8 pins "<="
    assert _width_test(_X, F(1, 8))(1, 2, 8)
    assert not _width_test(_X, F(1, 9))(1, 2, 8)
    assert not _width_test(_X, F(1, 8))(1, 3, 8)
    # the rate 1/x on [1/4, 1/2] is [2, 4], 2 wide
    assert _width_test(_ONE_OVER_X, F(2))(2, 4, 8)
    assert not _width_test(_ONE_OVER_X, F(15, 8))(2, 4, 8)
    # the rate y/(y-1) on [3/2, 2] is [2, 3], 1 wide
    assert _width_test(_Y_OVER_Y_MINUS_1, F(1))(3, 4, 2)
    assert not _width_test(_Y_OVER_Y_MINUS_1, F(1, 2))(3, 4, 2)


def test_width_test_is_false_on_a_pole():
    huge = F(10**30)
    # 1/x at a = 0, and across 0
    assert not _width_test(_ONE_OVER_X, huge)(0, 1, 8)
    assert not _width_test(_ONE_OVER_X, huge)(-1, 1, 8)
    # y/(y-1) at a = q, and across 1
    assert not _width_test(_Y_OVER_Y_MINUS_1, huge)(2, 4, 2)
    assert not _width_test(_Y_OVER_Y_MINUS_1, huge)(1, 4, 2)
    assert _width_test(_Y_OVER_Y_MINUS_1, huge)(3, 4, 2)


def test_image_orders_the_ends_and_each_map_is_its_own_inverse():
    lo, hi = F(3, 2), F(2)
    assert _image(_X, lo, hi) == (lo, hi)
    assert _image(_ONE_OVER_X, lo, hi) == (F(1, 2), F(2, 3))
    assert _image(_Y_OVER_Y_MINUS_1, lo, hi) == (F(2), F(3))
    for m in (_X, _ONE_OVER_X, _Y_OVER_Y_MINUS_1):
        assert _image(m, *_image(m, lo, hi)) == (lo, hi), m


def test_tolerance_is_respected():
    for tol in (F(1, 100), F(1, 10**6)):
        r = xi(4, tol)
        assert r.high - r.low <= tol


def test_bad_tolerance_rejected():
    with pytest.raises(ValueError):
        xi(2, F(0))
    with pytest.raises(ValueError):
        zeta(2, F(-1, 10))


@pytest.mark.parametrize("route, builder, sign, message", [
    (zeta, "_zeta_eq", 1, "expected a sign change below x = 1/3"),
    (zeta, "_zeta_eq", -1, "expected f > 0 at x = 1/6"),
    (xi, "_xi_eq", 1, "expected (1-t)^p + (1-t)^(p-1) - 1 < 0 at t = 1/2"),
])
def test_rate_certificates_fire(monkeypatch, route, builder, sign, message):
    # an equation whose form is a constant of the wrong sign fails its check
    real = getattr(rates, builder)
    monkeypatch.setattr(
        rates, builder,
        lambda p, rate, text: real(p, rate, text)._replace(form=lambda a, q: sign),
    )
    with pytest.raises(ArithmeticError) as err:
        route(3)
    assert str(err.value) == message


def test_ln2_enclosure():
    val, err = ln2_enclosure(F(1, 10**12))
    assert err <= F(1, 10**12)
    assert abs(float(val) - math.log(2)) < 1e-11


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
    with pytest.raises(ValueError, match="p_max must be >= 2, got 1"):
        rate_report(1)


def test_xi_asymptotic_precision_is_proven():
    # |(p-1/2)/v - (p-1/2)/ln 2| <= (p-1/2) e/((v-e) v) for |v - ln 2| <= e
    for precision in (F(1, 10**12), F(1, 10**40)):
        for p in range(2, 201):
            v, e = ln2_enclosure(precision / (4 * p))
            assert F(2 * p - 1, 2) * e / ((v - e) * v) <= precision, p
            assert xi_asymptotic(p, precision) == F(2 * p - 1, 2) / v + F(1, 2)


def test_xi_asymptotic_refuses_a_wide_ln2_enclosure(monkeypatch):
    monkeypatch.setattr(rates, "ln2_enclosure", lambda err: (F(7, 10), F(1, 100)))
    with pytest.raises(ArithmeticError):
        xi_asymptotic(5)


# Edge branches of the integer bisection: forms F(a, q) = q^d f(a/q).


def _never(a, b, q):
    return False


def test_bisect_hits_a_root_at_a_midpoint():
    assert _bisect(lambda a, q: 2 * a - q, F(0), F(1), _never) == (F(1, 2), F(1, 2))
    # 8x - 3 has its root 3/8 at the third midpoint of [0, 1]
    assert _bisect(lambda a, q: 8 * a - 3 * q, F(0), F(1), _never) == (F(3, 8),) * 2


def test_bisect_root_at_an_endpoint():
    assert _bisect(lambda a, q: a, F(0), F(1), _never) == (F(0), F(0))
    root_at_hi = _bisect(lambda a, q: 3 * a - 2 * q, F(1, 3), F(2, 3), _never)
    assert root_at_hi == (F(2, 3), F(2, 3))


def test_bisect_without_sign_change_raises():
    with pytest.raises(ArithmeticError, match="no sign change"):
        _bisect(lambda a, q: a + q, F(0), F(1), _never)


def test_bisect_shared_denominator_and_done():
    # x^2 - 2 on [1/3, 5/2]: mixed denominators, stop once the width is <= 1/100
    lo, hi = _bisect(
        lambda a, q: a * a - 2 * q * q,
        F(1, 3),
        F(5, 2),
        lambda a, b, q: (b - a) * 100 <= q,
    )
    assert lo * lo < 2 < hi * hi
    assert 0 < hi - lo <= F(1, 100)


# The Fraction bisection the integer forms replaced, kept as an oracle.


def _fraction_bisect(f, lo, hi, done):
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    assert (flo > 0) != (fhi > 0)
    pos_low = flo > 0
    while not done(lo, hi):
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == pos_low:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _oracle_zeta(p, tol):
    f = lambda x: (1 - x * x) ** (p - 1) * (1 + x - x * x) - 1
    hi = F(1, p)
    lo = hi / 2
    while f(lo) <= 0:
        lo /= 2
    lo, hi = _fraction_bisect(f, lo, hi, lambda a, b: 1 / a - 1 / b <= tol)
    return 1 / hi, 1 / lo


def _oracle_zeta_via_y(p, tol):
    g = lambda y: (y * y - 1) ** (p - 1) * (y * y + y - 1) - y ** (2 * p)
    lo, hi = _fraction_bisect(g, F(p), F(p) + F(1, 2), lambda a, b: b - a <= tol)
    return lo, hi


def _oracle_xi(p, tol):
    f = lambda t: (1 - t) ** p + (1 - t) ** (p - 1) - 1
    lo, hi = _fraction_bisect(
        f, F(0), F(1, 2), lambda a, b: a > 0 and 1 / a - 1 / b <= tol
    )
    return 1 / hi, 1 / lo


def _oracle_xi_via_y(p, tol):
    h = lambda y: y**p - y - 1
    lo, hi = _fraction_bisect(
        h, F(1), F(2), lambda a, b: a > 1 and a / (a - 1) - b / (b - 1) <= tol
    )
    return hi / (hi - 1), lo / (lo - 1)


@pytest.mark.parametrize(
    "route, oracle",
    [
        (zeta, _oracle_zeta),
        (zeta_via_y, _oracle_zeta_via_y),
        (xi, _oracle_xi),
        (xi_via_y, _oracle_xi_via_y),
    ],
)
def test_integer_bisection_matches_fraction_oracle(route, oracle):
    # the dyadic tolerance meets a bracket width exactly, so it pins "<="
    for p in (2, 3, 5, 9, 20, 50):
        for tol in (F(1, 10**9), F(1, 10**40), F(1, 2**20)):
            r = route(p, tol)
            assert (r.low, r.high) == oracle(p, tol), (p, tol)
