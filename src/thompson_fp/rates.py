"""Certified rational enclosures for the growth rates attached to F(p).

zeta(p): growth rate of the positive monoid, 1/x* where x* is the smallest
positive root of (1 - x^2)^(p-1) (1 + x - x^2) = 1; equivalently y = 1/x
solves (y^2 - 1)^(p-1) (y^2 + y - 1) = y^(2p).  Satisfies p < zeta < p + 1/2.

xi(p): exponential growth rate of the normal form language L_p (a lower
bound for the group growth rate), 1/t* where t* is the unique root in
(0, 1/2] of (1 - t)^p + (1 - t)^(p-1) = 1; equivalently xi solves
(2 xi - 1)(xi - 1)^(p-1) = xi^p, and y = (1 - t)^-1 solves y^p = y + 1.
Asymptotically xi(p) = (p - 1/2)/ln 2 + 1/2 + o(1).

All arithmetic is exact.  Each root equation f(x) = 0 of degree d is written
once, as its homogeneous integer form F(a, q) = q^d f(a/q).  The bisection
keeps its bracket as integers a < b over one shared denominator q > 0 and
evaluates F in plain integers; since q^d > 0, F(a, q) has exactly the sign of
f(a/q), with no rounding and no gcd.  The bracket keeps a sign change of f,
so the returned enclosure [low, high] is mathematically guaranteed to contain
the root.  Residuals and the cross-form checks evaluate the same forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable

from .words import _check_p

DEFAULT_TOL = Fraction(1, 10**9)

# F(a, q) = q^d f(a/q) for a root equation f of degree d; see _bisect.
_Form = Callable[[int, int], int]


@dataclass(frozen=True)
class RateResult:
    p: int
    low: Fraction
    high: Fraction
    equation: str
    residual_bound: Fraction  # max |defining polynomial| at the endpoints

    @property
    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2

    @property
    def width(self) -> Fraction:
        return self.high - self.low


def _bisect(
    form: _Form,
    lo: Fraction,
    hi: Fraction,
    done: Callable[[int, int, int], bool],
) -> tuple[Fraction, Fraction]:
    """Shrink [lo, hi] until done(a, b, q), where [a/q, b/q] is the bracket,
    keeping form(a, q) and form(b, q) of opposite signs.

    `form(a, q)` is q^d f(a/q) for the polynomial f of degree d whose root is
    sought; q > 0, so it has the sign of f(a/q) and the loop runs in plain
    integers.  A step doubles a, b and q; the midpoint of [a/q, b/q] is then
    (a + b) over the doubled q, exactly the rational (lo + hi)/2.
    """
    q = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    fa, fb = form(a, q), form(b, q)
    if fa == 0:
        return lo, lo
    if fb == 0:
        return hi, hi
    if (fa > 0) == (fb > 0):
        raise ArithmeticError(f"no sign change on [{lo}, {hi}]")
    pos_low = fa > 0
    while not done(a, b, q):
        mid = a + b
        a, b, q = 2 * a, 2 * b, 2 * q
        fm = form(mid, q)
        if fm == 0:
            return Fraction(mid, q), Fraction(mid, q)
        if (fm > 0) == pos_low:
            a = mid
        else:
            b = mid
    return Fraction(a, q), Fraction(b, q)


def _value(form: _Form, degree: int, x: Fraction) -> Fraction:
    """f(x), read off the homogeneous form F(a, q) = q^degree f(a/q)."""
    return Fraction(form(x.numerator, x.denominator), x.denominator**degree)


def _residual(form: _Form, degree: int, *xs: Fraction) -> Fraction:
    """max |f(x)| over the given points."""
    return max(abs(_value(form, degree, x)) for x in xs)


def _width_in_reciprocal(tol: Fraction):
    """done(a, b, q) for 1/lo - 1/hi <= tol, with lo = a/q > 0 and hi = b/q."""
    n, d = tol.numerator, tol.denominator
    return lambda a, b, q: a > 0 and q * (b - a) * d <= n * a * b


def _width(tol: Fraction):
    """done(a, b, q) for hi - lo <= tol."""
    n, d = tol.numerator, tol.denominator
    return lambda a, b, q: (b - a) * d <= n * q


# The root equations, each as its homogeneous integer form q^d f(a/q).


def _zeta_form(p: int):
    """f(x) = (1 - x^2)^(p-1) (1 + x - x^2) - 1, degree 2p."""

    def form(a: int, q: int) -> int:
        return (q * q - a * a) ** (p - 1) * (q * q + a * q - a * a) - q ** (2 * p)

    return form


def _zeta_y_form(p: int):
    """g(y) = (y^2 - 1)^(p-1) (y^2 + y - 1) - y^(2p), degree 2p."""

    def form(a: int, q: int) -> int:
        return (a * a - q * q) ** (p - 1) * (a * a + a * q - q * q) - a ** (2 * p)

    return form


def _xi_form(p: int):
    """f(t) = (1 - t)^p + (1 - t)^(p-1) - 1, degree p."""

    def form(a: int, q: int) -> int:
        return (q - a) ** p + (q - a) ** (p - 1) * q - q**p

    return form


def _xi_direct_form(p: int):
    """g(z) = (2z - 1)(z - 1)^(p-1) - z^p, degree p."""

    def form(a: int, q: int) -> int:
        return (2 * a - q) * (a - q) ** (p - 1) - a**p

    return form


def _xi_y_form(p: int):
    """h(y) = y^p - y - 1, degree p."""

    def form(a: int, q: int) -> int:
        return a**p - a * q ** (p - 1) - q**p

    return form


def _brackets(form: _Form, degree: int, low: Fraction, high: Fraction) -> bool:
    """True if f changes sign or vanishes on [low, high] (or low == high)."""
    if low == high:
        return True
    fl, fh = _value(form, degree, low), _value(form, degree, high)
    return fl == 0 or fh == 0 or (fl > 0) != (fh > 0)


def zeta(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Positive-monoid growth rate with enclosure width <= tol."""
    _check_p(p)
    tol = _check_tol(tol)
    f = _zeta_form(p)
    hi = Fraction(1, p)
    if _value(f, 2 * p, hi) >= 0:
        raise ArithmeticError(f"expected a sign change below x = 1/{p}")
    lo = hi / 2
    for _ in range(64):
        if _value(f, 2 * p, lo) > 0:
            break
        lo /= 2
    else:
        raise ArithmeticError("could not find a positive left endpoint")
    lo, hi = _bisect(f, lo, hi, _width_in_reciprocal(tol))
    low, high = 1 / hi, 1 / lo
    if not _brackets(_zeta_y_form(p), 2 * p, low, high):
        raise ArithmeticError("reciprocal-form polynomial does not bracket the root")
    return RateResult(
        p,
        low,
        high,
        "(1-x^2)^(p-1)*(1+x-x^2)=1, rate=1/x",
        _residual(f, 2 * p, lo, hi),
    )


def zeta_via_y(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Independent route: bisect (y^2-1)^(p-1)(y^2+y-1) - y^(2p) on [p, p+1/2]."""
    _check_p(p)
    tol = _check_tol(tol)
    g = _zeta_y_form(p)
    lo, hi = _bisect(g, Fraction(p), Fraction(2 * p + 1, 2), _width(tol))
    return RateResult(
        p, lo, hi, "(y^2-1)^(p-1)*(y^2+y-1)=y^(2p)", _residual(g, 2 * p, lo, hi)
    )


def xi(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Language growth rate (group growth lower bound), width <= tol."""
    _check_p(p)
    tol = _check_tol(tol)
    f = _xi_form(p)
    lo, hi = Fraction(0), Fraction(1, 2)
    if _value(f, p, hi) >= 0:
        raise ArithmeticError("expected (1-t)^p + (1-t)^(p-1) - 1 < 0 at t = 1/2")
    lo, hi = _bisect(f, lo, hi, _width_in_reciprocal(tol))
    low, high = 1 / hi, 1 / lo
    # Cross-checks: both alternate forms must change sign over the enclosure.
    if not _brackets(_xi_direct_form(p), p, low, high):
        raise ArithmeticError("direct-form polynomial does not bracket the root")
    if not _brackets(_xi_y_form(p), p, 1 / (1 - lo), 1 / (1 - hi)):
        raise ArithmeticError("y-form polynomial does not bracket the root")
    return RateResult(
        p,
        low,
        high,
        "(1-t)^p+(1-t)^(p-1)=1, rate=1/t",
        _residual(f, p, lo, hi),
    )


def xi_via_direct(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Independent route: bisect (2z-1)(z-1)^(p-1) - z^p on [1, 2p]."""
    _check_p(p)
    tol = _check_tol(tol)
    g = _xi_direct_form(p)
    lo, hi = _bisect(g, Fraction(1), Fraction(2 * p), _width(tol))
    return RateResult(p, lo, hi, "(2z-1)(z-1)^(p-1)=z^p", _residual(g, p, lo, hi))


def xi_via_y(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Independent route: bisect y^p - y - 1 on [1, 2]; rate = 1/(1 - 1/y)."""
    _check_p(p)
    tol = _check_tol(tol)
    h = _xi_y_form(p)
    # rate = y/(y-1) is decreasing in y, so track the rate width directly:
    # with lo = a/q > 1 and hi = b/q, lo/(lo-1) - hi/(hi-1) equals
    # q(b - a)/((a - q)(b - q)).  h(1) = -1 < 0 and h(2) = 2^p - 3 > 0
    # bracket the root for every p >= 2.
    n, d = tol.numerator, tol.denominator
    lo, hi = _bisect(
        h,
        Fraction(1),
        Fraction(2),
        lambda a, b, q: a > q and q * (b - a) * d <= n * (a - q) * (b - q),
    )
    return RateResult(
        p,
        hi / (hi - 1),
        lo / (lo - 1),
        "y^p=y+1, rate=y/(y-1)",
        _residual(h, p, lo, hi),
    )


# Bounded: xi_asymptotic asks for one tolerance per (p, precision) pair.
@lru_cache(maxsize=64)
def ln2_enclosure(err: Fraction = Fraction(1, 10**30)) -> tuple[Fraction, Fraction]:
    """(value, error bound) with |value - ln 2| <= error, via
    ln 2 = 2 atanh(1/3) = 2 sum_{k>=0} (1/3)^(2k+1) / (2k+1)."""
    err = _check_tol(err)
    total = Fraction(0)
    k = 0
    q = Fraction(1, 3)
    term = q
    while True:
        total += term / (2 * k + 1)
        # remaining tail <= term * q^2 / (1 - q^2) / (2k+3)
        tail = term * q * q * Fraction(9, 8) / (2 * k + 3)
        if 2 * tail <= err:
            break
        term *= q * q
        k += 1
    return 2 * total, 2 * tail


def xi_asymptotic(p: int, precision: Fraction = Fraction(1, 10**12)) -> Fraction:
    """(p - 1/2)/ln 2 + 1/2 as a rational, within `precision` of the truth."""
    _check_p(p)
    precision = _check_tol(precision)
    ln2, e = ln2_enclosure(precision / (4 * p))
    # With v = ln2 and |v - ln 2| <= e < v, the error of (p-1/2)/v is
    # (p-1/2) |v - ln 2| / (v ln 2) <= (p-1/2) e / ((v - e) v).
    p_minus_half = Fraction(2 * p - 1, 2)
    if not (e < ln2 and p_minus_half * e / ((ln2 - e) * ln2) <= precision):
        raise ArithmeticError(f"ln 2 enclosure too wide for precision {precision}")
    return p_minus_half / ln2 + Fraction(1, 2)


@dataclass(frozen=True)
class RateReportRow:
    p: int
    zeta: RateResult
    xi: RateResult
    lambda_excess: Fraction  # zeta midpoint - p
    xi_over_2p_minus_1: Fraction
    asymptotic_gap: Fraction  # xi midpoint - ((p-1/2)/ln2 + 1/2)
    bounds_ok: bool  # p < zeta < p + 1/2, certified from the enclosure


def rate_report(p_max: int, tol: Fraction = DEFAULT_TOL) -> list[RateReportRow]:
    """One row per p in 2..p_max; flags any violated rate bound."""
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    rows = []
    for p in range(2, p_max + 1):
        z = zeta(p, tol)
        q = xi(p, tol)
        rows.append(
            RateReportRow(
                p=p,
                zeta=z,
                xi=q,
                lambda_excess=z.midpoint - p,
                xi_over_2p_minus_1=q.midpoint / (2 * p - 1),
                asymptotic_gap=q.midpoint - xi_asymptotic(p),
                bounds_ok=(p < z.low and z.high < Fraction(2 * p + 1, 2)),
            )
        )
    return rows


def _check_tol(tol) -> Fraction:
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return tol
