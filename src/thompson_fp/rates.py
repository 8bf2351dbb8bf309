"""Certified rational enclosures for the growth rates attached to F(p).

zeta(p): growth rate of the positive monoid, 1/x* where x* is the smallest
positive root of (1 - x^2)^(p-1) (1 + x - x^2) = 1; equivalently y = 1/x
solves (y^2 - 1)^(p-1) (y^2 + y - 1) = y^(2p).  Satisfies p < zeta < p + 1/2.

xi(p): exponential growth rate of the normal form language L_p (a lower
bound for the group growth rate), 1/t* where t* is the unique root in
(0, 1/2] of (1 - t)^p + (1 - t)^(p-1) = 1; equivalently xi solves
(2 xi - 1)(xi - 1)^(p-1) = xi^p, and y = (1 - t)^-1 solves y^p = y + 1.
Asymptotically xi(p) = (p - 1/2)/ln 2 + 1/2 + o(1).

All arithmetic is exact: polynomial signs are evaluated in Fractions and the
bisection maintains a sign change across the bracket, so the returned
enclosure [low, high] is mathematically guaranteed to contain the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable

from .words import _check_p

DEFAULT_TOL = Fraction(1, 10**9)


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
    f: Callable[[Fraction], Fraction],
    lo: Fraction,
    hi: Fraction,
    done: Callable[[Fraction, Fraction], bool],
) -> tuple[Fraction, Fraction]:
    """Shrink [lo, hi] with f(lo), f(hi) of opposite signs until done()."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise ArithmeticError(f"no sign change on [{lo}, {hi}]")
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


def _zeta_poly(p: int):
    def f(x: Fraction) -> Fraction:
        return (1 - x * x) ** (p - 1) * (1 + x - x * x) - 1

    return f


def _zeta_y_poly(p: int):
    def g(y: Fraction) -> Fraction:
        return (y * y - 1) ** (p - 1) * (y * y + y - 1) - y ** (2 * p)

    return g


def zeta(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Positive-monoid growth rate with enclosure width <= tol."""
    _check_p(p)
    tol = _check_tol(tol)
    f = _zeta_poly(p)
    hi = Fraction(1, p)
    if f(hi) >= 0:
        raise ArithmeticError(f"expected a sign change below x = 1/{p}")
    lo = hi / 2
    for _ in range(64):
        if f(lo) > 0:
            break
        lo /= 2
    else:
        raise ArithmeticError("could not find a positive left endpoint")
    lo, hi = _bisect(f, lo, hi, lambda a, b: 1 / a - 1 / b <= tol)
    low, high = 1 / hi, 1 / lo
    g = _zeta_y_poly(p)
    if low != high and (g(low) > 0) == (g(high) > 0) and g(low) != 0 and g(high) != 0:
        raise ArithmeticError("reciprocal-form polynomial does not bracket the root")
    return RateResult(
        p,
        low,
        high,
        "(1-x^2)^(p-1)*(1+x-x^2)=1, rate=1/x",
        max(abs(f(1 / high)), abs(f(1 / low))),
    )


def zeta_via_y(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Independent route: bisect (y^2-1)^(p-1)(y^2+y-1) - y^(2p) on [p, p+1/2]."""
    _check_p(p)
    tol = _check_tol(tol)
    g = _zeta_y_poly(p)
    lo, hi = _bisect(g, Fraction(p), Fraction(p) + Fraction(1, 2), lambda a, b: b - a <= tol)
    return RateResult(
        p, lo, hi, "(y^2-1)^(p-1)*(y^2+y-1)=y^(2p)", max(abs(g(lo)), abs(g(hi)))
    )


def _xi_poly(p: int):
    def f(t: Fraction) -> Fraction:
        return (1 - t) ** p + (1 - t) ** (p - 1) - 1

    return f


def xi(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Language growth rate (group growth lower bound), width <= tol."""
    _check_p(p)
    tol = _check_tol(tol)
    f = _xi_poly(p)
    lo, hi = Fraction(0), Fraction(1, 2)
    if f(hi) >= 0:
        raise ArithmeticError("expected (1-t)^p + (1-t)^(p-1) - 1 < 0 at t = 1/2")
    lo, hi = _bisect(f, lo, hi, lambda a, b: a > 0 and 1 / a - 1 / b <= tol)
    low, high = 1 / hi, 1 / lo
    # Cross-checks: both alternate forms must change sign over the enclosure.
    g = _xi_direct_poly(p)
    if low != high and (g(low) > 0) == (g(high) > 0):
        raise ArithmeticError("direct-form polynomial does not bracket the root")
    h = _xi_y_poly(p)
    y_lo, y_hi = 1 / (1 - lo), 1 / (1 - hi)
    if y_lo != y_hi and (h(y_lo) > 0) == (h(y_hi) > 0):
        raise ArithmeticError("y-form polynomial does not bracket the root")
    return RateResult(
        p,
        low,
        high,
        "(1-t)^p+(1-t)^(p-1)=1, rate=1/t",
        max(abs(f(1 / high)), abs(f(1 / low))),
    )


def _xi_direct_poly(p: int):
    def g(z: Fraction) -> Fraction:
        return (2 * z - 1) * (z - 1) ** (p - 1) - z**p

    return g


def _xi_y_poly(p: int):
    def h(y: Fraction) -> Fraction:
        return y**p - y - 1

    return h


def xi_via_direct(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Independent route: bisect (2z-1)(z-1)^(p-1) - z^p on [1, 2p]."""
    _check_p(p)
    tol = _check_tol(tol)
    g = _xi_direct_poly(p)
    lo, hi = _bisect(g, Fraction(1), Fraction(2 * p), lambda a, b: b - a <= tol)
    return RateResult(
        p, lo, hi, "(2z-1)(z-1)^(p-1)=z^p", max(abs(g(lo)), abs(g(hi)))
    )


def xi_via_y(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Independent route: bisect y^p - y - 1 on [1, 2]; rate = 1/(1 - 1/y)."""
    _check_p(p)
    tol = _check_tol(tol)
    h = _xi_y_poly(p)
    # rate = y/(y-1) is decreasing in y, so track the rate width directly;
    # h(1) = -1 < 0 and h(2) = 2^p - 3 > 0 bracket the root for every p >= 2.
    lo, hi = _bisect(
        h,
        Fraction(1),
        Fraction(2),
        lambda a, b: a > 1 and a / (a - 1) - b / (b - 1) <= tol,
    )
    return RateResult(
        p,
        hi / (hi - 1),
        lo / (lo - 1),
        "y^p=y+1, rate=y/(y-1)",
        max(abs(h(lo)), abs(h(hi))),
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
    # |d/dL (p-1/2)/L| <= (p-1/2)/ (ln2 - e)^2 < 3p for e tiny; margin is ample.
    return (Fraction(2 * p - 1, 2)) / ln2 + Fraction(1, 2)


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
