"""Certified rational enclosures for the growth rates attached to F(p).

zeta(p): growth rate of the positive monoid, the root in (p, p + 1/2) of
(y^2 - 1)^(p-1) (y^2 + y - 1) = y^(2p); equivalently x = 1/y is the smallest
positive root of (1 - x^2)^(p-1) (1 + x - x^2) = 1.  Satisfies p < zeta < p + 1/2.

xi(p): exponential growth rate of the normal form language L_p (a lower
bound for the group growth rate), the root z > 1 of (2z - 1)(z - 1)^(p-1) = z^p;
equivalently t = 1/z is the unique root in (0, 1/2] of
(1 - t)^p + (1 - t)^(p-1) = 1, and y = (1 - t)^-1 = z/(z - 1) solves y^p = y + 1.
Asymptotically xi(p) = (p - 1/2)/ln 2 + 1/2 + o(1).

All arithmetic is exact.  Each rate's equation g(z) = 0 of degree d is written
once, as its homogeneous integer form G(A, Q) = Q^d g(A/Q).  The four routes
read it through a Moebius map z = (alpha x + beta)/(gamma x + delta) from the
route's root x to the rate: x, 1/x or y/(y - 1).  The route's form is then
F(a, q) = G(alpha a + beta q, gamma a + delta q), which is q^d f(a/q) for the
polynomial f(x) = (gamma x + delta)^d g(z), so F(a, q) has the sign of f(a/q).
One routine, `_enclose`, serves all four routes.  It bisects on integers
a < b over one shared q > 0, so there is no rounding and no gcd.  It stops
once the rate's width over the bracket [a/q, b/q],
|alpha delta - beta gamma| q (b - a) / ((gamma a + delta q)(gamma b + delta q)),
is at most tol, compared in integers; while the denominator product is not
> 0, a pole lies in the bracket and the test fails.  The bracket keeps a sign
change of f, so its image, the enclosure, is guaranteed to contain the rate.
Every certificate is an integer sign test of a form: the bracket's sign
change, and the end checks of zeta and xi.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple

from .words import _check_p

DEFAULT_TOL = Fraction(1, 10**9)

# F(a, q) = q^d f(a/q) for a root equation f of degree d; it has the sign of f.
_Form = Callable[[int, int], int]
# done(a, b, q): whether the bracket [a/q, b/q] is narrow enough.
_Done = Callable[[int, int, int], bool]


class RateResult(NamedTuple):
    p: int
    low: Fraction
    high: Fraction
    equation: str

    @property
    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2


def _bisect(form: _Form, lo: Fraction, hi: Fraction, done: _Done) -> tuple[Fraction, Fraction]:
    """Shrink [lo, hi] until done(a, b, q), where [a/q, b/q] is the bracket,
    keeping form(a, q) and form(b, q) of opposite signs.  A step doubles a, b
    and q; the midpoint of [a/q, b/q] is then (a + b) over the doubled q,
    exactly the rational (lo + hi)/2."""
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


# The map x -> (alpha x + beta)/(gamma x + delta) from a root to its rate, as
# (alpha, beta, gamma, delta).  Each of the three is its own inverse.
_Map = tuple[int, int, int, int]
_X: _Map = (1, 0, 0, 1)
_ONE_OVER_X: _Map = (0, 1, 1, 0)
_Y_OVER_Y_MINUS_1: _Map = (1, 0, 1, -1)


def _image(m: _Map, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """(low, high), the image of [lo, hi] under m, which has no pole there;
    m keeps the order where alpha delta > beta gamma and reverses it elsewhere."""
    al, be, ga, de = m
    ends = [
        Fraction(al * n + be * d, ga * n + de * d)
        for n, d in (lo.as_integer_ratio(), hi.as_integer_ratio())
    ]
    return (ends[0], ends[1]) if al * de > be * ga else (ends[1], ends[0])


def _width_test(m: _Map, tol: Fraction) -> _Done:
    """done(a, b, q) for: m has no pole on [a/q, b/q], where the denominators
    u = gamma a + delta q and v = gamma b + delta q = u + gamma (b - a) have
    u v > 0, and the image there, |alpha delta - beta gamma| q (b - a)/(u v)
    wide, is at most tol wide."""
    al, be, ga, de = m
    k, n = abs(al * de - be * ga) * tol.denominator, tol.numerator

    def done(a: int, b: int, q: int) -> bool:
        w = b - a
        u = ga * a + de * q
        den = u * (u + ga * w)
        return den > 0 and k * w * q <= n * den

    return done


class _Equation(NamedTuple):
    """A root equation f(x) = 0: its form F(a, q) = q^d f(a/q), the map
    from its root to the rate, and the text a RateResult prints.  A tuple,
    so building one per call is cheap."""

    p: int
    form: _Form
    rate: _Map
    text: str

    def at(self, x: Fraction) -> int:
        """The form at x's lowest terms, an int with the sign of f(x)."""
        return self.form(*x.as_integer_ratio())


def _enclose(eq: _Equation, lo: Fraction, hi: Fraction, tol: Fraction) -> RateResult:
    """Bisect eq on [lo, hi] until its rate is enclosed within tol."""
    lo, hi = _bisect(eq.form, lo, hi, _width_test(eq.rate, _check_tol(tol)))
    return RateResult(eq.p, *_image(eq.rate, lo, hi), eq.text)


# The two root equations, each read through the map from a route's root to
# the rate.  Each builder checks p, so a route checks p before tol.


def _zeta_eq(p: int, rate: _Map, text: str) -> _Equation:
    """g(y) = (y^2 - 1)^(p-1) (y^2 + y - 1) - y^(2p) at y = rate(x)."""
    _check_p(p)
    al, be, ga, de = rate

    def form(a: int, q: int) -> int:
        a, q = al * a + be * q, ga * a + de * q
        aa = a * a
        c = aa - q * q
        return c ** (p - 1) * (c + a * q) - aa**p

    return _Equation(p, form, rate, text)


def _xi_eq(p: int, rate: _Map, text: str) -> _Equation:
    """g(z) = (2z - 1)(z - 1)^(p-1) - z^p at z = rate(x)."""
    _check_p(p)
    al, be, ga, de = rate

    def form(a: int, q: int) -> int:
        a, q = al * a + be * q, ga * a + de * q
        return (2 * a - q) * (a - q) ** (p - 1) - a**p

    return _Equation(p, form, rate, text)


def zeta(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Positive-monoid growth rate with enclosure width <= tol."""
    f = _zeta_eq(p, _ONE_OVER_X, "(1-x^2)^(p-1)*(1+x-x^2)=1, rate=1/x")
    hi = Fraction(1, p)
    if f.at(hi) >= 0:
        raise ArithmeticError(f"expected a sign change below x = 1/{p}")
    # f(1/(2p)) > 0 for every p >= 2.  With x = 1/(2p), Bernoulli gives
    # (1 - x^2)^(p-1) >= 1 - (p-1) x^2 > 1 - 1/(4p), and 1 + x - x^2 > 0, so
    # f(x) + 1 > (1 - 1/(4p)) (1 + 1/(2p) - 1/(4p^2))
    #          = 1 + (2p - 3)/(8p^2) + 1/(16p^3) > 1.
    lo = hi / 2
    if f.at(lo) <= 0:
        raise ArithmeticError(f"expected f > 0 at x = 1/{2 * p}")
    return _enclose(f, lo, hi, tol)


def zeta_via_y(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Bisect (y^2-1)^(p-1)(y^2+y-1) - y^(2p) on [p, p+1/2].  It reads zeta's
    form through the identity map, so it checks `_bisect`, `_image` and the
    map, not the polynomial.  It stays because the acceptance tests read it."""
    f = _zeta_eq(p, _X, "(y^2-1)^(p-1)*(y^2+y-1)=y^(2p)")
    return _enclose(f, Fraction(p), Fraction(2 * p + 1, 2), tol)


def xi(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Language growth rate (group growth lower bound), width <= tol."""
    f = _xi_eq(p, _ONE_OVER_X, "(1-t)^p+(1-t)^(p-1)=1, rate=1/t")
    if f.at(Fraction(1, 2)) >= 0:
        raise ArithmeticError("expected (1-t)^p + (1-t)^(p-1) - 1 < 0 at t = 1/2")
    return _enclose(f, Fraction(0), Fraction(1, 2), tol)


def xi_via_y(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Bisect y^p - y - 1 on [1, 2]; rate = y/(y - 1).
    Through y/(y - 1), xi's form is -(y^p - y - 1), which has the same roots.
    h(1) = -1 < 0 and h(2) = 2^p - 3 > 0 bracket the root for every p >= 2.
    It reads xi's form through another map, so it checks `_bisect`, `_image`
    and the map, not the polynomial.  It stays because perfbench/checks.py
    reads it."""
    f = _xi_eq(p, _Y_OVER_Y_MINUS_1, "y^p=y+1, rate=y/(y-1)")
    return _enclose(f, Fraction(1), Fraction(2), tol)


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


class RateReportRow(NamedTuple):
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
