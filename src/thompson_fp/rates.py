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
One routine, `_enclose`, serves all four routes.  It returns the bracket
that bisection on integers a < b over one shared q > 0 returns, so there is
no rounding and no gcd, once the rate's width over the bracket [a/q, b/q],
|alpha delta - beta gamma| q (b - a) / ((gamma a + delta q)(gamma b + delta q)),
is at most tol, compared in integers; while the denominator product is not
> 0, a pole lies in the bracket and the test fails.  `_bisect` finds that
bracket with about 20 form evaluations, not one per bit: it interpolates to
jump between bisection's dyadic cells, keeps one cell with a sign change of
f, and falls back to a bisection step when a jump misses.  Its bracket is
bisection's because each route's f has exactly one root in its start
bracket, so the cell with a sign change is bisection's cell:
- xi's t-form (1 - t)^p + (1 - t)^(p-1) - 1 decreases on [0, 1/2];
- y^p - y - 1 increases on [1, 2], where p y^(p-1) - 1 > 0;
- on [1/(2p), 1/p], the log-derivative of (1 - x^2)^(p-1) (1 + x - x^2),
  -2(p-1) x/(1 - x^2) + (1 - 2x)/(1 + x - x^2), is below
  -(p-1)/p + (p-1)/p = 0, and zeta_via_y's [p, p + 1/2] maps into it by 1/y.
The search keeps one invariant: its cell's two end forms are nonzero and of
opposite signs, so the bracket's image, the enclosure, contains the rate.
The one certificate is the integer sign test of the start bracket's ends.
A form of 0 is refused, and no route meets one.  zeta's g(y) and xi's g(z)
have leading coefficient 1, constant (-1)^p and no root at +-1 (zeta's
g(+-1) = -1; xi's g(1) = -1, |g(-1)| = 3 2^(p-1) - 1), so by the rational
root theorem no rational root.  At a pole the form is G(A, 0), A^d times
g's coefficient of degree d: q^p for xi at t = 0 and xi_via_y at y = 1,
inside their brackets; zeta's pole x = 0 lies outside [1/(2p), 1/p], and
zeta_via_y's identity map has none.
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


def _bisect(
    form: _Form, degree: int, lo: Fraction, hi: Fraction, done: _Done
) -> tuple[Fraction, Fraction]:
    """The bracket that bisecting [lo, hi] until done returns, for a form of
    the given degree with one root in [lo, hi], a sign change, and no zero
    at a dyadic point, as each route's form has (see the module docstring).

    With a0/q = lo and w = (hi - lo) q, bisection's bracket after j steps is
    a cell [a, a + w]/(q 2^j) with a = a0 2^j + k w.  The search holds one
    cell whose ends have forms of opposite signs; with one root, that cell
    and its ancestors are bisection's brackets.  It interpolates between the
    cell's ends to name the cell m levels deeper and evaluates that cell's
    ends: on a sign change it takes that cell and doubles m, else it takes
    one bisection step and sets m to 1.  Each point's form is evaluated once,
    at its least depth i, and read at depth j as 2^(degree (j - i)) times
    that, since F(2a, 2q) = 2^degree F(a, q); a wrong degree slows the jumps
    and changes no result.  done holds on every cell inside a done cell, so
    a binary search over the first done cell's ancestors finds bisection's
    stopping depth with no further form.  Raises ArithmeticError when the
    ends of [lo, hi] show no sign change or a form is 0."""
    q = lcm(lo.denominator, hi.denominator)
    a0 = lo.numerator * (q // lo.denominator)
    w = hi.numerator * (q // hi.denominator) - a0
    known: dict[tuple[int, int], int] = {}

    def value(j: int, k: int) -> int:
        """The form at (a0 2^j + k w)/(q 2^j), point n of the least depth i."""
        t = (k & -k).bit_length() - 1 if k else j
        i, n = j - t, k >> t
        if (i, n) not in known:
            a, qi = (a0 << i) + n * w, q << i
            known[i, n] = form(a, qi)
            if known[i, n] == 0:
                raise ArithmeticError(f"the form is 0 at {Fraction(a, qi)}")
        return known[i, n] << degree * (j - i)

    def cell(j: int, k: int) -> tuple[int, int, int]:
        a = (a0 << j) + k * w
        return a, a + w, q << j

    fl, fr = value(0, 0), value(0, 1)
    pos_low = fl > 0
    if pos_low == (fr > 0):
        raise ArithmeticError(f"no sign change on [{lo}, {hi}]")
    # In the loop the certified cell (j, k) is not done, and its ends have
    # the nonzero forms fl and fr at depth j, fl of the sign pos_low.
    j, k, m = 0, 0, 1
    while not done(*cell(j, k)):
        jm, km = j + m, (k << m) + (fl << m) // (fl - fr)
        gl = value(jm, km)
        if (gl > 0) == pos_low:
            gr = value(jm, km + 1)
            if (gr > 0) != pos_low:
                j, k, m, fl, fr = jm, km, 2 * m, gl, gr
                continue
        gm = value(j + 1, 2 * k + 1)
        if (gm > 0) == pos_low:
            j, k, fl, fr = j + 1, 2 * k + 1, gm, fr << degree
        else:
            j, k, fl, fr = j + 1, 2 * k, fl << degree, gm
        m = 1
    # Bisection stops at (j, k)'s least done ancestor; depth 0 is done only if j = 0.
    i = 0
    while j - i > 1:
        mid = (i + j) // 2
        if done(*cell(mid, k >> j - mid)):
            j, k = mid, k >> j - mid
        else:
            i = mid
    a, b, qj = cell(j, k)
    return Fraction(a, qj), Fraction(b, qj)


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
    """A root equation f(x) = 0: its form F(a, q) = q^d f(a/q), the degree
    d, the map from its root to the rate, and the text a RateResult prints.
    A tuple, so building one per call is cheap."""

    p: int
    form: _Form
    degree: int
    rate: _Map
    text: str


def _enclose(eq: _Equation, lo: Fraction, hi: Fraction, tol: Fraction) -> RateResult:
    """Bisect eq on [lo, hi] until its rate is enclosed within tol."""
    lo, hi = _bisect(eq.form, eq.degree, lo, hi, _width_test(eq.rate, _check_tol(tol)))
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

    return _Equation(p, form, 2 * p, rate, text)


def _xi_eq(p: int, rate: _Map, text: str) -> _Equation:
    """g(z) = (2z - 1)(z - 1)^(p-1) - z^p at z = rate(x)."""
    _check_p(p)
    al, be, ga, de = rate

    def form(a: int, q: int) -> int:
        a, q = al * a + be * q, ga * a + de * q
        return (2 * a - q) * (a - q) ** (p - 1) - a**p

    return _Equation(p, form, p, rate, text)


def zeta(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Positive-monoid growth rate with enclosure width <= tol."""
    f = _zeta_eq(p, _ONE_OVER_X, "(1-x^2)^(p-1)*(1+x-x^2)=1, rate=1/x")
    # f(1/(2p)) > 0 for every p >= 2.  With x = 1/(2p), Bernoulli gives
    # (1 - x^2)^(p-1) >= 1 - (p-1) x^2 > 1 - 1/(4p), and 1 + x - x^2 > 0, so
    # f(x) + 1 > (1 - 1/(4p)) (1 + 1/(2p) - 1/(4p^2))
    #          = 1 + (2p - 3)/(8p^2) + 1/(16p^3) > 1.
    return _enclose(f, Fraction(1, 2 * p), Fraction(1, p), tol)


def zeta_via_y(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Bisect (y^2-1)^(p-1)(y^2+y-1) - y^(2p) on [p, p+1/2].  It reads zeta's
    form through the identity map, so it checks `_bisect`, `_image` and the
    map, not the polynomial.  It stays because the acceptance tests read it."""
    f = _zeta_eq(p, _X, "(y^2-1)^(p-1)*(y^2+y-1)=y^(2p)")
    return _enclose(f, Fraction(p), Fraction(2 * p + 1, 2), tol)


def xi(p: int, tol: Fraction = DEFAULT_TOL) -> RateResult:
    """Language growth rate (group growth lower bound), width <= tol."""
    f = _xi_eq(p, _ONE_OVER_X, "(1-t)^p+(1-t)^(p-1)=1, rate=1/t")
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
