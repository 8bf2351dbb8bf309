"""Exact truncated power series and the positive growth series of F(p).

PowerSeries coefficients are Fractions; no floating point enters this
module.  A PowerSeries of order N carries coefficients 0..N-1; binary
operations truncate to the smaller order.

The positive growth series S(x) = sum s_n x^n (s_n = number of positive
elements of word length n) factors as S = L M_1 ... M_{p-2} R over the
subtree generating functions, which satisfy

    L - 1   = x L M_1...M_{p-1}
    R       = M_{p-1} + x^2 (M_1...M_{p-1} R - M_{p-1})
    M_i - 1 = x M_i...M_{p-1} + x^3 M_i...M_{p-1} (M_1...M_{i-1} M_i - 1)

Writing M = M_1...M_{p-1}, the middle equations telescope to

    M_1...M_i = 1 + x^-2 ((1 - x^3 M)^-i - 1)        (P_i below)

so M solves x^2 M = (1 - x^3 M)^-(p-1) + x^2 - 1, each M_i = P_i / P_{i-1},
and everything collapses to

    L = 1 / (1 - x M),   R = (1 - x^2) M_{p-1} / (1 - x^2 M),
    S = (1 - x^2) M / ((1 - x M)(1 - x^2 M)).

With N = (1 - x^3 M)^-1 the master equation becomes
x N^p + (x^3 - x - 1) N + 1 = 0.

The series is solved once, in integers, from that equation: rearranged to
(1 + x - x^3) N = 1 + x N^p it is a triangular recurrence for the
coefficients of N, carried along with those of N^2 .. N^p.  Every P_i is
read from N^i, then M = P_{p-1} and M_i = P_i / P_{i-1}; L, R and S follow
in Fraction arithmetic, with S reached two ways as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .words import _check_p

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class PowerSeries:
    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Scalar], order: int | None = None) -> "PowerSeries":
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < len(cs):
                cs = cs[:order]
            else:
                cs.extend([Fraction(0)] * (order - len(cs)))
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls((Fraction(0),) * order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        return cls.from_coeffs([0, 1], order)

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k < self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return PowerSeries(self.coeffs[:order])

    def __add__(self, other) -> "PowerSeries":
        other = _coerce(other, self.order)
        n = min(self.order, other.order)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])))

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "PowerSeries":
        return self + (-_coerce(other, self.order))

    def __rsub__(self, other) -> "PowerSeries":
        return _coerce(other, self.order) - self

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return PowerSeries(tuple(c * q for c in self.coeffs))
        n = min(self.order, other.order)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                if b != 0:
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    __rmul__ = __mul__

    def reciprocal(self) -> "PowerSeries":
        a = self.coeffs
        if not a or a[0] == 0:
            raise ZeroDivisionError("series with zero constant term has no reciprocal")
        inv0 = 1 / a[0]
        out = [inv0] + [Fraction(0)] * (self.order - 1)
        for n in range(1, self.order):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if a[k] != 0:
                    acc += a[k] * out[n - k]
            out[n] = -inv0 * acc
        return PowerSeries(tuple(out))

    def int_power(self, k: int) -> "PowerSeries":
        if k < 0:
            return self.reciprocal().int_power(-k)
        result = PowerSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift_up(self, k: int) -> "PowerSeries":
        """Multiply by x^k (same order; top coefficients fall off)."""
        if k < 0:
            raise ValueError("shift_up needs k >= 0")
        return PowerSeries(((Fraction(0),) * k + self.coeffs)[: self.order])

    def divide_xk(self, k: int) -> "PowerSeries":
        """Exact division by x^k; order drops by k."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ArithmeticError(f"series is not divisible by x^{k}")
        return PowerSeries(self.coeffs[k:])


def _coerce(v, order: int) -> PowerSeries:
    if isinstance(v, PowerSeries):
        return v
    if isinstance(v, (int, Fraction)):
        return PowerSeries.from_coeffs([v], order)
    raise TypeError(f"cannot treat {type(v).__name__} as a power series")


DEFAULT_ORDER = 30


def _solve_n_powers(p: int, order: int) -> list[list[int]]:
    """Coefficients 0..order+1 of N, N^2, ..., N^p (index j holds N^(j+1)).

    N solves (1 + x - x^3) N = 1 + x N^p.  Coefficient k of x N^p needs only
    N_0..N_{k-1}, so N_k = [k=0] + (N^p)_{k-1} - N_{k-1} + N_{k-3}, after
    which coefficient k of each higher power follows from the one below it."""
    size = order + 2
    powers = [[0] * size for _ in range(p)]
    n = powers[0]
    for k in range(size):
        n[k] = 1 if k == 0 else powers[-1][k - 1] - n[k - 1]
        if k >= 3:
            n[k] += n[k - 3]
        for lower, higher in zip(powers, powers[1:]):
            higher[k] = sum(lower[t] * n[k - t] for t in range(k + 1))
    return powers


def _p_products(p: int, order: int) -> list[PowerSeries]:
    """P_0, ..., P_{p-1}, where P_i = M_1...M_i = 1 + x^-2 (N^i - 1).

    N = 1 + O(x^3), so coefficient k of x^-2 (N^i - 1) is (N^i)_{k+2}."""
    one = PowerSeries.one(order)
    powers = _solve_n_powers(p, order)[:-1]
    return [one] + [one + PowerSeries.from_coeffs(c[2:]) for c in powers]


def solve_M(p: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Middle-subtree product M = M_1...M_{p-1} = P_{p-1}, which solves

        M = 1 + x^-2 ((1 - x^3 M)^-(p-1) - 1)."""
    _check_p(p)
    return _p_products(p, order)[-1]


def solve_Mi(p: int, i: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Middle-subtree series M_i = P_i / P_{i-1} for 1 <= i <= p-1."""
    _check_p(p)
    if not 1 <= i <= p - 1:
        raise ValueError(f"middle index must be in 1..{p - 1}, got {i}")
    ps = _p_products(p, order)
    return ps[i] * ps[i - 1].reciprocal()


@dataclass(frozen=True)
class GrowthSeriesBundle:
    p: int
    order: int
    mi: tuple[PowerSeries, ...]  # M_1 .. M_{p-1}
    m: PowerSeries
    l: PowerSeries
    r: PowerSeries
    s: PowerSeries

    def counts(self) -> list[int]:
        return series_to_ints(self.s)


def positive_growth_series(p: int, order: int = DEFAULT_ORDER) -> GrowthSeriesBundle:
    """All subtree series plus S, computed two ways and cross-checked."""
    _check_p(p)
    ps = _p_products(p, order)
    m = ps[-1]
    mi = tuple(ps[i] * ps[i - 1].reciprocal() for i in range(1, p))
    prod = PowerSeries.one(order)
    for s_i in mi:
        prod = prod * s_i
    if prod != m:
        raise ArithmeticError("product of M_i disagrees with M")
    one = PowerSeries.one(order)
    x = PowerSeries.x(order)
    x2 = x * x
    l = (one - x * m).reciprocal()
    r = (one - x2) * mi[-1] * (one - x2 * m).reciprocal()
    s_closed = (one - x2) * m * ((one - x * m) * (one - x2 * m)).reciprocal()
    s_factored = l
    for s_i in mi[:-1]:
        s_factored = s_factored * s_i
    s_factored = s_factored * r
    if s_closed != s_factored:
        raise ArithmeticError("the two routes to S disagree")
    return GrowthSeriesBundle(p, order, mi, m, l, r, s_closed)


def expand_rational(
    num: Sequence[Scalar], den: Sequence[Scalar], order: int
) -> PowerSeries:
    """Taylor coefficients of num(x)/den(x); den must have nonzero constant."""
    n = PowerSeries.from_coeffs(num, order)
    d = PowerSeries.from_coeffs(den, order)
    return n * d.reciprocal()


def check_eqonn(p: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Residual of x N^p + (x^3 - x - 1) N + 1 with N = (1 - x^3 M)^-1;
    identically zero when everything is consistent."""
    _check_p(p)
    m = solve_M(p, order)
    one = PowerSeries.one(order)
    x = PowerSeries.x(order)
    n = (one - m.shift_up(3)).reciprocal()
    return x * n.int_power(p) + (x.int_power(3) - x - one) * n + one


def series_to_ints(s: PowerSeries) -> list[int]:
    out = []
    for c in s.coeffs:
        if c.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient {c} in counting series")
        out.append(c.numerator)
    return out
