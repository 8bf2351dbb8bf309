"""Exact truncated power series and the positive growth series of F(p).

PowerSeries coefficients are ints: every series here counts something, and
every series divided by has constant term ±1, so no rational or floating
point number enters this module.  A PowerSeries of order N carries
coefficients 0..N-1; binary operations truncate to the smaller order.

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

    L = 1 / (1 - x M),   Q = 1 / (1 - x^2 M),   R = (1 - x^2) M_{p-1} Q,
    S = (1 - x^2) M / ((1 - x M)(1 - x^2 M)) = (1 + x)(L - Q) / x.

With N = (1 - x^3 M)^-1 the master equation becomes
x N^p + (x^3 - x - 1) N + 1 = 0.

The series is solved once, in integers, from that equation: rearranged to
(1 + x - x^3) N = 1 + x N^p it is a triangular recurrence for the
coefficients of N, which reads N^p, and every other power W = N^a comes
from N by J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
comparing coefficients of x^(k-1) in N W' = a N' W, with N_0 = 1, gives

    k W_k = sum_{j=1..k} ((a + 1) j - k) N_j W_{k-j},

O(k) products per coefficient whatever a is.  The division by k is exact
because W has integer coefficients; it is checked all the same.  Each P_i
is read from N^i.  `solve_M` asks for N^(p-1) and N^p, O(n^2) products
for n coefficients.  One private tail, `_tail`, takes L, Q and S from M
on plain int lists, dividing nothing; `positive_counts`, which the CLI
prints, is its S of `solve_M`'s M.  The bundle, `positive_growth_series`,
which `verify`, the tests and the acceptance file read, asks for N .. N^p
(O(p n^2) products), makes the module's p - 1 series divisions,
M_i = P_i / P_{i-1}, and takes L, Q and S from the same tail.  Its
factored route L M_1...M_{p-2} R multiplies the quotients and the tail's
L and Q, so its one comparison with the tail's S fails if either is wrong.
The powers' references are
`PowerSeries.int_power`, which squares by schoolbook products,
`check_eqonn`'s residual and the brute-force census.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple, Sequence

from .words import _check_p


def _whole(c) -> int:
    if isinstance(c, int):
        return int(c)
    raise ArithmeticError(f"non-integer coefficient {c} in counting series")


class PowerSeries(NamedTuple):
    coeffs: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int], order: int | None = None) -> "PowerSeries":
        """The series with these int coefficients, cut or zero-padded to
        order.  Any other coefficient, a Fraction included, raises
        ArithmeticError, and a negative order raises ValueError."""
        cs = [_whole(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError(f"series order must be >= 0, got {order}")
            cs = cs[:order] + [0] * (order - len(cs))
        return cls(tuple(cs))

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        return cls.from_coeffs([0, 1], order)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, order: int) -> "PowerSeries":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
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
        if isinstance(other, int):
            return PowerSeries(tuple(c * other for c in self.coeffs))
        other = _coerce(other, self.order)
        n = min(self.order, other.order)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                if b != 0:
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PowerSeries":
        """self/other in one pass of the triangular recurrence.  other's
        constant term must be ±1, a unit that is its own inverse, so every
        coefficient of the quotient stays an integer."""
        other = _coerce(other, self.order)
        b = other.coeffs
        if not b or b[0] == 0:
            raise ZeroDivisionError("series with zero constant term cannot divide")
        b0 = b[0]
        if b0 not in (1, -1):
            raise ArithmeticError(f"constant term {b0} is not ±1; no integral quotient")
        n = min(self.order, other.order)
        terms = [(k, c) for k, c in enumerate(b[1:n], 1) if c != 0]
        out = list(self.coeffs[:n])
        for i in range(n):
            acc = out[i]
            for k, c in terms:
                if k > i:
                    break
                acc -= c * out[i - k]
            out[i] = b0 * acc
        return PowerSeries(tuple(out))

    def int_power(self, k: int) -> "PowerSeries":
        if k < 0:
            return (PowerSeries.one(self.order) / self).int_power(-k)
        result = PowerSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result


def _coerce(v, order: int) -> PowerSeries:
    if isinstance(v, PowerSeries):
        return v
    if isinstance(v, int):
        return PowerSeries.from_coeffs([v], order)
    raise TypeError(f"cannot treat {type(v).__name__} as a power series")


def _n_powers(p: int, order: int, exponents: Sequence[int]) -> list[list[int]]:
    """Coefficients 0..order+1 of N^a for each a in exponents, which must
    include p.

    N solves (1 + x - x^3) N = 1 + x N^p.  Coefficient k of x N^p needs only
    N_0..N_{k-1}, so N_k = [k=0] + (N^p)_{k-1} - N_{k-1} + N_{k-3}, after
    which coefficient k of every other power follows from N by Miller's
    recurrence (module docstring), its division by k checked exact."""
    size = order + 2
    # N = 1 + O(x^3), so N and its powers all begin 1, 0, 0, and Miller's
    # sums start at j = 3; N^1 is N itself
    n = [1] + [0] * (size - 1)
    powers = {a: n if a == 1 else n[:] for a in exponents}
    wp = powers[p]
    stepped = [(a, w) for a, w in powers.items() if a != 1]
    for k in range(3, size):
        n[k] = wp[k - 1] - n[k - 1] + n[k - 3]
        for a, w in stepped:
            # ((a + 1) j - k) for j = 3..k, times N_j, times W_{k-j}
            c = map(mul, range(3 * a + 3 - k, a * k + 1, a + 1), n[3:k + 1])
            w[k], r = divmod(sum(map(mul, c, reversed(w[:k - 2]))), k)
            if r:
                raise ArithmeticError(f"coefficient {k} of N^{a} is not an integer")
    return [powers[a] for a in exponents]


def _p_series(n_power: list[int], order: int) -> PowerSeries:
    """P_i = M_1...M_i = 1 + x^-2 (N^i - 1) from coefficients 0..order+1 of
    N^i.  N = 1 + O(x^3), so coefficient k >= 1 of P_i is (N^i)_{k+2}."""
    return PowerSeries.from_coeffs([1] + n_power[3:], order)


def solve_M(p: int, order: int) -> PowerSeries:
    """Middle-subtree product M = M_1...M_{p-1} = P_{p-1}, which solves

        M = 1 + x^-2 ((1 - x^3 M)^-(p-1) - 1)."""
    _check_p(p)
    return _p_series(_n_powers(p, order, (p - 1, p))[0], order)


def _tail(m: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """L = 1/(1 - xM) and Q = 1/(1 - x^2 M) at order n + 1, and S =
    (1 + x)(L - Q)/x at order n, from M at order n, as int lists: the one
    route to them, shared by `positive_counts`, the bundle and the census."""
    order = len(m)
    l, q = [1] + [0] * order, [1] + [0] * order  # so that (L - Q)/x keeps order n
    for k in range(1, order + 1):
        l[k] = sum(map(mul, m[:k], reversed(l[:k])))
        q[k] = sum(map(mul, m[:k - 1], reversed(q[:k - 1])))
    lq = [x - y for x, y in zip(l[1:], q[1:])]  # (L - Q)/x
    return l, q, [x + y for x, y in zip(lq, [0] + lq)]


def positive_counts(p: int, order: int) -> list[int]:
    """s_0 .. s_{order-1}: S from `_tail` of M = `solve_M`."""
    _check_p(p)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return _tail(solve_M(p, order).coeffs)[2]


class GrowthSeriesBundle(NamedTuple):
    p: int
    order: int
    mi: tuple[PowerSeries, ...]  # M_1 .. M_{p-1}
    m: PowerSeries
    l: PowerSeries
    r: PowerSeries
    s: PowerSeries

    def counts(self) -> list[int]:
        return series_to_ints(self.s)


def positive_growth_series(p: int, order: int) -> GrowthSeriesBundle:
    """All subtree series plus S, from `_tail`, checked by the factored route."""
    _check_p(p)
    powers = _n_powers(p, order, range(1, p + 1))
    ps = [PowerSeries.one(order)] + [_p_series(w, order) for w in powers[:-1]]
    m = ps[-1]
    mi = tuple(ps[i] / ps[i - 1] for i in range(1, p))
    l, q, s = (PowerSeries(tuple(c)) for c in _tail(m.coeffs))
    mq = mi[-1] * q
    r = mq - PowerSeries((0, 0) + mq.coeffs)
    s_factored = l * r
    for m_i in mi[:-1]:
        s_factored = s_factored * m_i
    if s != s_factored:
        raise ArithmeticError("the two routes to S disagree")
    return GrowthSeriesBundle(p, order, mi, m, l.truncate(order), r, s)


def expand_rational(num: Sequence[int], den: Sequence[int], order: int) -> PowerSeries:
    """Taylor coefficients of num(x)/den(x); den must have constant term ±1."""
    n = PowerSeries.from_coeffs(num, order)
    d = PowerSeries.from_coeffs(den, order)
    return n / d


def check_eqonn(p: int, order: int) -> PowerSeries:
    """Residual of x N^p + (x^3 - x - 1) N + 1 with N = (1 - x^3 M)^-1;
    identically zero when everything is consistent."""
    _check_p(p)
    m = solve_M(p, order)
    one = PowerSeries.one(order)
    x = PowerSeries.x(order)
    x3 = x.int_power(3)
    n = one / (one - x3 * m)
    return x * n.int_power(p) + (x3 - x - one) * n + one


def series_to_ints(s: PowerSeries) -> list[int]:
    return list(s.coeffs)
