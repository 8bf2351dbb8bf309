"""Path counting for the finite-alphabet normal form language L_p.

A multiplicity automaton with 2p+1 states accepts exactly L_p, with the
number of length-n paths from the start state equal to the number of words
of length n in L_p.  States encode what a word ends with:

    q        the empty word
    q_0      ends with x_0^-1, or is a nonempty run of x_0 letters
    q_i      ends with x_i^+-1 (1 <= i <= p-1)
    q_{i,0}  ends with x_i^+-1 x_0
    qbar     ends with x_i^+-1 x_0^k, k >= 2

Multiplicities (an entry c means c letters lead from row state to column
state):

    q:       2 -> q_i for every 0 <= i <= p-1
    q_0:     1 -> q_0;  2 -> q_i (1 <= i <= p-1)
    q_i:     1 -> q_0;  1 -> q_{i,0};  1 -> q_j (1 <= j <= i);
             2 -> q_j (i < j <= p-1)
    q_{i,0}: 1 -> qbar;  1 -> q_j (i <= j <= p-1)
    qbar:    1 -> qbar

The generating function of path counts is

    Phi_p(t) = (1+t)/(1-t) * (1 - t(1-t)^(p-1)) / ((1-t)^p + (1-t)^(p-1) - 1).

All automaton counts come from a single walk that steps the 2p+1 state
counts one letter at a time, straight from the table above: the new q_j is
2(q + q_0) + sum_{i>=j} q_i + 2 sum_{i<j} q_i + sum_{i<=j} q_{i,0}, one
running sum over j; q_{i,0} takes q_i; q_0 and qbar take one sum each.  No
matrix is built, so a letter costs O(p).  language_counts sums each step's
counts, so a whole list of counts costs one walk; count_paths sums only the
n-th, keeping one set of counts at a time.  phi_series and
language_counts_bruteforce stay independent of the walk, as checks on it.

language_counts_bruteforce reads only normal_forms.is_in_Lp.  L_p is the set
of words avoiding the factors of patterns 1-5 in the normal_forms docstring,
so every prefix of a word of L_p is in L_p, and words._grow walks all of it,
testing 2p * sum_k |L_p ∩ Σ^k| words, which grows like xi^n, where
filtering every word of Σ^k would test (2p)^k.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator

from .series import PowerSeries, expand_rational
from .words import Letter, _check_p, _grow
from .normal_forms import is_in_Lp

BRUTE_FORCE_WORD_LIMIT = 10**7


class BruteForceGuardError(RuntimeError):
    pass


def _walk(p: int) -> Iterator[int]:
    """The one walk: the number of paths from q of length 0, 1, 2, ...

    q, q0 and qbar are counts; qi[i-1] and qi0[i-1] are those of q_i and
    q_{i,0}, 1 <= i <= p-1."""
    q, q0, qi, qi0, qbar = 1, 0, [0] * (p - 1), [0] * (p - 1), 0
    while True:
        s, s0 = sum(qi), sum(qi0)
        yield q + q0 + s + s0 + qbar
        # q_j gains 2(q + q0) + s, plus q_i for each i < j (2 letters, not 1)
        # and q_{i,0} for each i <= j
        below = itertools.accumulate(qi, initial=2 * (q + q0) + s)
        qj = list(map(operator.add, below, itertools.accumulate(qi0)))
        q, q0, qi, qi0, qbar = 0, 2 * q + q0 + s, qj, qi, qbar + s0


def language_counts(p: int, order: int) -> list[int]:
    """|L_p ∩ Σ^n| for every n < order, from a single walk."""
    _check_p(p)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return list(itertools.islice(_walk(p), order))


def count_paths(p: int, n: int) -> int:
    """Number of length-n paths from the start state = |L_p ∩ Σ^n|."""
    _check_p(p)
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    return next(itertools.islice(_walk(p), n, None))


def phi_series(p: int, order: int) -> PowerSeries:
    """Expansion of Phi_p(t); coefficient n counts |L_p ∩ Σ^n|."""
    _check_p(p)
    m = p + 2  # numerator and denominator have degree p + 1, so this is exact
    t = PowerSeries.x(m)
    q = (1 - t).int_power(p - 1)  # (1-t)^(p-1)
    numerator = (1 + t) * (1 - t * q)
    denominator = (1 - t) * (q * (1 - t) + q - 1)
    return expand_rational(numerator.coeffs, denominator.coeffs, order)


def language_counts_bruteforce(p: int, order: int) -> list[int]:
    """|L_p ∩ Σ^n| for every n < order, by testing words with is_in_Lp.

    L_p is closed under prefixes (module docstring), so words._grow meets
    each word of L_p of length < order exactly once, and the counts are the
    histogram of their lengths.

    The guard refuses before any word is tested when (2p)^(order-1), the
    words of the longest length, exceeds BRUTE_FORCE_WORD_LIMIT.  The walk
    tests at most (2p) + (2p)^2 + ... + (2p)^(order-1) words, and that sum
    is at most 2p/(2p-1) <= 4/3 times its last term, so the guard bounds
    the work by 4/3 of the limit.
    """
    _check_p(p)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order == 0:
        return []
    total = (2 * p) ** (order - 1)
    if total > BRUTE_FORCE_WORD_LIMIT:
        raise BruteForceGuardError(
            f"(2p)^n = {total} exceeds the enumeration limit "
            f"{BRUTE_FORCE_WORD_LIMIT}; use count_paths instead"
        )
    alphabet = [Letter(i, s) for i in range(p) for s in (1, -1)]
    counts = [0] * order
    for w in _grow(alphabet, order - 1, lambda v: is_in_Lp(p, v)):
        counts[len(w)] += 1
    return counts


def count_language_bruteforce(p: int, n: int) -> int:
    """|L_p ∩ Σ^n|, read off language_counts_bruteforce(p, n + 1)."""
    _check_p(p)
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    return language_counts_bruteforce(p, n + 1)[n]
