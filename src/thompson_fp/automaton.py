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

All automaton counts come from a single walk that steps the per-state count
vector one letter at a time.  language_counts sums each vector, so a whole
list of counts costs one walk; count_paths sums only the n-th, keeping one
vector at a time.  phi_series and count_language_bruteforce stay
independent of the walk, as checks on it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .series import PowerSeries, expand_rational
from .words import Letter, _check_p
from .normal_forms import is_in_Lp

BRUTE_FORCE_WORD_LIMIT = 10**7


class BruteForceGuardError(RuntimeError):
    pass


class CountingAutomaton(NamedTuple):
    p: int
    states: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]  # matrix[i][j]: letters from i to j


def build_automaton(p: int) -> CountingAutomaton:
    _check_p(p)
    states = (
        ["q", "q0"]
        + [f"q{i}" for i in range(1, p)]
        + [f"q{i},0" for i in range(1, p)]
        + ["qbar"]
    )
    index = {s: k for k, s in enumerate(states)}
    n = len(states)
    mat = [[0] * n for _ in range(n)]

    mat[index["q"]][index["q0"]] = 2
    for i in range(1, p):
        mat[index["q"]][index[f"q{i}"]] = 2

    mat[index["q0"]][index["q0"]] = 1
    for i in range(1, p):
        mat[index["q0"]][index[f"q{i}"]] = 2

    for i in range(1, p):
        row = index[f"q{i}"]
        mat[row][index["q0"]] = 1
        mat[row][index[f"q{i},0"]] = 1
        for j in range(1, i + 1):
            mat[row][index[f"q{j}"]] = 1
        for j in range(i + 1, p):
            mat[row][index[f"q{j}"]] = 2

    for i in range(1, p):
        row = index[f"q{i},0"]
        mat[row][index["qbar"]] = 1
        for j in range(i, p):
            mat[row][index[f"q{j}"]] = 1

    mat[index["qbar"]][index["qbar"]] = 1

    return CountingAutomaton(p, tuple(states), tuple(tuple(r) for r in mat))


def _walk(aut: CountingAutomaton) -> Iterator[list[int]]:
    """The one walk: path counts per state after 0, 1, 2, ... letters,
    starting from the start state q, index 0."""
    v = [1] + [0] * (len(aut.states) - 1)
    while True:
        yield v
        nxt = [0] * len(aut.states)
        for i, vi in enumerate(v):
            if vi:
                for j, c in enumerate(aut.matrix[i]):
                    if c:
                        nxt[j] += vi * c
        v = nxt


def language_counts(p: int, order: int) -> list[int]:
    """|L_p ∩ Σ^n| for every n < order, from a single walk."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return [sum(v) for v in itertools.islice(_walk(build_automaton(p)), order)]


def count_paths(p: int, n: int) -> int:
    """Number of length-n paths from the start state = |L_p ∩ Σ^n|."""
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    return sum(next(itertools.islice(_walk(build_automaton(p)), n, None)))


def phi_series(p: int, order: int) -> PowerSeries:
    """Expansion of Phi_p(t); coefficient n counts |L_p ∩ Σ^n|."""
    _check_p(p)
    m = p + 2  # numerator and denominator have degree p + 1, so this is exact
    t = PowerSeries.x(m)
    q = (1 - t).int_power(p - 1)  # (1-t)^(p-1)
    numerator = (1 + t) * (1 - t * q)
    denominator = (1 - t) * (q * (1 - t) + q - 1)
    return expand_rational(numerator.coeffs, denominator.coeffs, order)


def count_language_bruteforce(p: int, n: int) -> int:
    """Count |L_p ∩ Σ^n| by enumerating all (2p)^n words and filtering."""
    _check_p(p)
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    total = (2 * p) ** n
    if total > BRUTE_FORCE_WORD_LIMIT:
        raise BruteForceGuardError(
            f"(2p)^n = {total} exceeds the enumeration limit "
            f"{BRUTE_FORCE_WORD_LIMIT}; use count_paths instead"
        )
    alphabet = [Letter(i, s) for i in range(p) for s in (1, -1)]
    return sum(1 for w in itertools.product(alphabet, repeat=n) if is_in_Lp(p, w))
