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
vector one letter at a time: count_paths reads the vector at length n, and
state_series keeps every vector up to its order, so a whole list of counts
costs one walk.  phi_series and count_language_bruteforce stay independent
of the walk, as checks on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .series import PowerSeries, expand_rational
from .words import Letter, _check_p
from .normal_forms import is_in_Lp

BRUTE_FORCE_WORD_LIMIT = 10**7


class BruteForceGuardError(RuntimeError):
    pass


@dataclass(frozen=True)
class CountingAutomaton:
    p: int
    states: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]  # matrix[i][j]: letters from i to j
    semantics: tuple[tuple[str, str], ...]  # (state, suffix class described)

    @property
    def start(self) -> int:
        return 0


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

    semantics = (
        ("q", "the empty word"),
        ("q0", "ends with x0^-1 or is a run of x0 letters"),
        *((f"q{i}", f"ends with x{i} or x{i}^-1") for i in range(1, p)),
        *((f"q{i},0", f"ends with x{i}^+-1 x0") for i in range(1, p)),
        ("qbar", "ends with x_i^+-1 x0^k, k >= 2"),
    )
    return CountingAutomaton(p, tuple(states), tuple(tuple(r) for r in mat), semantics)


def _walk(aut: CountingAutomaton) -> Iterator[list[int]]:
    """The one walk: path counts per state after 0, 1, 2, ... letters."""
    v = [0] * len(aut.states)
    v[aut.start] = 1
    while True:
        yield v
        nxt = [0] * len(aut.states)
        for i, vi in enumerate(v):
            if vi:
                for j, c in enumerate(aut.matrix[i]):
                    if c:
                        nxt[j] += vi * c
        v = nxt


def count_paths(p: int, n: int) -> int:
    """Number of length-n paths from the start state = |L_p ∩ Σ^n|."""
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    return sum(next(itertools.islice(_walk(build_automaton(p)), n, None)))


def state_series(p: int, order: int) -> dict[str, PowerSeries]:
    """Per-state path-count generating functions f_state(t), exact; their
    sum counts |L_p ∩ Σ^n| for every n < order from a single walk."""
    aut = build_automaton(p)
    vectors = list(itertools.islice(_walk(aut), max(order, 0)))
    return {
        s: PowerSeries.from_coeffs([v[k] for v in vectors])
        for k, s in enumerate(aut.states)
    }


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_pow(a: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def phi_series(p: int, order: int) -> PowerSeries:
    """Expansion of Phi_p(t); coefficient n counts |L_p ∩ Σ^n|."""
    _check_p(p)
    one_minus_t = [1, -1]
    q = _poly_pow(one_minus_t, p - 1)  # (1-t)^(p-1)
    numerator = _poly_mul([1, 1], _poly_add([1], [-c for c in _poly_mul([0, 1], q)]))
    denominator = _poly_mul(
        one_minus_t, _poly_add(_poly_add(_poly_mul(q, one_minus_t), q), [-1])
    )
    return expand_rational(numerator, denominator, order)


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
