"""Normal forms for F(p) words.

Infinite-alphabet normal form.  The rewriting system (confluent and
terminating) over the full generating set:

    cancel:        x_i^e  x_i^-e      ->  (empty)
    push-positive: x_j^e  x_i         ->  x_i      x_{j+p-1}^e   (j > i)
    push-negative: x_{j+p-1}^e x_i^-1 ->  x_i^-1   x_j^e         (j > i)

A word is irreducible iff every adjacent pair (x_a^e, x_b^f) satisfies one of
a < b;  a == b and e == f;  0 < a - b < p and f == -1.

Finite-alphabet normal form.  The bar map rewrites x_j^e (j >= 1, writing
j = r + d(p-1) with 1 <= r <= p-1) as x_0^-d x_r^e x_0^d and then cancels
adjacent x_0^e x_0^-e pairs.  On irreducible words it is a bijection onto the
language L_p of words over x_0^±1 .. x_{p-1}^±1 avoiding (with x_0^k meaning
k consecutive x_0 letters of sign +1, and 1 <= alpha, beta <= p-1):

    1. x_i^e x_i^-e
    2. x_alpha^e x_0^k     x_beta       (k >= 0, beta <  alpha)
    3. x_alpha^e x_0^(k+1) x_beta^-1    (k >= 0, beta <  alpha)
    4. x_alpha^e x_0^(k+1) x_beta       (k >= 0, alpha <= beta)
    5. x_alpha^e x_0^(k+2) x_beta^-1    (k >= 0, alpha <= beta)

unbar reconstructs the unique irreducible preimage block by block, right to
left: write v = x_0^{m_0} x_{r_1}^{l_1} x_0^{m_1} ... x_{r_h}^{l_h} x_0^{m_h};
split m_h into (d_h, k_h) = (0, m_h) if m_h < 0 else (m_h, 0), then
m_i + d_{i+1} the same way for i = h-1..1, and finally k_0 = m_0 + d_1; the
preimage is x_0^{k_0} x_{a_1}^{l_1} x_0^{k_1} ... with a_i = r_i + d_i(p-1).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from .words import Letter, Word, _check_p


class NotInLanguageError(ValueError):
    pass


CANCEL = "cancel"
PUSH_POS = "push-positive"
PUSH_NEG = "push-negative"


def _rule_at(p: int, w: tuple, k: int) -> Optional[str]:
    """Which rule (if any) applies to the pair at positions k, k+1."""
    a, b = w[k], w[k + 1]
    if a[0] == b[0] and a[1] == -b[1]:
        return CANCEL
    if b[1] > 0 and a[0] > b[0]:
        return PUSH_POS
    if b[1] < 0 and a[0] >= b[0] + p:
        return PUSH_NEG
    return None


def _apply(w: tuple, k: int, rule: str, p: int) -> tuple:
    a, b = w[k], w[k + 1]
    if rule == CANCEL:
        return w[:k] + w[k + 2:]
    if rule == PUSH_POS:
        return w[:k] + (b, Letter(a[0] + p - 1, a[1])) + w[k + 2:]
    return w[:k] + (b, Letter(a[0] - (p - 1), a[1])) + w[k + 2:]


def step_budget(word_len: int) -> int:
    """Upper bound on rewriting steps: each unordered letter pair swaps at
    most once and each cancellation removes two letters."""
    return word_len * (word_len - 1) // 2 + word_len // 2 + 1


def is_infinite_nf(p: int, word: Iterable[Letter]) -> bool:
    """Local test: no rewriting rule applies anywhere."""
    _check_p(p)
    w = tuple(word)
    return all(_rule_at(p, w, k) is None for k in range(len(w) - 1))


def to_infinite_nf(
    p: int,
    word: Iterable[Letter],
    trace: Optional[list] = None,
) -> Word:
    """Rewrite to the irreducible form, applying at each step the rule at the
    leftmost applicable position (cancel > push-negative > push-positive,
    though no two rules ever apply to the same pair)."""
    _check_p(p)
    w = tuple(word)
    budget = step_budget(len(w))
    for _ in range(budget):
        for k in range(len(w) - 1):
            rule = _rule_at(p, w, k)
            if rule is not None:
                w = _apply(w, k, rule, p)
                if trace is not None:
                    trace.append({"rule": rule, "position": k})
                break
        else:
            return w
    if is_infinite_nf(p, w):
        return w
    raise RuntimeError("rewriting exceeded its step budget; system is broken")


def rewrite_random(p: int, word: Iterable[Letter], rng: random.Random) -> Word:
    """Rewrite to irreducible form choosing applicable positions at random.
    Confluence means the result must equal to_infinite_nf's."""
    _check_p(p)
    w = tuple(word)
    budget = step_budget(len(w))
    for _ in range(budget):
        options = [
            (k, rule)
            for k in range(len(w) - 1)
            if (rule := _rule_at(p, w, k)) is not None
        ]
        if not options:
            return w
        k, rule = rng.choice(options)
        w = _apply(w, k, rule, p)
    if is_infinite_nf(p, w):
        return w
    raise RuntimeError("rewriting exceeded its step budget; system is broken")


def bar(p: int, word: Iterable[Letter]) -> Word:
    """Push every x_j^e (j >= 1) down to the finite alphabet via
    x_j^e -> x_0^-d x_r^e x_0^d, then cancel adjacent x_0 pairs."""
    _check_p(p)
    expanded: list[Letter] = []
    for a in word:
        j, sign = a
        if j == 0:
            expanded.append(a)
            continue
        r = (j - 1) % (p - 1) + 1
        d = (j - r) // (p - 1)
        expanded.extend([Letter(0, -1)] * d)
        expanded.append(Letter(r, sign))
        expanded.extend([Letter(0, 1)] * d)
    out: list[Letter] = []
    for a in expanded:
        if out and a[0] == 0 and out[-1][0] == 0 and out[-1][1] == -a[1]:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def is_in_Lp(p: int, word: Iterable[Letter]) -> bool:
    """Membership in the finite-alphabet normal form language L_p."""
    _check_p(p)
    w = tuple(word)
    for a in w:
        if a[0] > p - 1:
            raise NotInLanguageError(
                f"letter x{a[0]} outside the alphabet x0..x{p - 1}"
            )
    for k in range(len(w) - 1):
        if w[k][0] == w[k + 1][0] and w[k][1] == -w[k + 1][1]:
            return False  # pattern 1
    # One pass for patterns 2-5: track the last letter with index >= 1 and
    # the count of positive x_0 letters since (a negative x_0 breaks the run).
    last: Optional[Letter] = None
    zeros = 0
    for a in w:
        if a[0] == 0:
            if a[1] > 0:
                zeros += 1
            else:
                last = None
            continue
        if last is not None:
            alpha, beta, dn = last[0], a[0], a[1]
            if beta < alpha:
                if dn > 0 or zeros >= 1:
                    return False  # patterns 2, 3
            else:
                if (dn > 0 and zeros >= 1) or (dn < 0 and zeros >= 2):
                    return False  # patterns 4, 5
        last = a
        zeros = 0
    return True


def _blocks(word: Word) -> tuple[int, list[tuple[int, int, int]]]:
    """Split an L_p word into x_0^{m_0} (x_{r_i}^{l_i} x_0^{m_i})_{i=1..h};
    returns (m_0, [(r_i, l_i, m_i), ...]).  Runs have uniform sign in L_p,
    so l_i and m_i are signed counts."""
    k = 0
    n = len(word)

    def run_zero(k: int) -> tuple[int, int]:
        m = 0
        while k < n and word[k][0] == 0:
            m += word[k][1]
            k += 1
        return m, k

    m0, k = run_zero(k)
    blocks = []
    while k < n:
        r, sign = word[k]
        l = 0
        while k < n and word[k][0] == r and word[k][1] == sign:
            l += sign
            k += 1
        m, k = run_zero(k)
        blocks.append((r, l, m))
    return m0, blocks


def unbar(p: int, word: Iterable[Letter]) -> Word:
    """The inverse of bar on L_p: reconstruct the irreducible preimage."""
    _check_p(p)
    v = tuple(word)
    if not is_in_Lp(p, v):
        raise NotInLanguageError(
            "word is not in the normal form language L_p; unbar is undefined"
        )
    m0, blocks = _blocks(v)
    if not blocks:
        return tuple([Letter(0, 1 if m0 > 0 else -1)] * abs(m0))
    ds = [0] * len(blocks)
    ks = [0] * len(blocks)
    carry = 0  # d_{i+1} while walking right to left
    for i in range(len(blocks) - 1, -1, -1):
        m = blocks[i][2] + carry
        if m < 0:
            ds[i], ks[i] = 0, m
        else:
            ds[i], ks[i] = m, 0
        carry = ds[i]
    k0 = m0 + carry
    out: list[Letter] = []
    out.extend([Letter(0, 1 if k0 > 0 else -1)] * abs(k0))
    for (r, l, _), d, kk in zip(blocks, ds, ks):
        a = r + d * (p - 1)
        out.extend([Letter(a, 1 if l > 0 else -1)] * abs(l))
        out.extend([Letter(0, 1 if kk > 0 else -1)] * abs(kk))
    return tuple(out)


def finite_nf(p: int, word: Iterable[Letter], trace: Optional[list] = None) -> Word:
    """Canonical finite-alphabet form: bar applied to the irreducible form."""
    w = to_infinite_nf(p, word, trace)
    if trace is not None:
        trace.append({"rule": "bar", "position": 0})
    return bar(p, w)
