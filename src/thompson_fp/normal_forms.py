"""Normal forms for F(p) words.

Infinite-alphabet normal form.  The rewriting system (confluent and
terminating) over the full generating set:

    cancel:        x_i^e  x_i^-e      ->  (empty)
    push-positive: x_j^e  x_i         ->  x_i      x_{j+p-1}^e   (j > i)
    push-negative: x_{j+p-1}^e x_i^-1 ->  x_i^-1   x_j^e         (j > i)

A word is irreducible iff every adjacent pair (x_a^e, x_b^f) satisfies one of
a < b;  a == b and e == f;  0 < a - b < p and f == -1.

to_infinite_nf always rewrites the leftmost reducible pair, in insertion
form.  It keeps the irreducible prefix and takes the rest of the word one
letter b at a time.  No pair inside the prefix is reducible, so the leftmost
reducible pair always ends in b, and b moves left, one rewrite per letter,
past the run of letters it pushes past: index > b's for a positive b, index
>= b's + p for a negative b.  Each of them is shifted by p - 1, up for a
positive b and down for a negative one.  The rules read only index
differences and signs, so the shifted run stays irreducible inside, and it
starts above b.  Where the run ends, b is inserted, or it cancels with the
letter there, x_b^-e.  A cancel sets off nothing further: that letter's left
neighbour has index at most b + p - 1 (b positive) or b (b negative), below
the shifted run's first letter, which is at least b + p or b + 1.

The run is always a suffix of the prefix, the letters after the last one of
index <= b (b positive) or <= b + p - 1 (b negative).  So the prefix is held
in blocks of at most 2 max(8, isqrt(len)) letters, as int lists of indices
and signs; a block past that splits in half.  Every block but the first
keeps a lazy shift, added to its stored indices, and its least true index.
b crosses whole blocks by their minima, shifting each with one add, and
scans letter by letter only the block where its run ends, where it is
inserted or cancels.  A block splits only after max(8, isqrt(len)) or more
insertions into it, and one that cancels empty is dropped, so there are
O(sqrt(len)) blocks of O(sqrt(len)) letters, and a word costs
O(len sqrt(len)) whatever its number of rewrites.  A trace adds O(steps),
where steps, the number of rewrites, is at most
step_budget(len) since each pair of letters swaps at most once.  The budget
is charged per run, and Letters are built once, at the end.

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

unbar is bar run backwards, one right-to-left pass.  It keeps m, the x_0
power read since the last letter of index >= 1, and d, the conjugating power
of the letter to its right (0 at the end).  At each letter x_r^e it sets
m += d and d = max(m, 0), emits x_0^(m-d) and then x_{r+d(p-1)}^e, and sets
m = 0; at the start it emits x_0^(m+d).  The split is forced: between two
letters the preimage has x_0^k with k + (left power) = m + d, no x_0 may
follow a letter of index >= 1, and no x_0^-1 one of index >= p, so either
k = 0 or k < 0 and the left power is 0.
"""

from __future__ import annotations

import random
from math import isqrt
from typing import Iterable, Optional, Sequence

from .words import Letter, Word, _check_p


class NotInLanguageError(ValueError):
    pass


CANCEL = "cancel"
PUSH_POS = "push-positive"
PUSH_NEG = "push-negative"

# The longest finite normal form bar builds.  Its size is not bounded by the
# input's: x_j alone becomes 2d + 1 letters with d about j / (p - 1), and a
# tuple of 10**7 letters already holds 80 MB of references.
BAR_LENGTH_LIMIT = 10**7

# The most entries a rule trace may hold.  A trace has one entry per
# rewrite, and a positive word of n letters can take about n**2 / 2
# rewrites; the entries refer to at most 3 n distinct dicts, one per rule
# and position, so a trace costs a reference per rewrite.
TRACE_LENGTH_LIMIT = 10**6

_X0, _X0_INV = Letter(0, 1), Letter(0, -1)


def _rule_at(p: int, w: Sequence[Letter], k: int) -> Optional[str]:
    """Which rule (if any) applies to the pair at positions k, k+1."""
    a, b = w[k], w[k + 1]
    if a[0] == b[0] and a[1] == -b[1]:
        return CANCEL
    if b[1] > 0 and a[0] > b[0]:
        return PUSH_POS
    if b[1] < 0 and a[0] >= b[0] + p:
        return PUSH_NEG
    return None


def _apply(w: list, k: int, rule: str, p: int) -> None:
    """Rewrite the pair at positions k, k+1 of w in place."""
    a, b = w[k], w[k + 1]
    if rule == CANCEL:
        del w[k:k + 2]
    elif rule == PUSH_POS:
        w[k], w[k + 1] = b, Letter(a[0] + p - 1, a[1])
    else:
        w[k], w[k + 1] = b, Letter(a[0] - (p - 1), a[1])


def _check_trace_room(trace: list, entries: int) -> None:
    if len(trace) + entries > TRACE_LENGTH_LIMIT:
        raise ValueError(
            f"the rule trace would pass TRACE_LENGTH_LIMIT = {TRACE_LENGTH_LIMIT} entries"
        )


def _entries(row: list, rule: str, lo: int, hi: int) -> list:
    """The trace entries {"rule": rule, "position": i} for lo <= i < hi,
    read from row, one call's table of them for rule by position, and made
    there where it has none yet."""
    if len(row) < hi:
        row += [None] * (hi - len(row))
    found = row[lo:hi]
    if not all(found):  # an entry is a nonempty dict
        for i in range(lo, hi):
            if row[i] is None:
                row[i] = {"rule": rule, "position": i}
        found = row[lo:hi]
    return found


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
    though no two rules ever apply to the same pair).  A trace gets one
    entry per rewrite: when b crosses a run of r letters at the end of a
    prefix of length m, the run's rule at positions m - 1 down to m - r, then
    a cancel at m - r - 1 if b cancels.  A ValueError is raised before
    the trace would grow past TRACE_LENGTH_LIMIT entries.

    Each entry is a {"rule", "position"} dict, made once per call for each
    (rule, position) it names, so the entries of one trace are shared: a
    run's rewrites append references to them.  They are read-only."""
    _check_p(p)
    w = tuple(word)
    budget = step_budget(len(w))
    cap = 2 * isqrt(len(w)) if len(w) > 64 else 16  # 2 max(8, isqrt(len(w)))
    # The irreducible prefix, as blocks [indices, signs, shift, least index]
    # of at most cap letters: a letter's true index is its stored one plus
    # its block's shift.  Block 0 is always scanned letter by letter, so its
    # shift stays 0 and its minimum is never read.
    blocks = [[[], [], 0, 0]]
    last = 0  # len(blocks) - 1
    # the trace's entries by rule, indexed by position; None until first used
    entries = {PUSH_POS: [], PUSH_NEG: [], CANCEL: []} if trace is not None else None
    for b, e in w:
        if e > 0:
            top, shift, rule = b, p - 1, PUSH_POS
        else:
            top, shift, rule = b + p - 1, 1 - p, PUSH_NEG
        # b crosses the letters of true index > top at the prefix's end:
        # whole blocks by their minima, then a suffix of block k.
        k = last
        blk = blocks[k]
        run = 0
        while k and blk[3] > top:
            blk[2] += shift
            blk[3] += shift
            run += len(blk[0])
            k -= 1
            blk = blocks[k]
        idx, sgn, s, low = blk
        n = j = len(idx)
        top -= s
        while j and idx[j - 1] > top:
            j -= 1
        cancels = j > 0 and idx[j - 1] == b - s and sgn[j - 1] == -e
        run += n - j
        steps = run + cancels
        if steps > budget:
            raise RuntimeError("rewriting exceeded its step budget; system is broken")
        budget -= steps
        if trace is not None:
            _check_trace_room(trace, steps)
            m = sum(len(block[0]) for block in blocks)
            if run:
                trace += reversed(_entries(entries[rule], rule, m - run, m))
            if cancels:
                trace += _entries(entries[CANCEL], CANCEL, m - run - 1, m - run)
        if j < n:
            idx[j:] = [i + shift for i in idx[j:]]
        if cancels:
            del idx[j - 1], sgn[j - 1]
            if k and idx:
                blk[3] = min(idx) + s
            elif k:  # drop it: no run may stop in an empty block
                del blocks[k]
                last -= 1
            continue
        idx.insert(j, b - s)
        sgn.insert(j, e)
        if b < low:  # the letters b shifted stay above b, and were above low
            blk[3] = b
        if n >= cap:  # split block k in half
            h = n // 2
            blocks.insert(k + 1, [idx[h:], sgn[h:], s, min(idx[h:]) + s])
            last += 1
            del idx[h:], sgn[h:]
            blk[3] = min(idx) + s
    idx, sgn, _, _ = blocks[0]
    if last:
        for more, signs, s, _ in blocks[1:]:
            idx += [i + s for i in more]
            sgn += signs
    return tuple(map(Letter, idx, sgn))


def rewrite_random(p: int, word: Iterable[Letter], rng: random.Random) -> Word:
    """Rewrite to irreducible form choosing applicable positions at random.
    Confluence means the result must equal to_infinite_nf's."""
    _check_p(p)
    w = list(word)
    budget = step_budget(len(w))
    for _ in range(budget):
        options = [
            (k, rule)
            for k in range(len(w) - 1)
            if (rule := _rule_at(p, w, k)) is not None
        ]
        if not options:
            return tuple(w)
        k, rule = rng.choice(options)
        _apply(w, k, rule, p)
    if is_infinite_nf(p, w):
        return tuple(w)
    raise RuntimeError("rewriting exceeded its step budget; system is broken")


def bar(p: int, word: Iterable[Letter]) -> Word:
    """Push every x_j^e (j >= 1) down to the finite alphabet via
    x_j^e -> x_0^-d x_r^e x_0^d, then cancel adjacent x_0 pairs.

    The letters of index >= 1 are never cancelled, so between two of them
    (and at either end) the result is x_0^net, where net adds up the x_0
    letters there and the two conjugating powers.  One pass collects the
    nets; the image has len(letters) + sum(|net|) letters, and past
    BAR_LENGTH_LIMIT a ValueError is raised before any of them is built."""
    _check_p(p)
    letters: list[Letter] = []
    nets: list[int] = []  # the x_0 power before each of letters, then the last one
    net = 0
    for j, sign in word:
        if j == 0:
            net += sign
            continue
        r = (j - 1) % (p - 1) + 1
        d = (j - r) // (p - 1)
        nets.append(net - d)
        letters.append(Letter(r, sign))
        net = d
    nets.append(net)
    length = len(letters) + sum(map(abs, nets))
    if length > BAR_LENGTH_LIMIT:
        raise ValueError(
            f"the finite normal form has {length} letters, "
            f"more than BAR_LENGTH_LIMIT = {BAR_LENGTH_LIMIT}"
        )
    out: list[Letter] = []
    for net, a in zip(nets, letters):
        out += _x0_power(net)
        out.append(a)
    out += _x0_power(nets[-1])
    return tuple(out)


def _x0_power(n: int) -> list[Letter]:
    """x_0^n, as |n| letters."""
    return [_X0 if n > 0 else _X0_INV] * abs(n)


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


def unbar(p: int, word: Iterable[Letter]) -> Word:
    """The inverse of bar on L_p: reconstruct the irreducible preimage."""
    _check_p(p)
    v = tuple(word)
    if not is_in_Lp(p, v):
        raise NotInLanguageError(
            "word is not in the normal form language L_p; unbar is undefined"
        )
    out: list[Letter] = []  # built right to left
    m = d = 0  # x_0 power since the last letter; that letter's conjugating power
    for r, sign in reversed(v):
        if r == 0:
            m += sign
            continue
        m += d
        d = max(m, 0)
        out += _x0_power(m - d)
        out.append(Letter(r + d * (p - 1), sign))
        m = 0
    out += _x0_power(m + d)
    out.reverse()
    return tuple(out)


def finite_nf(p: int, word: Iterable[Letter], trace: Optional[list] = None) -> Word:
    """Canonical finite-alphabet form: bar applied to the irreducible form."""
    w = to_infinite_nf(p, word, trace)
    if trace is not None:
        _check_trace_room(trace, 1)
        trace.append({"rule": "bar", "position": 0})
    return bar(p, w)
