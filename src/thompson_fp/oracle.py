"""Brute-force oracles and the self-check suite.

Everything here recomputes, by exhaustive enumeration or graph search, the
quantities that the analytic modules produce by formula, so agreement is
meaningful evidence:

  * enumerate_positive_by_weight: all p-trees up to the caret bound, filtered
    by reducedness, histogrammed by caret weight -> positive growth counts.
  * bfs_group_ball: breadth-first search of the Cayley ball over the
    generators x_0^±1 .. x_{p-1}^±1, elements keyed by their serialized
    reduced diagram -> word lengths and sphere sizes.
  * bfs_positive_monoid / enumerate_infinite_nf: word corpora for the
    normal-form round-trip checks.
  * verify_suite: runs every cross-check and collects failures.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from . import automaton as automaton_mod
from . import diagrams, fordham, normal_forms, rates, series
from .diagrams import LEAF, PTree, TreePair
from .words import Letter, Word, _check_p, format_word

TREE_ENUMERATION_LIMIT = 20_000_000
BALL_SIZE_LIMIT = 10**6


class EnumerationGuardError(RuntimeError):
    pass


def _tree_count(p: int, carets: int) -> int:
    """Number of p-ary trees with the given caret count (Fuss-Catalan)."""
    return math.comb(p * carets, carets) // ((p - 1) * carets + 1)


def iter_trees(p: int, carets: int) -> Iterator[PTree]:
    """All p-ary trees with exactly `carets` carets."""
    if carets == 0:
        yield LEAF
        return
    for kids in _iter_child_tuples(p, carets - 1, p):
        yield PTree(kids)


def _iter_child_tuples(p: int, total: int, slots: int) -> Iterator[tuple[PTree, ...]]:
    if slots == 1:
        for t in iter_trees(p, total):
            yield (t,)
        return
    for head_count in range(total + 1):
        for head in iter_trees(p, head_count):
            for rest in _iter_child_tuples(p, total - head_count, slots - 1):
                yield (head,) + rest


def is_reduced_positive_tree(p: int, tree: PTree) -> bool:
    """Whether (tree, right spine) is a reduced diagram: the deepest caret on
    the rightmost path must keep a caret among its first p-1 children."""
    if tree.children is None:
        return True
    node = tree
    while node.children[-1].children is not None:
        node = node.children[-1]
    return any(c.children is not None for c in node.children[:-1])


@dataclass(frozen=True)
class PositiveCensus:
    p: int
    max_weight: int
    counts: tuple[int, ...]  # counts[n] = reduced positive trees of weight n
    trees_scanned: int


def enumerate_positive_by_weight(p: int, max_weight: int) -> PositiveCensus:
    """Count reduced positive diagrams by caret weight, 0..max_weight.

    Any reduced tree of weight <= W has at most W+2 carets (the root and at
    most one right_empty caret weigh 0; every other caret weighs >= 1), so
    scanning caret counts 0..W+2 is exhaustive."""
    _check_p(p)
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    estimate = sum(_tree_count(p, c) for c in range(max_weight + 3))
    if estimate > TREE_ENUMERATION_LIMIT:
        raise EnumerationGuardError(
            f"would enumerate {estimate} trees, beyond the limit "
            f"{TREE_ENUMERATION_LIMIT}; lower max_weight"
        )
    counts = [0] * (max_weight + 1)
    scanned = 0
    weigh = fordham.tree_weight
    reduced = is_reduced_positive_tree
    for carets in range(max_weight + 3):
        for tree in iter_trees(p, carets):
            scanned += 1
            if reduced(p, tree):
                w = weigh(p, tree)
                if w <= max_weight:
                    counts[w] += 1
    return PositiveCensus(p, max_weight, tuple(counts), scanned)


def enumerate_middle_by_weight(p: int, i: int, max_weight: int) -> tuple[int, ...]:
    """Count trees weighed as hanging middle subtrees of kind M^i, by weight.
    All carets of a middle subtree weigh >= 1, so carets <= W suffices."""
    _check_p(p)
    if not 1 <= i <= p - 1:
        raise ValueError(f"middle index must be in 1..{p - 1}, got {i}")
    estimate = sum(_tree_count(p, c) for c in range(max_weight + 1))
    if estimate > TREE_ENUMERATION_LIMIT:
        raise EnumerationGuardError(
            f"would enumerate {estimate} trees, beyond the limit "
            f"{TREE_ENUMERATION_LIMIT}; lower max_weight"
        )
    counts = [0] * (max_weight + 1)
    for carets in range(max_weight + 1):
        for tree in iter_trees(p, carets):
            w = fordham.tree_weight(p, tree, fordham.MIDDLE, i)
            if w <= max_weight:
                counts[w] += 1
    return tuple(counts)


@dataclass(frozen=True)
class BallStats:
    p: int
    radius: int
    sphere_sizes: tuple[int, ...]  # index r: elements at distance exactly r
    elements: dict[str, int]  # serialized reduced pair -> distance
    representatives: dict[str, TreePair] = field(repr=False)
    witness_words: dict[str, Word] = field(repr=False)

    @property
    def ball_sizes(self) -> tuple[int, ...]:
        out, acc = [], 0
        for s in self.sphere_sizes:
            acc += s
            out.append(acc)
        return tuple(out)


def bfs_group_ball(p: int, radius: int) -> BallStats:
    """Breadth-first search of the ball of the given radius in F(p)."""
    _check_p(p)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    # The ball of the free group on the 2p moves bounds the ball from above.
    bound = 1 + sum(2 * p * (2 * p - 1) ** (k - 1) for k in range(1, radius + 1))
    if bound > BALL_SIZE_LIMIT:
        raise EnumerationGuardError(
            f"ball size bound {bound} exceeds {BALL_SIZE_LIMIT}"
        )
    moves = []
    for i in range(p):
        g = diagrams.generator_pair(p, i)
        moves.append((g, Letter(i, 1)))
        moves.append((diagrams.invert(g), Letter(i, -1)))
    start = diagrams.identity(p)
    key0 = start.serialize()
    elements = {key0: 0}
    representatives = {key0: start}
    witness_words: dict[str, Word] = {key0: ()}
    spheres = [1]
    frontier = [(start, ())]
    for r in range(1, radius + 1):
        nxt = []
        for el, w in frontier:
            for g, letter in moves:
                e2 = diagrams.compose(el, g)
                k = e2.serialize()
                if k not in elements:
                    elements[k] = r
                    representatives[k] = e2
                    w2 = w + (letter,)
                    witness_words[k] = w2
                    nxt.append((e2, w2))
        spheres.append(len(nxt))
        frontier = nxt
    return BallStats(p, radius, tuple(spheres), elements, representatives, witness_words)


def bfs_positive_monoid(p: int, max_len: int, index_bound: int) -> list[Word]:
    """All positive normal-form words: nondecreasing index sequences of
    length <= max_len over x_0..x_{index_bound}."""
    _check_p(p)
    out: list[Word] = []
    for m in range(max_len + 1):
        for combo in itertools.combinations_with_replacement(range(index_bound + 1), m):
            out.append(tuple(Letter(i, 1) for i in combo))
    return out


def enumerate_infinite_nf(p: int, max_len: int, index_bound: int) -> Iterator[Word]:
    """All irreducible words of length <= max_len with indices <= index_bound,
    grown letter by letter using the local adjacency test."""
    _check_p(p)
    alphabet = [Letter(i, s) for i in range(index_bound + 1) for s in (1, -1)]

    def extend(w: Word) -> Iterator[Word]:
        yield w
        if len(w) < max_len:
            for a in alphabet:
                if not w or _adjacent_ok(p, w[-1], a):
                    yield from extend(w + (a,))

    yield from extend(())


def _adjacent_ok(p: int, a: Letter, b: Letter) -> bool:
    return (
        a[0] < b[0]
        or (a[0] == b[0] and a[1] == b[1])
        or (0 < a[0] - b[0] < p and b[1] == -1)
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class VerifyReport:
    p: int
    profile: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "profile": self.profile,
            "ok": self.ok,
            "checks": [
                {
                    "check_name": c.name,
                    "status": "pass" if c.passed else "fail",
                    "details": c.details,
                }
                for c in self.checks
            ],
        }


_PROFILES = {
    # radius, census weight, confluence words, series order, automaton order
    "small": dict(radius=4, census_w=5, words=500, order=16, lang_order=12),
    "full": dict(radius=5, census_w=7, words=10_000, order=30, lang_order=40),
}


def verify_suite(p: int, profile: str = "small", seed: int = 0) -> VerifyReport:
    """Cross-validate every computational route; failures are collected, not
    raised, so one broken invariant does not hide another."""
    _check_p(p)
    if profile not in _PROFILES:
        raise ValueError(f"profile must be one of {sorted(_PROFILES)}, got {profile!r}")
    cfg = _PROFILES[profile]
    rng = random.Random(seed)
    checks: list[CheckResult] = []

    def record(name: str, passed: bool, details: str = "") -> None:
        checks.append(CheckResult(name, bool(passed), details))

    # Defining relations.
    bad = [
        (i, j)
        for i in range(2 * p)
        for j in range(i + 1, 2 * p + 1)
        if not diagrams.equal(
            diagrams.compose(diagrams.generator_pair(p, j), diagrams.generator_pair(p, i)),
            diagrams.compose(
                diagrams.generator_pair(p, i), diagrams.generator_pair(p, j + p - 1)
            ),
        )
    ]
    record("relations", not bad, f"x_j x_i = x_i x_(j+p-1) for 0<=i<j<=2p; bad={bad}")

    # Rewriting: confluence, termination budget, soundness on diagrams.
    mism = 0
    unsound = 0
    for _ in range(cfg["words"]):
        L = rng.randint(0, 12)
        w = tuple(Letter(rng.randint(0, 3 * p), rng.choice((1, -1))) for _ in range(L))
        nf = normal_forms.to_infinite_nf(p, w)
        if normal_forms.rewrite_random(p, w, rng) != nf:
            mism += 1
        if L <= 7 and not diagrams.equal(diagrams.evaluate(p, w), diagrams.evaluate(p, nf)):
            unsound += 1
    record(
        "rewriting-confluence",
        mism == 0 and unsound == 0,
        f"{cfg['words']} random words; strategy mismatches={mism}, unsound={unsound}",
    )

    # BFS ball, Fordham lengths, finite normal form injectivity.
    ball = bfs_group_ball(p, cfg["radius"])
    mismatches = []
    for key, dist in ball.elements.items():
        el = ball.representatives[key]
        if diagrams.is_positive(el):
            if fordham.positive_length(p, el) != dist:
                mismatches.append(key)
    record(
        "fordham-vs-bfs",
        not mismatches,
        f"radius {cfg['radius']}: ball {len(ball.elements)}, mismatches={mismatches[:3]}",
    )

    seen: dict[Word, str] = {}
    collisions = 0
    not_preserving = 0
    not_in_lang = 0
    for key, w in ball.witness_words.items():
        nf = normal_forms.finite_nf(p, w)
        if not normal_forms.is_in_Lp(p, nf):
            not_in_lang += 1
        other = seen.get(nf)
        if other is not None and other != key:
            collisions += 1
        seen[nf] = key
        if not diagrams.equal(diagrams.evaluate(p, nf), ball.representatives[key]):
            not_preserving += 1
    record(
        "finite-nf-injective",
        collisions == 0 and not_preserving == 0 and not_in_lang == 0,
        f"ball {len(ball.elements)}: collisions={collisions}, "
        f"eval mismatches={not_preserving}, outside L_p={not_in_lang}",
    )

    # bar/unbar round trips on the positive monoid box plus random words.
    bad_rt = 0
    corpus = bfs_positive_monoid(p, 4, 2 * p)
    for w in corpus:
        if normal_forms.unbar(p, normal_forms.bar(p, w)) != w:
            bad_rt += 1
    for _ in range(cfg["words"] // 2):
        L = rng.randint(0, 10)
        w = normal_forms.to_infinite_nf(
            p, tuple(Letter(rng.randint(0, 3 * p), rng.choice((1, -1))) for _ in range(L))
        )
        if normal_forms.unbar(p, normal_forms.bar(p, w)) != w:
            bad_rt += 1
    record("bar-unbar-round-trip", bad_rt == 0, f"{len(corpus)} box words + random; bad={bad_rt}")

    # Census vs series.
    census = enumerate_positive_by_weight(p, cfg["census_w"])
    bundle = series.positive_growth_series(p, cfg["census_w"] + 1)
    series_counts = tuple(bundle.counts())
    record(
        "census-vs-series",
        census.counts == series_counts,
        f"census={census.counts} series={series_counts}",
    )

    # Automaton triple agreement.
    phi = automaton_mod.phi_series(p, cfg["lang_order"])
    pc = series.series_to_ints(sum(automaton_mod.state_series(p, cfg["lang_order"]).values()))
    agree_closed = pc == series.series_to_ints(phi)
    brute_ns = [n for n in range(cfg["lang_order"]) if (2 * p) ** n <= 50_000]
    agree_brute = all(
        automaton_mod.count_language_bruteforce(p, n) == pc[n] for n in brute_ns
    )
    record(
        "language-counts",
        agree_closed and agree_brute,
        f"matrix==closed-form to n<{cfg['lang_order']}: {agree_closed}; "
        f"brute n={brute_ns}: {agree_brute}",
    )

    # Growth series residuals.
    residual = series.check_eqonn(p, cfg["order"])
    record("series-master-equation", residual.is_zero, f"order {cfg['order']}")

    # Rates.
    try:
        z = rates.zeta(p)
        q = rates.xi(p)
        ok_bounds = p < z.low and z.high < Fraction(2 * p + 1, 2)
        ratio = pc[cfg["lang_order"] - 1] / pc[cfg["lang_order"] - 2]
        ok_xi = abs(float(q.midpoint) - ratio) < 0.5
        record(
            "rate-enclosures",
            ok_bounds and ok_xi,
            f"zeta in ({float(z.low):.9f},{float(z.high):.9f}); "
            f"xi mid {float(q.midpoint):.9f} vs count ratio {ratio:.6f}",
        )
    except ArithmeticError as exc:
        record("rate-enclosures", False, str(exc))

    # Every normal form of length <= n names a distinct element of the
    # radius-n ball, so the cumulative language counts sit below gamma.
    gam = ball.ball_sizes
    cumulative = list(itertools.accumulate(pc))
    dominated = all(
        cumulative[n] <= gam[n] for n in range(min(len(gam), len(cumulative)))
    )
    record(
        "language-below-ball",
        dominated,
        f"cumulative counts {cumulative[: len(gam)]} vs ball {list(gam)}",
    )

    return VerifyReport(p, profile, tuple(checks))
