"""Brute-force oracles and the self-check suite.

Everything here recomputes, by exhaustive enumeration or graph search, the
quantities that the analytic modules produce by formula, so agreement is
meaningful evidence:

  * enumerate_positive_by_weight: a depth-first walk down the right spine
    that builds, as preorder strings, only the p-trees which can weigh <= W
    and whose spine ends at a hanging caret, filtered by reducedness,
    weighed by the Fordham rules and histogrammed by weight -> positive
    growth counts.  enumerate_middle_by_weight histograms the same
    walk's list of hanging middle subtrees -> the M_i series.
  * bfs_group_ball: breadth-first search of the Cayley ball over the
    generators x_0^±1 .. x_{p-1}^±1, elements keyed by their serialized
    reduced diagram -> word lengths and sphere sizes.
  * bfs_positive_monoid / enumerate_infinite_nf: word corpora for the
    normal-form round-trip checks.
  * verify_suite: runs every cross-check and collects failures.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from . import automaton as automaton_mod
from . import diagrams, fordham, normal_forms, rates, series
from .diagrams import LEAF, PTree, TreePair
from .words import Letter, Word, _check_p

TREE_ENUMERATION_LIMIT = 20_000_000
BALL_SIZE_LIMIT = 10**6


class EnumerationGuardError(RuntimeError):
    pass


def is_reduced_positive_tree(p: int, tree: PTree) -> bool:
    """Whether (tree, right spine) is a reduced diagram: the deepest caret on
    the rightmost path, whose subtree ends the preorder string, must keep a
    caret among its first p-1 children."""
    return tree == "L" or not tree.endswith("C" + "L" * p)


# A tree over F(p) needs at most p + 2 entries, as in fordham._child_kinds.
@lru_cache(maxsize=64)
def _hanging_kinds(p: int, kind: str, i: int) -> tuple[tuple[str, int], ...]:
    """(kind, middle index) of each child position of a `kind` caret that
    holds a hanging subtree: every position but a right child's."""
    return tuple(k for k in fordham._child_kinds(p, kind, i)[1] if k[0] != fordham.RIGHT)


# The classes the census prune takes to weigh >= 1: a hanging caret is left
# or middle, and every right caret above the deepest one is right_full.
_PRUNE_CLASSES = (fordham.LEFT, fordham.MIDDLE_EMPTY, fordham.MIDDLE_FULL, fordham.RIGHT_FULL)


class _Walk:
    """One census call's depth-first walk over the trees that can weigh at
    most a budget, built as preorder strings.  It memoises the hanging
    subtrees by (kind, middle index, budget) and counts every tree it builds
    against TREE_ENUMERATION_LIMIT.  `_hanging` and `_draw` recurse on the
    budget, which each level lowers by one, and on the p child kinds, never
    on the depth of a tree; the spine is walked with an explicit stack."""

    def __init__(self, p: int):
        weights = fordham.CARET_WEIGHTS
        light = [c for c in _PRUNE_CLASSES if weights[c] < 1]
        if light:
            raise ValueError(f"the census prune needs {', '.join(light)} carets to weigh >= 1")
        self.p = p
        self.built = 0
        self._right_full = weights[fordham.RIGHT_FULL]
        self._lists: dict[tuple[str, int, int], list[tuple[PTree, int]]] = {}

    def _count(self) -> None:
        self.built += 1
        if self.built > TREE_ENUMERATION_LIMIT:
            raise EnumerationGuardError(
                f"the census built more than {TREE_ENUMERATION_LIMIT} trees; "
                f"lower max_weight"
            )

    def _hanging(self, kind: str, i: int, budget: int) -> list[tuple[PTree, int]]:
        """Every subtree hung as a `kind` (M^i) child that weighs <= budget,
        with its weight.  Each of its carets weighs >= 1, so the children of
        its top caret share budget - 1."""
        key = (kind, i, budget)
        found = self._lists.get(key)
        if found is None:
            found = [(LEAF, 0)]
            for kids, _ in self._draw(_hanging_kinds(self.p, kind, i), budget - 1):
                self._count()
                tree = PTree("C" + kids)
                w = fordham.tree_weight(self.p, tree, kind, i)
                if w <= budget:
                    found.append((tree, w))
            self._lists[key] = found
        return found

    def _draw(self, kinds: tuple[tuple[str, int], ...], budget: int) -> Iterator[tuple[str, int]]:
        """Every choice of hanging subtrees of the given kinds whose weights
        sum to <= budget, as their preorder strings joined, with that sum."""
        if budget < 0:
            return
        if not kinds:
            yield "", 0
            return
        (kind, i), rest = kinds[0], kinds[1:]
        for tree, w in self._hanging(kind, i, budget):
            for trees, ws in self._draw(rest, budget - w):
                yield tree + trees, w + ws

    def _candidates(self, budget: int) -> Iterator[PTree]:
        """Every tree with a caret whose hanging weights, plus the right_full
        weight per right caret below the first, are at most budget, and whose
        deepest spine caret has hanging weight > 0.  Each stack entry is a
        spine caret still to fill: the preorder string above it, its kind
        (the root, or a right caret) and the budget left for it and the spine
        below."""
        stack = [("", fordham.ROOT, budget)]
        while stack:
            above, kind, budget = stack.pop()
            for kids, w in self._draw(_hanging_kinds(self.p, kind, 0), budget):
                top = above + "C" + kids  # its last child, the spine below, follows
                if w:
                    yield PTree(top + "L")
                below = budget - w - (self._right_full if kind == fordham.RIGHT else 0)
                stack.append((top, fordham.RIGHT, below))


@dataclass(frozen=True)
class PositiveCensus:
    p: int
    max_weight: int
    counts: tuple[int, ...]  # counts[n] = reduced positive trees of weight n
    trees_scanned: int  # trees the walk built: hanging subtrees and candidates


def enumerate_positive_by_weight(p: int, max_weight: int) -> PositiveCensus:
    """Count reduced positive diagrams by caret weight, 0..max_weight.

    Read a tree along its right spine: the root, then the right carets down
    the last children.  Every other caret lies in a subtree hung at a spine
    caret: the root's left subtree, or a middle subtree.  The classes in a
    hanging subtree, and so its weight, depend on the subtree alone; the
    refinement of right carets reads which middle carets follow them but
    changes no middle caret.  Each caret of a hanging subtree weighs >= 1.
    In a reduced tree the deepest spine caret keeps a caret among its first
    p-1 children, all of them hanging subtrees, so every right caret above
    it has a middle caret after it and is right_full: at most one caret is
    right_empty.  A reduced tree of weight <= W with k right carets thus has
    hanging weights plus (k-1) times the right_full weight at most W.  The
    walk prunes exactly when that sum exceeds W, so it reaches every such
    tree.  It reads the weights from `fordham.CARET_WEIGHTS` when it starts
    and raises ValueError unless the left, middle and right_full classes
    weigh >= 1, since its budget must fall at every caret it adds.  It also
    ends the spine only at a caret with hanging weight > 0, which skips only
    non-reduced trees: a tree with a caret is reduced exactly when its
    deepest spine caret keeps a hanging caret, and each hanging caret
    weighs >= 1.  The leaf is the one other candidate.  Each candidate is
    still tested for reducedness, and each reduced one is weighed whole
    with the Fordham rules, so the counts take nothing from the series."""
    _check_p(p)
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    walk = _Walk(p)
    counts = [0] * (max_weight + 1)
    for tree in itertools.chain((LEAF,), walk._candidates(max_weight)):
        walk._count()
        if is_reduced_positive_tree(p, tree):
            w = fordham.tree_weight(p, tree)
            if w <= max_weight:
                counts[w] += 1
    return PositiveCensus(p, max_weight, tuple(counts), walk.built)


def enumerate_middle_by_weight(p: int, i: int, max_weight: int) -> tuple[int, ...]:
    """Count trees weighed as hanging middle subtrees of kind M^i, by weight:
    the histogram of the census walk's list of them."""
    _check_p(p)
    if not 1 <= i <= p - 1:
        raise ValueError(f"middle index must be in 1..{p - 1}, got {i}")
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    counts = [0] * (max_weight + 1)
    for _, w in _Walk(p)._hanging(fordham.MIDDLE, i, max_weight):
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
        el = ball.representatives[key]  # reduced, as compose returns it
        if diagrams.is_right_spine(p, el.target):
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
