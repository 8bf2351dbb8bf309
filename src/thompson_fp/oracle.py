"""Brute-force oracles and the self-check suite.

Everything here recomputes, by exhaustive enumeration or graph search, the
quantities that the analytic modules produce by formula, so agreement is
meaningful evidence:

  * enumerate_positive_by_weight: a depth-first walk down the right spine
    that builds, as preorder strings, only the p-trees which can weigh <= W
    and whose spine ends at a hanging caret, filtered by reducedness,
    weighed by the Fordham rules and histogrammed by weight -> positive
    growth counts.  Each distinct hanging subtree is weighed once per call.
    Its premises on the weight table are `_Walk`'s.  It refuses at once a
    weight whose series counts of the trees and of the left subtrees it
    builds already pass TREE_ENUMERATION_LIMIT.
    enumerate_middle_by_weight histograms the same walk's list of hanging
    middle subtrees -> the M_i series.
  * bfs_group_ball: breadth-first search of the Cayley ball over the
    generators x_0^±1 .. x_{p-1}^±1, one record per element: its reduced
    diagram mapped to a geodesic word -> word lengths and sphere sizes.
    It refuses a ball of more than BALL_SIZE_LIMIT: at once if the normal
    forms up to the radius already pass it, else at the first element past it.
  * bfs_positive_monoid / enumerate_infinite_nf (grown by words._grow):
    word corpora for the normal-form round-trip checks.
  * verify_suite: one loop over _CHECKS, a table of named checks on one
    shared _Run; a check that raises ArithmeticError fails with its message.
    finite-nf-injective evaluates the ball's normal forms in sorted order,
    one product per distinct prefix, each on a fresh spine list.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterator, NamedTuple

from . import automaton as automaton_mod
from . import diagrams, fordham, normal_forms, rates, series
from .diagrams import LEAF, PTree, TreePair
from .words import Letter, Word, _check_p, _grow

TREE_ENUMERATION_LIMIT = 20_000_000
BALL_SIZE_LIMIT = 10**6


class EnumerationGuardError(RuntimeError):
    pass


def is_reduced_positive_tree(p: int, tree: PTree) -> bool:
    """Whether (tree, right spine) is a reduced diagram: the deepest caret on
    the rightmost path, whose subtree ends the preorder string, must keep a
    caret among its first p-1 children."""
    return tree == "L" or not tree.endswith("C" + "L" * p)


# The classes the census prune takes to weigh >= 1: a hanging caret is left
# or middle, and every right caret above the deepest one is right_full.
_PRUNE_CLASSES = (fordham.LEFT, fordham.MIDDLE_EMPTY, fordham.MIDDLE_FULL, fordham.RIGHT_FULL)


class _Walk:
    """One census call's depth-first walk over the trees that can weigh at
    most a budget, built as preorder strings.  It reads the kinds of a
    caret's children from fordham's table, memoises the list of hanging
    subtrees by (kind, middle index, budget), weighs each distinct subtree
    once per (kind, middle index), and counts every tree it builds against
    TREE_ENUMERATION_LIMIT.  Its memos live and die with the walk, so each
    census reads the weight table afresh.  `_hanging` and `_draw` recurse on
    the budget, which each level lowers by one, and on the p child kinds,
    never on the depth of a tree; the spine is walked with an explicit
    stack.

    It refuses, when it starts, a weight table in which a left, middle or
    right_full caret weighs less than 1.  So every caret of a hanging
    subtree lowers the budget, and at a budget of 0 every hanging child is
    a leaf: `_draw` then yields the all-leaf choice in one step."""

    def __init__(self, p: int):
        weights = fordham.CARET_WEIGHTS
        light = [c for c in _PRUNE_CLASSES if weights[c] < 1]
        if light:
            raise ValueError(f"the census prune needs {', '.join(light)} carets to weigh >= 1")
        self.p = p
        self.built = 0
        self._right_full = weights[fordham.RIGHT_FULL]
        self._lists: dict[tuple[str, int, int], list[tuple[PTree, int]]] = {}
        self._weighed: dict[tuple[str, int], dict[str, tuple[PTree, int]]] = {}

    def _count(self) -> None:
        self.built += 1
        if self.built > TREE_ENUMERATION_LIMIT:
            raise EnumerationGuardError(
                f"the census built more than {TREE_ENUMERATION_LIMIT} trees; "
                f"lower max_weight"
            )

    def _hanging(self, kind: str, i: int, budget: int) -> list[tuple[PTree, int]]:
        """Every subtree hung as a `kind` (M^i) child that weighs <= budget,
        with its weight.  Its top caret, left or middle, has no right child,
        and weighs >= 1 (see `_Walk`), so its children share budget - 1.
        Each budget's draw builds the subtrees of the lower ones again, and
        counts them again, but weighs only those no lower budget drew: the
        lists share one (tree, weight) entry per subtree of each kind."""
        key = (kind, i, budget)
        found = self._lists.get(key)
        if found is None:
            found = [(LEAF, 0)]
            weighed = self._weighed.setdefault((kind, i), {})
            kinds = fordham._child_kinds(self.p, kind, i)[1]
            for kids, _ in self._draw(kinds, budget - 1):
                self._count()
                entry = weighed.get(kids)
                if entry is None:
                    tree = PTree("C" + kids)
                    entry = weighed[kids] = tree, fordham.tree_weight(self.p, tree, kind, i)
                if entry[1] <= budget:
                    found.append(entry)
            self._lists[key] = found
        return found

    def _draw(self, kinds: tuple[tuple[str, int], ...], budget: int) -> Iterator[tuple[str, int]]:
        """Every choice of hanging subtrees of the given kinds whose weights
        sum to <= budget, as their preorder strings joined, with that sum.
        At a budget of 0 the one choice is a leaf for each kind (see
        `_Walk`): it is drawn at once, with no `_hanging` list and no frame
        per kind."""
        if budget < 0:
            return
        if budget == 0 or not kinds:
            yield "L" * len(kinds), 0
            return
        (kind, i), rest = kinds[0], kinds[1:]
        for tree, w in self._hanging(kind, i, budget):
            for trees, ws in self._draw(rest, budget - w):
                yield tree + trees, w + ws

    def _candidates(self, budget: int) -> Iterator[PTree]:
        """Every tree with a caret whose deepest spine caret has hanging
        weight > 0 and whose weight is at most budget: its hanging weights,
        plus the right_full weight per right caret below the root, except
        for the deepest caret when its successor children hold no caret.
        A spine caret's child 0 is its one predecessor child, so the carets
        after it in total order are those of its children 1..p-1; when it
        is the deepest, child p-1 is a leaf, and a right caret is right_full
        exactly when its children 1..p-2, all middle subtrees, have hanging
        weight > 0.  Each stack entry is a spine caret still to fill: the
        preorder string above it, the kinds of its hanging children (the
        root's, or a right caret's: every child but the last, the spine
        below), the right_full weight it is charged and the budget left for
        it and the spine below."""
        p, right_full = self.p, self._right_full
        right = fordham._child_kinds(p, fordham.RIGHT, 0)[1][:-1]
        stack = [("", fordham._child_kinds(p, fordham.ROOT, 0)[1][:-1], 0, budget)]
        while stack:
            above, kinds, charge, budget = stack.pop()
            for head, w0 in self._draw(kinds[:1], budget):
                for tail, ws in self._draw(kinds[1:], budget - w0):
                    top = above + "C" + head + tail  # its last child, the spine below, follows
                    w = w0 + ws
                    if w and w + (charge if ws else 0) <= budget:
                        yield PTree(top + "L")
                    stack.append((top, right, right_full, budget - w - charge))


class PositiveCensus(NamedTuple):
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
    changes no middle caret.  Each caret of a hanging subtree weighs >= 1,
    which `_Walk` checks in `fordham.CARET_WEIGHTS` when it starts.  In a
    reduced tree the deepest spine caret keeps a caret among its first p-1
    children, all of them hanging subtrees, so every right caret above it
    has a middle caret after it and is right_full: at most one caret is
    right_empty.  A reduced tree of weight <= W with k right carets thus has
    hanging weights plus (k-1) times the right_full weight at most W.  The
    walk prunes exactly when that sum exceeds W, so it reaches every such
    tree.  It also ends the spine only at a caret with hanging weight > 0,
    which skips only non-reduced trees: a tree with a caret is reduced
    exactly when its deepest spine caret keeps a hanging caret.  A deepest
    caret that is a right caret is right_full exactly when its children
    1..p-2 hold a caret (see `_Walk._candidates`), and the walk ends the
    spine there only if that weight fits too, which skips only trees
    heavier than W.  So every candidate but the leaf is reduced and weighs
    <= W.  Each candidate is still tested for reducedness, and each reduced
    one is weighed whole with the Fordham rules, so the counts take nothing
    from the series.  A hanging subtree is weighed once per call, though
    the walk builds it, and counts it in trees_scanned, once per budget
    whose draw reaches it.

    The walk builds every reduced tree of weight <= W = max_weight, one per
    positive element of that length or less.  At W >= 1 it also draws the
    root's left child by `_Walk._hanging(LEFT, 0, W)`, which builds every
    left subtree of weight 1..W, as its top caret weighs >= 1; the series
    L counts those by weight.  So s_0 + ... + s_W plus l_1 + ... + l_W,
    read from one `series._tail`, bound the walk's work from below: if the
    bound passes TREE_ENUMERATION_LIMIT, EnumerationGuardError is raised
    before the walk.  The pre-check reads at most
    TREE_ENUMERATION_LIMIT.bit_length() + 1 counts, so its cost does not
    grow with the weight, and those already pass the limit, since s_n >=
    p**n >= 2**n (the tests check it at p = 2..8).  It is skipped where
    the bound cannot pass the limit: an element of length n is a word of n
    letters x_i^±1, so s_n <= (2p)**n; S = L M_1...M_(p-2) R, whose
    factors count trees and whose M_i and R start at 1, so l_n <= s_n; and
    the bound up to W = k - 1 is then below 2 (2p)**k / (2p - 1) < (2p)**k.
    Otherwise the walk's own count of built trees refuses it."""
    _check_p(p)
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    order = min(max_weight, TREE_ENUMERATION_LIMIT.bit_length()) + 1
    if (2 * p) ** order > TREE_ENUMERATION_LIMIT:
        l, _, s = series._tail(series.solve_M(p, order).coeffs)
        if sum(s) + sum(l[1:order]) > TREE_ENUMERATION_LIMIT:
            raise EnumerationGuardError(
                f"the census would build more than {TREE_ENUMERATION_LIMIT} trees; "
                f"lower max_weight"
            )
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
    the histogram of the census walk's list of them.  The walk's kind table,
    `fordham._child_kinds`, refuses a middle index outside 1..p-1."""
    _check_p(p)
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    counts = [0] * (max_weight + 1)
    for _, w in _Walk(p)._hanging(fordham.MIDDLE, i, max_weight):
        counts[w] += 1
    return tuple(counts)


class BallStats(NamedTuple):
    """The ball of a radius in F(p), one record per element: `elements` maps
    each reduced pair to a geodesic word for it, the first the BFS found,
    whose length is the element's distance from the identity."""

    p: int
    radius: int
    sphere_sizes: tuple[int, ...]  # index r: elements at distance exactly r
    elements: dict[TreePair, Word]

    @property
    def ball_sizes(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.sphere_sizes))

    def __repr__(self) -> str:
        """Every field but `elements`, which holds the whole ball."""
        p, radius, sizes = self.p, self.radius, self.sphere_sizes
        return f"BallStats(p={p!r}, radius={radius!r}, sphere_sizes={sizes!r})"


def bfs_group_ball(p: int, radius: int) -> BallStats:
    """Breadth-first search of the ball of the given radius in F(p).  Sphere
    r is the set of new elements among the products of sphere r - 1 with
    the 2p generators, each product one local surgery on the element's two
    strings (`diagrams._times_generator`).  Distinct words of L_p name
    distinct elements, and one of length n lies in B(n), so the number of
    words of L_p of length <= radius bounds |B(radius)| from below; if that
    passes BALL_SIZE_LIMIT, EnumerationGuardError is raised before any
    product.  That pre-check takes at most BALL_SIZE_LIMIT.bit_length() + 1
    lengths of the automaton walk, each O(p), so it costs O(p).
    Otherwise the element past the limit raises it, so the work is bounded
    by the limit's worth of elements and their products."""
    _check_p(p)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    too_big = EnumerationGuardError(
        f"the ball of radius {radius} has more than "
        f"BALL_SIZE_LIMIT = {BALL_SIZE_LIMIT} elements; lower the radius"
    )
    # L_p has at least 2^n words of length n (those over x_1, x_1^-1, x_0^-1
    # with no x_1 x_1^-1 or x_1^-1 x_1), so lengths up to the limit's bit
    # length already pass it and the count never needs more of them.
    counts = automaton_mod.language_counts(p, min(radius, BALL_SIZE_LIMIT.bit_length()) + 1)
    if any(n > BALL_SIZE_LIMIT for n in itertools.accumulate(counts)):
        raise too_big
    moves = [Letter(i, sign) for i in range(p) for sign in (1, -1)]
    times = diagrams._times_generator
    start = diagrams.identity(p)
    elements: dict[TreePair, Word] = {start: ()}
    spheres = [1]
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for el in frontier:
            w = elements[el]
            for letter in moves:
                # a fresh spine list: the surgery moves the one it is given
                s, t = times(p, el.source, el.target, *letter, [0])
                e2 = TreePair(p, PTree(s), PTree(t))
                if e2 not in elements:
                    elements[e2] = w + (letter,)
                    nxt.append(e2)
                    if len(elements) > BALL_SIZE_LIMIT:
                        raise too_big
        spheres.append(len(nxt))
        frontier = nxt
    return BallStats(p, radius, tuple(spheres), elements)


def bfs_positive_monoid(p: int, max_len: int, index_bound: int) -> list[Word]:
    """All positive normal-form words: nondecreasing index sequences of
    length <= max_len over x_0..x_{index_bound}."""
    _check_p(p)
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    out: list[Word] = []
    for m in range(max_len + 1):
        for combo in itertools.combinations_with_replacement(range(index_bound + 1), m):
            out.append(tuple(Letter(i, 1) for i in combo))
    return out


def enumerate_infinite_nf(p: int, max_len: int, index_bound: int) -> Iterator[Word]:
    """All irreducible words of length <= max_len with indices <= index_bound,
    grown by words._grow: a letter may follow the last one if the pair is
    irreducible.  The arguments are checked at the call, not when iterated."""
    _check_p(p)
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    alphabet = [Letter(i, s) for i in range(index_bound + 1) for s in (1, -1)]
    return _grow(alphabet, max_len, lambda v: normal_forms.is_infinite_nf(p, v[-2:]))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str


class VerifyReport(NamedTuple):
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


class _Run(NamedTuple):
    """What the checks share; counts[n] = |L_p ∩ Σ^n| for n < lang_order."""

    p: int
    cfg: dict
    rng: random.Random
    ball: BallStats
    counts: list[int]

    def random_word(self, max_len: int) -> Word:
        """A seeded word of length <= max_len over x_0^±1 .. x_{3p}^±1."""
        rng, n = self.rng, self.rng.randint(0, max_len)
        return tuple(Letter(rng.randint(0, 3 * self.p), rng.choice((1, -1))) for _ in range(n))


def _relations(run: _Run) -> tuple[bool, str]:
    """`compose` returns reduced, hence unique, diagrams: `==` compares them."""
    p, g = run.p, [diagrams.generator_pair(run.p, n) for n in range(3 * run.p)]
    bad = [
        (i, j)
        for i, j in itertools.combinations(range(2 * p + 1), 2)
        if diagrams.compose(g[j], g[i]) != diagrams.compose(g[i], g[j + p - 1])
    ]
    return not bad, f"x_j x_i = x_i x_(j+p-1) for 0<=i<j<=2p; bad={bad}"


def _rewriting_confluence(run: _Run) -> tuple[bool, str]:
    """Confluence, termination budget and soundness on diagrams, which
    `evaluate` returns reduced, hence unique: `==` compares them."""
    p, mism, unsound = run.p, 0, 0
    for _ in range(run.cfg["words"]):
        w = run.random_word(12)
        nf = normal_forms.to_infinite_nf(p, w)
        mism += normal_forms.rewrite_random(p, w, run.rng) != nf
        unsound += len(w) <= 7 and diagrams.evaluate(p, w) != diagrams.evaluate(p, nf)
    return mism == unsound == 0, (
        f"{run.cfg['words']} random words; strategy mismatches={mism}, unsound={unsound}"
    )


def _fordham_vs_bfs(run: _Run) -> tuple[bool, str]:
    """Ball elements are reduced, so a positive one weighs its source tree."""
    p, ball = run.p, run.ball
    bad = [
        str(el)
        for el, w in ball.elements.items()
        if diagrams.is_right_spine(p, el.target) and fordham.tree_weight(p, el.source) != len(w)
    ]
    return not bad, f"radius {ball.radius}: ball {len(ball.elements)}, mismatches={bad[:3]}"


def _finite_nf_injective(run: _Run) -> tuple[bool, str]:
    """Each element's form evaluates back to it, so no two elements share a
    form, and each form lies in L_p.  The forms are evaluated in sorted
    order, each distinct prefix once: `stack[k]` holds the pair after the
    first k letters of the last form, and a form keeps the entries of the
    prefix it shares with the last one and extends them by one product per
    letter, each on a fresh spine list as in `bfs_group_ball`."""
    p, elements = run.p, run.ball.elements
    times = diagrams._times_generator
    pairs = ((normal_forms.finite_nf(p, w), el) for el, w in elements.items())
    forms = sorted(pairs, key=lambda pair: pair[0])
    not_preserving, not_in_lang = 0, 0
    stack: list[tuple[str, str]] = [(LEAF, LEAF)]
    last: Word = ()
    for nf, el in forms:
        not_in_lang += not normal_forms.is_in_Lp(p, nf)
        k = 0
        for a, b in zip(last, nf):
            if a != b:
                break
            k += 1
        del stack[k + 1:]
        for n, sign in nf[k:]:
            stack.append(times(p, *stack[-1], n, sign, [0]))
        not_preserving += stack[-1] != (el.source, el.target)
        last = nf
    return not_preserving == not_in_lang == 0, (
        f"ball {len(elements)}: eval mismatches={not_preserving}, outside L_p={not_in_lang}"
    )


def _bar_unbar_round_trip(run: _Run) -> tuple[bool, str]:
    """The positive monoid box plus random words in infinite normal form."""
    p, corpus = run.p, bfs_positive_monoid(run.p, 4, 2 * run.p)
    half = run.cfg["words"] // 2
    nfs = [normal_forms.to_infinite_nf(p, run.random_word(10)) for _ in range(half)]
    bad = sum(normal_forms.unbar(p, normal_forms.bar(p, w)) != w for w in corpus + nfs)
    return bad == 0, f"{len(corpus)} box words + random; bad={bad}"


def _census_vs_series(run: _Run) -> tuple[bool, str]:
    census = enumerate_positive_by_weight(run.p, run.cfg["census_w"]).counts
    counts = tuple(series.positive_growth_series(run.p, run.cfg["census_w"] + 1).counts())
    return census == counts, f"census={census} series={counts}"


def _language_counts(run: _Run) -> tuple[bool, str]:
    p, n, pc = run.p, run.cfg["lang_order"], run.counts
    closed = pc == series.series_to_ints(automaton_mod.phi_series(p, n))
    brute_ns = [k for k in range(n) if (2 * p) ** k <= 50_000]
    brute = automaton_mod.language_counts_bruteforce(p, len(brute_ns)) == pc[: len(brute_ns)]
    return closed and brute, f"walk==closed-form to n<{n}: {closed}; brute n={brute_ns}: {brute}"


def _series_master_equation(run: _Run) -> tuple[bool, str]:
    return series.check_eqonn(run.p, run.cfg["order"]).is_zero, f"order {run.cfg['order']}"


def _rate_enclosures(run: _Run) -> tuple[bool, str]:
    p = run.p
    z, q, ratio = rates.zeta(p), rates.xi(p), run.counts[-1] / run.counts[-2]
    ok = p < z.low and z.high < Fraction(2 * p + 1, 2) and abs(float(q.midpoint) - ratio) < 0.5
    return ok, (
        f"zeta in ({float(z.low):.9f},{float(z.high):.9f}); "
        f"xi mid {float(q.midpoint):.9f} vs count ratio {ratio:.6f}"
    )


def _language_below_ball(run: _Run) -> tuple[bool, str]:
    """Every normal form of length <= n names a distinct element of the
    radius-n ball, so the cumulative language counts sit below gamma."""
    gam, cumulative = run.ball.ball_sizes, list(itertools.accumulate(run.counts))
    return all(c <= g for c, g in zip(cumulative, gam)), (
        f"cumulative counts {cumulative[: len(gam)]} vs ball {list(gam)}"
    )


_CHECKS = (
    ("relations", _relations),
    ("rewriting-confluence", _rewriting_confluence),
    ("fordham-vs-bfs", _fordham_vs_bfs),
    ("finite-nf-injective", _finite_nf_injective),
    ("bar-unbar-round-trip", _bar_unbar_round_trip),
    ("census-vs-series", _census_vs_series),
    ("language-counts", _language_counts),
    ("series-master-equation", _series_master_equation),
    ("rate-enclosures", _rate_enclosures),
    ("language-below-ball", _language_below_ball),
)


def verify_suite(p: int, profile: str = "small") -> VerifyReport:
    """Run the `_CHECKS` table in order on one `_Run`, whose ball and counts
    are built once and whose `random.Random(0)` draws every random word, so
    every run of a profile checks the same words.  A check that raises
    ArithmeticError fails with its message and the rest still run; any
    other exception, such as the ball guard's, propagates."""
    _check_p(p)
    if profile not in _PROFILES:
        raise ValueError(f"profile must be one of {sorted(_PROFILES)}, got {profile!r}")
    cfg = _PROFILES[profile]
    ball = bfs_group_ball(p, cfg["radius"])  # its guard refuses before the long walk
    counts = automaton_mod.language_counts(p, cfg["lang_order"])
    run = _Run(p, cfg, random.Random(0), ball, counts)
    checks = []
    for name, check in _CHECKS:
        try:
            passed, details = check(run)
        except ArithmeticError as exc:
            passed, details = False, str(exc)
        checks.append(CheckResult(name, bool(passed), details))
    return VerifyReport(p, profile, tuple(checks))
