import collections
import itertools
import random
from math import comb

import pytest

from thompson_fp import diagrams, fordham, normal_forms, oracle
from thompson_fp.cli import run
from thompson_fp.diagrams import evaluate, num_carets, num_leaves, parse_tree
from thompson_fp.oracle import (
    EnumerationGuardError,
    bfs_group_ball,
    bfs_positive_monoid,
    enumerate_infinite_nf,
    enumerate_middle_by_weight,
    enumerate_positive_by_weight,
    is_reduced_positive_tree,
    verify_suite,
)
from thompson_fp.series import positive_counts, positive_growth_series
from thompson_fp.words import Letter


def _tree_count(p, carets):
    """Number of p-ary trees with the given caret count (Fuss-Catalan)."""
    return comb(p * carets, carets) // ((p - 1) * carets + 1)


def test_iter_trees_counts_match_fuss_catalan(iter_trees):
    for p in (2, 3):
        for c in range(6):
            assert sum(1 for _ in iter_trees(p, c)) == _tree_count(p, c), (p, c)


def test_iter_trees_yields_distinct_well_formed_trees(iter_trees):
    seen = set()
    for t in iter_trees(3, 3):
        assert num_carets(t) == 3
        assert num_leaves(t) == 7
        seen.add(t)
    assert len(seen) == 12


def test_reduced_tree_predicate():
    # right-spine trees pair with an identical target, so they all reduce away
    assert is_reduced_positive_tree(2, parse_tree(2, "L"))
    assert not is_reduced_positive_tree(2, parse_tree(2, "CLL"))
    assert not is_reduced_positive_tree(2, parse_tree(2, "CLCLL"))
    assert is_reduced_positive_tree(2, parse_tree(2, "CCLLL"))
    assert is_reduced_positive_tree(2, parse_tree(2, "CLCCLLL"))


def test_census_matches_series_small():
    for p in (2, 3):
        census = enumerate_positive_by_weight(p, 5)
        assert list(census.counts) == positive_growth_series(p, 6).counts()
        # a tree of weight <= 5 has at most 7 carets; the walk builds fewer
        # than half of the trees that have that many
        unpruned = sum(_tree_count(p, c) for c in range(8))
        assert 0 < census.trees_scanned < unpruned / 2, (p, census.trees_scanned)


def test_census_matches_series_to_higher_weights():
    for p, w in ((2, 14), (3, 8)):
        census = enumerate_positive_by_weight(p, w)
        assert list(census.counts) == positive_growth_series(p, w + 1).counts(), p


def test_census_prunes_the_fuss_catalan_scan():
    # the unpruned scan built every tree with up to W + 2 = 14 carets
    unpruned = sum(_tree_count(2, c) for c in range(15))
    assert unpruned == 3_707_852
    census = enumerate_positive_by_weight(2, 12)
    # every tree it counts is one it built
    assert sum(census.counts) <= census.trees_scanned < unpruned / 20
    # of 54 321 trees within the bound, the walk skips 13 620 non-reduced tails
    assert census.trees_scanned == 54_321 - 13_620


def test_census_builds_the_same_trees_at_large_p():
    # an all-leaf draw is one step, yet every tree is still built and counted
    for p, w, built in ((12, 2, 325), (20, 3, 17_110), (45, 2, 4186)):
        assert enumerate_positive_by_weight(p, w).trees_scanned == built, (p, w)


def test_census_computes_each_kind_entry_once():
    # the kind entries of F(70) live in one table of p, built once when the
    # census first needs it and kept across walks too
    fordham._kind_table.cache_clear()
    enumerate_positive_by_weight(70, 2)
    info = fordham._kind_table.cache_info()
    assert info.misses == 1 and info.hits > 0
    enumerate_positive_by_weight(70, 1)
    assert fordham._kind_table.cache_info().misses == 1


def test_census_candidates_are_all_reduced():
    # the walk ends the spine only at a caret that keeps a hanging caret
    for p, top in ((2, 10), (3, 6)):
        for w in range(top + 1):
            walk = oracle._Walk(p)
            candidates = list(walk._candidates(w))
            assert candidates or w == 0, (p, w)
            assert all(is_reduced_positive_tree(p, t) for t in candidates), (p, w)


def test_census_candidates_are_the_counted_trees():
    # at p >= 3 a deepest right caret with a caret among its children
    # 1..p-2 is right_full, and the walk charges it, so every candidate but
    # the leaf is counted
    for p in (3, 4, 5):
        for w in range(6):
            counted = sum(enumerate_positive_by_weight(p, w).counts) - 1
            assert sum(1 for _ in oracle._Walk(p)._candidates(w)) == counted, (p, w)


def _unpruned_census(iter_trees, p, max_weight):
    counts = [0] * (max_weight + 1)
    for c in range(max_weight + 3):
        for t in iter_trees(p, c):
            if is_reduced_positive_tree(p, t):
                w = fordham.tree_weight(p, t)
                if w <= max_weight:
                    counts[w] += 1
    return tuple(counts)


def _unpruned_middle_census(iter_trees, p, i, max_weight):
    counts = [0] * (max_weight + 1)
    for c in range(max_weight + 1):
        for t in iter_trees(p, c):
            w = fordham.tree_weight(p, t, fordham.MIDDLE, i)
            if w <= max_weight:
                counts[w] += 1
    return tuple(counts)


def test_census_equals_unpruned_scan(iter_trees):
    # each budget up to the top one, as the walk prunes differently at each
    # at p = 12 the budget reaches 0 with up to 10 hanging kinds left to draw
    for p, top in ((2, 7), (3, 5), (4, 4), (5, 4), (12, 2)):
        unpruned = _unpruned_census(iter_trees, p, top)
        middles = [_unpruned_middle_census(iter_trees, p, i, top) for i in range(1, p)]
        for w in range(top + 1):
            assert enumerate_positive_by_weight(p, w).counts == unpruned[: w + 1], (p, w)
            for i in range(1, p):
                got = enumerate_middle_by_weight(p, i, w)
                assert got == middles[i - 1][: w + 1], (p, i, w)


@pytest.mark.parametrize("p, w, hanging", [(2, 10, 1976), (4, 6, 3820)])
def test_census_weighs_each_hanging_subtree_once(monkeypatch, p, w, hanging):
    # each budget's list draws the lower budgets' subtrees again, but takes
    # their weights from the walk's entries; candidates are weighed whole
    real, calls = fordham.tree_weight, collections.Counter()

    def counted(*args):
        calls[args] += 1
        return real(*args)

    monkeypatch.setattr(fordham, "tree_weight", counted)
    census = enumerate_positive_by_weight(p, w)
    assert max(calls.values()) == 1
    assert sum(len(args) == 4 for args in calls) == hanging
    assert census.counts == tuple(positive_growth_series(p, w + 1).counts())


def test_census_reads_live_weight_table():
    # the census weighs by the Fordham table, never by the series
    expected = positive_growth_series(2, 7).counts()
    original = fordham.CARET_WEIGHTS[fordham.MIDDLE_FULL]
    try:
        fordham.CARET_WEIGHTS[fordham.MIDDLE_FULL] = original + 1
        assert list(enumerate_positive_by_weight(2, 6).counts) != expected
    finally:
        fordham.CARET_WEIGHTS[fordham.MIDDLE_FULL] = original
    assert list(enumerate_positive_by_weight(2, 6).counts) == expected


def test_census_prune_reads_the_right_full_weight(monkeypatch, iter_trees):
    # the spine prune subtracts the right_full weight the table holds
    monkeypatch.setitem(fordham.CARET_WEIGHTS, fordham.RIGHT_FULL, 1)
    for p, top in ((2, 6), (3, 5)):
        assert enumerate_positive_by_weight(p, top).counts == _unpruned_census(iter_trees, p, top)
    assert enumerate_positive_by_weight(2, 6).counts == (1, 2, 5, 12, 29, 70, 168)


@pytest.mark.parametrize(
    "cls", [fordham.LEFT, fordham.MIDDLE_EMPTY, fordham.MIDDLE_FULL, fordham.RIGHT_FULL]
)
def test_census_refuses_a_weightless_caret(monkeypatch, cls):
    # read live, a weight of 0 would let the spine walk run forever
    monkeypatch.setitem(fordham.CARET_WEIGHTS, cls, 0)
    with pytest.raises(ValueError, match=f"{cls} carets to weigh >= 1"):
        enumerate_positive_by_weight(2, 6)
    with pytest.raises(ValueError, match=cls):
        enumerate_middle_by_weight(2, 1, 6)


def test_census_guard_counts_trees_built(monkeypatch, capsys):
    built = enumerate_positive_by_weight(2, 6).trees_scanned
    monkeypatch.setattr(oracle, "TREE_ENUMERATION_LIMIT", built)
    assert enumerate_positive_by_weight(2, 6).trees_scanned == built
    monkeypatch.setattr(oracle, "TREE_ENUMERATION_LIMIT", built - 1)
    with pytest.raises(EnumerationGuardError, match=f"more than {built - 1} trees"):
        enumerate_positive_by_weight(2, 6)
    with pytest.raises(EnumerationGuardError):
        enumerate_middle_by_weight(2, 1, 12)
    capsys.readouterr()
    assert run(["growth", "positive", "--p", "2", "--n", "7", "--method", "brute"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the census built more than {built - 1} trees; lower max_weight\n"
    )


def _census_bound(p, w):
    # the reduced trees of weight <= w and the left subtrees of weight 1..w
    return sum(positive_counts(p, w + 1)) + sum(positive_growth_series(p, w + 1).l.coeffs[1:])


@pytest.mark.parametrize(
    "p, w, bound, built",
    [(2, 6, 251, 377), (2, 12, 31_260, 40_701), (3, 5, 567, 862), (4, 4, 456, 755),
     (5, 3, 191, 340), (9, 2, 101, 190)],
)
def test_census_builds_at_least_the_series_bound(p, w, bound, built):
    # the walk builds every reduced tree of weight <= w, and draws the
    # root's left child through every left subtree of weight 1..w
    assert _census_bound(p, w) == bound
    assert enumerate_positive_by_weight(p, w).trees_scanned == built >= bound


def test_census_refuses_at_once_past_the_series_counts(monkeypatch, capsys):
    # the positive counts and the left-subtree counts up to a weight bound
    # the trees the walk builds, so past the limit the census is refused
    # before the walk starts; the pre-check reads few counts (s_n >= p**n)
    # and skips weights whose bound cannot pass it (l_n <= s_n <= (2p)**n)
    for p in range(2, 9):
        counts = positive_counts(p, 40)
        assert all(p**n <= s <= (2 * p) ** n for n, s in enumerate(counts)), p
        left = positive_growth_series(p, 40).l.coeffs
        assert all(l <= s for l, s in zip(left, counts)), p
    reach = _census_bound(2, 6)
    monkeypatch.setattr(oracle, "TREE_ENUMERATION_LIMIT", reach)
    with pytest.raises(EnumerationGuardError, match=f"census built more than {reach} trees"):
        enumerate_positive_by_weight(2, 6)  # the walk's own count refuses it
    monkeypatch.setattr(oracle, "TREE_ENUMERATION_LIMIT", reach - 1)

    def no_walk(p):
        raise AssertionError("the walk started")

    monkeypatch.setattr(oracle, "_Walk", no_walk)
    with pytest.raises(EnumerationGuardError, match=f"would build more than {reach - 1} trees"):
        enumerate_positive_by_weight(2, 6)
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_Walk", no_walk)
    for p, w in ((2, 20), (2, 21), (3, 14), (5, 10), (20, 6), (2, 10**9)):
        with pytest.raises(EnumerationGuardError, match="would build more than 20000000 trees"):
            enumerate_positive_by_weight(p, w)
    for n in (21, 100):
        assert run(["growth", "positive", "--p", "2", "--n", str(n), "--method", "brute"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the census would build more than 20000000 trees; lower max_weight\n"
        )


def test_middle_census_matches_the_series_bundle():
    # weighs every tree as a hanging M^i subtree through fordham.tree_weight
    for p, w in ((2, 8), (3, 6), (4, 5), (5, 4)):
        mi = positive_growth_series(p, w + 1).mi
        for i in range(1, p):
            census = enumerate_middle_by_weight(p, i, w)
            assert list(census) == list(mi[i - 1].coeffs), (p, i)
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"middle index must be in 1..2, got {i}"):
            enumerate_middle_by_weight(3, i, 4)
    with pytest.raises(ValueError, match="max_weight must be >= 0, got -1"):
        enumerate_middle_by_weight(3, 1, -1)


def test_census_counts_are_census_of_distinct_elements():
    census = enumerate_positive_by_weight(2, 4)
    assert census.counts == (1, 2, 4, 9, 20)
    with pytest.raises(ValueError, match="max_weight must be >= 0, got -1"):
        enumerate_positive_by_weight(2, -1)


def test_bfs_ball_f2():
    stats = bfs_group_ball(2, 3)
    assert list(stats.sphere_sizes) == [1, 4, 12, 36]
    assert list(stats.ball_sizes) == [1, 5, 17, 53]
    # each witness word evaluates to the element it is recorded for
    for pair, w in itertools.islice(stats.elements.items(), 20):
        assert evaluate(2, w) == pair
    with pytest.raises(ValueError, match="radius must be >= 0, got -1"):
        bfs_group_ball(2, -1)


def test_ball_repr_leaves_out_the_elements():
    text = repr(bfs_group_ball(2, 3))
    assert "elements" not in text
    assert text == "BallStats(p=2, radius=3, sphere_sizes=(1, 4, 12, 36))"


def test_bfs_ball_guard(monkeypatch):
    # A limit of exactly |B(5)| = 475 at p=2 admits radius 5 and stops every
    # larger radius, however far past the limit it would go.  The language
    # pre-check stops these before any product: L_2 has 1029 words of length
    # <= 6, each a distinct element of B(6).
    monkeypatch.setattr(oracle, "BALL_SIZE_LIMIT", 475)
    assert bfs_group_ball(2, 5).ball_sizes[-1] == 475
    for radius in (6, 14, 25):
        with pytest.raises(EnumerationGuardError, match=f"radius {radius} .*BALL_SIZE_LIMIT = 475"):
            bfs_group_ball(2, radius)


def test_bfs_ball_counting_guard(monkeypatch):
    # L_2 has 387 words of length <= 5 and |B(5)| = 475, so a limit of 474
    # passes the pre-check and only the count of elements found refuses the
    # ball, after some products and within the limit's worth of them.
    from thompson_fp import diagrams

    products = 0
    times = diagrams._times_generator

    def counted(*args):
        nonlocal products
        products += 1
        return times(*args)

    monkeypatch.setattr(oracle, "BALL_SIZE_LIMIT", 474)
    monkeypatch.setattr(diagrams, "_times_generator", counted)
    with pytest.raises(EnumerationGuardError, match="radius 5 .*BALL_SIZE_LIMIT = 474"):
        bfs_group_ball(2, 5)
    assert 0 < products <= 4 * 474


def test_bfs_ball_refused_before_any_product(monkeypatch):
    # At p=20 the words of L_p up to length 4 already number 1 039 385, each
    # a distinct element of B(4), so the ball is refused without a product.
    from thompson_fp import diagrams

    def no_products(*args):
        raise AssertionError("a product was computed")

    monkeypatch.setattr(diagrams, "_times_generator", no_products)
    with pytest.raises(EnumerationGuardError, match="radius 4 .*BALL_SIZE_LIMIT = 1000000"):
        bfs_group_ball(20, 4)
    # however large the radius, the pre-check counts at most 21 lengths:
    # L_p has at least 2^n words of length n, and 2^21 - 1 > 10^6
    from thompson_fp import automaton

    counts = automaton.language_counts

    def at_most_21_lengths(p, order):
        assert order <= 21, f"the pre-check asked for {order} lengths"
        return counts(p, order)

    monkeypatch.setattr(automaton, "language_counts", at_most_21_lengths)
    with pytest.raises(EnumerationGuardError, match="radius 1000000000 "):
        bfs_group_ball(2, 10**9)


def test_bfs_positive_monoid_yields_sorted_spellings():
    words = bfs_positive_monoid(2, 3, index_bound=4)
    assert () in words
    assert all(all(a.sign == 1 for a in w) for w in words)
    assert all(
        all(w[i].index <= w[i + 1].index for i in range(len(w) - 1)) for w in words
    )
    # one spelling per multiset of indices
    assert len(words) == len(set(words))


def test_bfs_positive_monoid_refuses_a_negative_length():
    with pytest.raises(ValueError, match="max_len must be >= 0, got -1"):
        bfs_positive_monoid(2, -1, 2)


def test_enumerate_infinite_nf_agrees_with_filtering():
    from thompson_fp.normal_forms import is_infinite_nf
    from thompson_fp.words import x

    p, max_len, bound = 2, 3, 4
    letters = [x(i, s) for i in range(bound + 1) for s in (1, -1)]
    expected = sorted(
        w
        for n in range(max_len + 1)
        for w in itertools.product(letters, repeat=n)
        if is_infinite_nf(p, w)
    )
    got = sorted(enumerate_infinite_nf(p, max_len, bound))
    assert got == expected


def test_enumerate_infinite_nf_checks_p_when_called():
    with pytest.raises(ValueError, match="p must be an integer >= 2, got 1"):
        enumerate_infinite_nf(1, 2, 2)


def test_enumerate_infinite_nf_refuses_a_negative_length_when_called():
    with pytest.raises(ValueError, match="max_len must be >= 0, got -1"):
        enumerate_infinite_nf(2, -1, 2)


def test_verify_suite_small_passes():
    for p in (2, 3, 4):
        report = verify_suite(p, "small")
        assert report.ok, [c for c in report.checks if not c.passed]
        assert len(report.checks) == 10


def test_verify_suite_json_shape():
    report = verify_suite(2, "small")
    payload = report.to_json()
    assert payload["ok"] is True
    for entry in payload["checks"]:
        assert set(entry) == {"check_name", "status", "details"}
        assert entry["status"] in ("pass", "fail")


def test_verify_suite_rejects_unknown_profile():
    with pytest.raises(ValueError):
        verify_suite(2, "huge")


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_finite_nf_check_catches_two_swapped_forms(monkeypatch):
    # x0 and x1 lie at distance 1, so the ball holds them as one-letter words
    real, x0, x1 = normal_forms.finite_nf, (Letter(0, 1),), (Letter(1, 1),)
    swap = {x0: x1, x1: x0}
    monkeypatch.setattr(normal_forms, "finite_nf", lambda p, w: real(p, swap.get(w, w)))
    check = _check(verify_suite(2, "small"), "finite-nf-injective")
    assert not check.passed
    assert check.details == "ball 161: eval mismatches=2, outside L_p=0"


def test_finite_nf_check_catches_a_form_outside_the_language(monkeypatch):
    # x0 x0^-1 names the identity, so only the language test can see it
    real, bad = normal_forms.finite_nf, (Letter(0, 1), Letter(0, -1))
    monkeypatch.setattr(normal_forms, "finite_nf", lambda p, w: real(p, w) if w else bad)
    check = _check(verify_suite(2, "small"), "finite-nf-injective")
    assert not check.passed
    outside = int(check.details.rsplit("outside L_p=", 1)[1])
    assert outside >= 1, check.details


@pytest.mark.parametrize("p, products", [(2, 190), (3, 1164), (4, 4087)])
def test_finite_nf_check_makes_one_product_per_distinct_prefix(monkeypatch, p, products):
    # the forms have 636 / 3982 / 13 962 letters; each distinct nonempty
    # prefix of them costs one product
    cfg = oracle._PROFILES["small"]
    ball = bfs_group_ball(p, cfg["radius"])
    forms = [normal_forms.finite_nf(p, w) for w in ball.elements.values()]
    assert len({nf[:k] for nf in forms for k in range(1, len(nf) + 1)}) == products
    real, calls = diagrams._times_generator, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(diagrams, "_times_generator", counted)
    passed, _ = oracle._finite_nf_injective(oracle._Run(p, cfg, random.Random(0), ball, []))
    assert passed
    assert len(calls) == products


def test_census_check_catches_corrupted_weights(monkeypatch):
    # cross-validation exists to catch exactly this kind of bug
    monkeypatch.setitem(fordham.CARET_WEIGHTS, fordham.RIGHT_FULL, 3)
    report = verify_suite(2, "small")
    failed = {c.name for c in report.checks if not c.passed}
    assert "census-vs-series" in failed


def test_census_check_catches_wrong_series(monkeypatch):
    from thompson_fp import series

    real = series.positive_growth_series

    def skewed(p, order):
        bundle = real(p, order)
        coeffs = list(bundle.s.coeffs)
        if len(coeffs) > 3:
            coeffs[3] += 1
        skewed_s = series.PowerSeries(tuple(coeffs))
        return type(bundle)(
            bundle.p, bundle.order, bundle.mi, bundle.m, bundle.l, bundle.r, skewed_s
        )

    monkeypatch.setattr(series, "positive_growth_series", skewed)
    report = verify_suite(2, "small")
    failed = {c.name for c in report.checks if not c.passed}
    assert "census-vs-series" in failed


def test_verify_reports_an_arithmetic_error_as_one_failed_check(monkeypatch):
    from thompson_fp import series

    def boom(p, order):
        raise ArithmeticError("boom")

    monkeypatch.setattr(series, "positive_growth_series", boom)
    report = verify_suite(2, "small")
    assert len(report.checks) == 10
    failed = [c for c in report.checks if not c.passed]
    assert [(c.name, c.details) for c in failed] == [("census-vs-series", "boom")]


def test_verify_refuses_a_ball_before_the_language_walk(monkeypatch):
    from thompson_fp import automaton

    orders = []
    counts = automaton.language_counts

    def recorded(p, order):
        orders.append(order)
        return counts(p, order)

    monkeypatch.setattr(automaton, "language_counts", recorded)
    monkeypatch.setattr(oracle, "BALL_SIZE_LIMIT", 100)
    with pytest.raises(EnumerationGuardError, match="radius 4 .*BALL_SIZE_LIMIT = 100"):
        verify_suite(2, "small")
    assert orders and oracle._PROFILES["small"]["lang_order"] not in orders
