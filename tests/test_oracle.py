import itertools
from math import comb

import pytest

from thompson_fp import fordham, oracle
from thompson_fp.cli import run
from thompson_fp.diagrams import num_carets, num_leaves, parse_tree
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
from thompson_fp.series import positive_growth_series


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


def test_census_candidates_are_all_reduced():
    # the walk ends the spine only at a caret that keeps a hanging caret
    for p, top in ((2, 10), (3, 6)):
        for w in range(top + 1):
            walk = oracle._Walk(p)
            candidates = list(walk._candidates(w))
            assert candidates or w == 0, (p, w)
            assert all(is_reduced_positive_tree(p, t) for t in candidates), (p, w)


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
    for p, top in ((2, 7), (3, 5), (4, 4), (5, 4)):
        unpruned = _unpruned_census(iter_trees, p, top)
        middles = [_unpruned_middle_census(iter_trees, p, i, top) for i in range(1, p)]
        for w in range(top + 1):
            assert enumerate_positive_by_weight(p, w).counts == unpruned[: w + 1], (p, w)
            for i in range(1, p):
                got = enumerate_middle_by_weight(p, i, w)
                assert got == middles[i - 1][: w + 1], (p, i, w)


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


def test_middle_census_matches_solve_Mi():
    # weighs every tree as a hanging M^i subtree through fordham.tree_weight
    from thompson_fp.series import series_to_ints, solve_Mi

    for p, w in ((2, 8), (3, 6), (4, 5), (5, 4)):
        for i in range(1, p):
            census = enumerate_middle_by_weight(p, i, w)
            assert list(census) == series_to_ints(solve_Mi(p, i, w + 1)), (p, i)


def test_census_counts_are_census_of_distinct_elements():
    census = enumerate_positive_by_weight(2, 4)
    assert census.counts == (1, 2, 4, 9, 20)


def test_bfs_ball_f2():
    stats = bfs_group_ball(2, 3)
    assert list(stats.sphere_sizes) == [1, 4, 12, 36]
    assert list(stats.ball_sizes) == [1, 5, 17, 53]
    # witness words really have the BFS length
    for key, dist in itertools.islice(stats.elements.items(), 20):
        assert len(stats.witness_words[key]) == dist


def test_bfs_ball_guard():
    # radius 14 slipped past a guard that estimated the ball as xi(p)^r
    for radius in (14, 25):
        with pytest.raises(EnumerationGuardError):
            bfs_group_ball(2, radius)


def test_bfs_positive_monoid_yields_sorted_spellings():
    words = bfs_positive_monoid(2, 3, index_bound=4)
    assert () in words
    assert all(all(a.sign == 1 for a in w) for w in words)
    assert all(
        all(w[i].index <= w[i + 1].index for i in range(len(w) - 1)) for w in words
    )
    # one spelling per multiset of indices
    assert len(words) == len(set(words))


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


def test_verify_suite_small_passes():
    for p in (2, 3):
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
