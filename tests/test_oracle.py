import itertools
from fractions import Fraction

import pytest

from thompson_fp import fordham
from thompson_fp.diagrams import num_carets, num_leaves, parse_tree
from thompson_fp.oracle import (
    EnumerationGuardError,
    bfs_group_ball,
    bfs_positive_monoid,
    enumerate_infinite_nf,
    enumerate_positive_by_weight,
    is_reduced_positive_tree,
    iter_trees,
    verify_suite,
)


def test_iter_trees_counts_match_fuss_catalan():
    from math import comb

    for p in (2, 3):
        for c in range(6):
            expected = comb(p * c, c) // ((p - 1) * c + 1)
            assert sum(1 for _ in iter_trees(p, c)) == expected, (p, c)


def test_iter_trees_yields_distinct_well_formed_trees():
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
        from thompson_fp.series import positive_growth_series

        assert list(census.counts) == positive_growth_series(p, 6).counts()
        assert census.trees_scanned > 0


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
        skewed_s = series.PowerSeries(tuple(Fraction(c) for c in coeffs))
        return type(bundle)(
            bundle.p, bundle.order, bundle.mi, bundle.m, bundle.l, bundle.r, skewed_s
        )

    monkeypatch.setattr(series, "positive_growth_series", skewed)
    report = verify_suite(2, "small")
    failed = {c.name for c in report.checks if not c.passed}
    assert "census-vs-series" in failed
