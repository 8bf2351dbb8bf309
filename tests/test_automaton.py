import functools
import itertools
import tracemalloc

import pytest

from thompson_fp.automaton import (
    BRUTE_FORCE_WORD_LIMIT,
    BruteForceGuardError,
    count_language_bruteforce,
    count_paths,
    language_counts,
    language_counts_bruteforce,
    phi_series,
)
from thompson_fp import oracle, series
from thompson_fp.normal_forms import is_in_Lp
from thompson_fp.series import series_to_ints
from thompson_fp.words import Letter


def _words(p, n):
    """Every word of length n over x_0^±1 .. x_{p-1}^±1."""
    letters = [Letter(i, s) for i in range(p) for s in (1, -1)]
    return itertools.product(letters, repeat=n)


def test_p2_path_counts():
    assert [count_paths(2, n) for n in range(5)] == [1, 4, 12, 34, 92]


def test_counts_are_monotone_and_positive():
    for p in (2, 4):
        prev = 0
        for n in range(10):
            c = count_paths(p, n)
            assert c > prev or n == 0
            prev = c


def test_phi_matches_matrix():
    for p in (2, 3, 6):
        counts = series_to_ints(phi_series(p, 25))
        assert counts == [count_paths(p, n) for n in range(25)]


def test_brute_force_agrees_with_matrix():
    for p, nmax in ((2, 9), (3, 6)):
        for n in range(nmax):
            assert count_language_bruteforce(p, n) == count_paths(p, n)


def test_brute_force_counts_the_language():
    # the automaton counts exactly the membership predicate, and the walk
    # over the prefix tree counts what filtering every word counts
    for p, nmax in ((2, 7), (3, 5), (4, 4), (5, 3)):
        direct = [sum(is_in_Lp(p, w) for w in _words(p, n)) for n in range(nmax + 1)]
        assert direct == [count_paths(p, n) for n in range(nmax + 1)], p
        assert language_counts_bruteforce(p, nmax + 1) == direct, p


def test_brute_force_guard_trips(monkeypatch):
    # the guard reads the longest length before the walk tests any word
    def no_enumeration(p, word):
        raise AssertionError("enumerated before refusing")

    monkeypatch.setattr("thompson_fp.automaton.is_in_Lp", no_enumeration)
    with pytest.raises(BruteForceGuardError):
        count_language_bruteforce(2, 40)
    for p, order in ((2, 13), (3, 10)):
        with pytest.raises(BruteForceGuardError, match="exceeds the enumeration limit"):
            language_counts_bruteforce(p, order)
    with pytest.raises(ValueError, match="length must be >= 0, got -1"):
        count_language_bruteforce(2, -1)
    with pytest.raises(ValueError, match="order must be >= 0, got -1"):
        language_counts_bruteforce(2, -1)
    assert language_counts_bruteforce(2, 0) == []
    assert 4 ** 11 <= BRUTE_FORCE_WORD_LIMIT < 4 ** 13


def test_language_is_prefix_closed():
    # the premise of the brute-force walk: a prefix of a word of L_p is in L_p
    for p, nmax in ((2, 6), (3, 5)):
        for n in range(1, nmax + 1):
            for w in _words(p, n):
                assert not is_in_Lp(p, w) or is_in_Lp(p, w[:-1]), (p, w)


def test_language_counts_agree_with_count_paths_and_phi():
    # one walk gives every count, as count_paths and the closed form do
    for p in (2, 3):
        counts = language_counts(p, 12)
        assert counts == [count_paths(p, n) for n in range(12)]
        assert counts == series_to_ints(phi_series(p, 12))
    assert language_counts(2, 0) == []


def test_walk_costs_o_p_per_letter():
    # the walk keeps 2p+1 counts, not a (2p+1)^2 matrix (2.66 MB at p = 200)
    tracemalloc.start()
    try:
        language_counts(200, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256_000
    # 4p^2 two-letter words, less the 2p pairs x_i^e x_i^-e and the
    # (p-1)(p-2) pairs x_a^e x_b with 0 < b < a
    for p in (*range(2, 51), 20000):
        assert language_counts(p, 3) == [1, 2 * p, 3 * p * p + p - 2], p
    # so the ball's language pre-check refuses a large p at once
    with pytest.raises(oracle.EnumerationGuardError):
        oracle.bfs_group_ball(5000, 4)


def test_p_is_checked_before_the_walk():
    # order 0 walks no letter, yet p is still checked; with a valid p the
    # order or length gets its own message
    for f in (language_counts, count_paths):
        with pytest.raises(ValueError, match="p must be an integer >= 2, got 1"):
            f(1, 0)
        with pytest.raises(ValueError, match="must be >= 0, got -1"):
            f(2, -1)


@pytest.mark.parametrize("call", [
    language_counts, count_paths, language_counts_bruteforce, count_language_bruteforce,
    phi_series, series.solve_M, series.positive_counts, series.positive_growth_series,
    oracle.enumerate_positive_by_weight, oracle.bfs_group_ball,
    functools.partial(oracle.bfs_positive_monoid, index_bound=3),
    functools.partial(oracle.enumerate_infinite_nf, index_bound=3),
], ids=lambda f: getattr(f, "func", f).__name__)
def test_every_entry_point_reports_p_before_its_length(call):
    # with both p and the length or order wrong, each one names p
    with pytest.raises(ValueError, match="p must be an integer >= 2, got 1"):
        call(1, -1)


def test_count_paths_keeps_one_vector():
    # count_paths walks to length n keeping one vector, not the list of all
    # counts up to n, whose bits grow as n^2 (about 2.5 MB at n = 5000)
    tracemalloc.start()
    try:
        count_paths(2, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert count_paths(2, 300) == language_counts(2, 301)[300]
    with pytest.raises(ValueError):
        count_paths(2, -1)


def test_growth_ratio_approaches_xi():
    # crude sanity: successive ratios for p=2 settle near 2.618
    a, b = count_paths(2, 14), count_paths(2, 15)
    assert abs(b / a - 2.618) < 0.01
