import tracemalloc

import pytest

from thompson_fp.automaton import (
    BRUTE_FORCE_WORD_LIMIT,
    BruteForceGuardError,
    build_automaton,
    count_language_bruteforce,
    count_paths,
    language_counts,
    phi_series,
)
from thompson_fp.normal_forms import is_in_Lp
from thompson_fp.series import series_to_ints


def test_state_count():
    for p in (2, 3, 5):
        a = build_automaton(p)
        assert len(a.states) == 2 * p + 1
        assert a.states[0] == "q"
        assert a.states[-1] == "qbar"


def test_matrix_rows_match_states():
    a = build_automaton(3)
    assert len(a.matrix) == len(a.states)
    assert all(len(row) == len(a.states) for row in a.matrix)
    # multiplicities are small nonnegative integers
    assert all(0 <= m <= 2 * 3 for row in a.matrix for m in row)


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
    # the automaton counts exactly the membership predicate
    import itertools
    from thompson_fp.words import x

    p, n = 2, 5
    letters = [x(i, s) for i in range(p) for s in (1, -1)]
    direct = sum(1 for w in itertools.product(letters, repeat=n) if is_in_Lp(p, w))
    assert direct == count_paths(p, n)


def test_brute_force_guard_trips():
    with pytest.raises(BruteForceGuardError):
        count_language_bruteforce(2, 40)
    with pytest.raises(ValueError, match="length must be >= 0, got -1"):
        count_language_bruteforce(2, -1)
    assert 4 ** 11 <= BRUTE_FORCE_WORD_LIMIT < 4 ** 13


def test_language_counts_and_entry_into_q_i0():
    # one walk gives every count, as count_paths and the closed form do;
    # and q{i},0 is entered only from q{i}, by one letter
    for p in (2, 3):
        counts = language_counts(p, 12)
        assert counts == [count_paths(p, n) for n in range(12)]
        assert counts == series_to_ints(phi_series(p, 12))
        a = build_automaton(p)
        for i in range(1, p):
            column = [row[a.states.index(f"q{i},0")] for row in a.matrix]
            assert column == [int(s == f"q{i}") for s in a.states]
    assert language_counts(2, 0) == []


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
