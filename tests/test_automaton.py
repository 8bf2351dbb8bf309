import pytest

from thompson_fp.automaton import (
    BRUTE_FORCE_WORD_LIMIT,
    BruteForceGuardError,
    build_automaton,
    count_language_bruteforce,
    count_paths,
    phi_series,
    state_series,
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
    assert 4 ** 11 <= BRUTE_FORCE_WORD_LIMIT < 4 ** 13


def test_state_series_sum_and_residuals():
    # every state accepts, so the per-state series sum to the full count;
    # and q{i},0 is entered only from q{i}, one letter later
    for p in (2, 3):
        fs = state_series(p, 12)
        for n in range(12):
            total = sum(s.coefficient(n) for s in fs.values())
            assert total == count_paths(p, n)
        for i in range(1, p):
            fi, fi0 = fs[f"q{i}"], fs[f"q{i},0"]
            assert all(fi0.coefficient(n) == fi.coefficient(n - 1) for n in range(1, 12))
    assert all(s.order == 0 for s in state_series(2, 0).values())


def test_growth_ratio_approaches_xi():
    # crude sanity: successive ratios for p=2 settle near 2.618
    a, b = count_paths(2, 14), count_paths(2, 15)
    assert abs(b / a - 2.618) < 0.01
