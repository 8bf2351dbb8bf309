import itertools
import random
import tracemalloc

import pytest

from thompson_fp.diagrams import equal, evaluate
import thompson_fp.normal_forms as nf_mod
from thompson_fp.normal_forms import (
    CANCEL,
    PUSH_NEG,
    PUSH_POS,
    NotInLanguageError,
    _apply,
    _rule_at,
    bar,
    finite_nf,
    is_in_Lp,
    is_infinite_nf,
    rewrite_random,
    step_budget,
    to_infinite_nf,
    unbar,
)
from thompson_fp.words import Letter, format_word, parse_word


def _random_word(rng, p, length, index_bound=6):
    return tuple(
        parse_word(f"x{rng.randrange(index_bound)}" + ("" if rng.random() < 0.5 else "^-1"))[0]
        for _ in range(length)
    )


def test_cancel_rule():
    assert to_infinite_nf(2, parse_word("x3 x3^-1")) == ()
    assert to_infinite_nf(2, parse_word("x3^-1 x3")) == ()


def test_push_positive():
    # x_j x_i -> x_i x_{j+p-1} for j > i
    assert to_infinite_nf(2, parse_word("x2 x0")) == parse_word("x0 x3")
    assert to_infinite_nf(3, parse_word("x2 x0")) == parse_word("x0 x4")


def test_push_negative():
    # x_{j+p-1} x_i^-1 -> x_i^-1 x_j for j > i
    assert to_infinite_nf(2, parse_word("x3 x0^-1")) == parse_word("x0^-1 x2")
    assert to_infinite_nf(3, parse_word("x4 x0^-1")) == parse_word("x0^-1 x2")


def test_small_index_gap_blocks_negative_push():
    # x_2 x_0^-1 with p=3 has gap 2 < p: already irreducible
    w = parse_word("x2 x0^-1")
    assert is_infinite_nf(3, w)
    assert to_infinite_nf(3, w) == w


def test_irreducible_characterization_sample():
    # irreducible iff every adjacent pair is locally allowed
    pairs = [
        (2, "x0 x1", True),
        (2, "x1 x0", False),
        (2, "x0 x0^-1", False),
        (2, "x0^-1 x0", False),
        (2, "x2 x1^-1", True),
        (2, "x3 x1^-1", False),
        (3, "x3 x1^-1", True),
        (3, "x4 x1^-1", False),
        (2, "x0 x0", True),
    ]
    for p, text, expect in pairs:
        assert is_infinite_nf(p, parse_word(text)) is expect, (p, text)


def test_rewriting_preserves_element():
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(80):
            w = _random_word(rng, p, rng.randrange(1, 9))
            nf = to_infinite_nf(p, w)
            assert is_infinite_nf(p, nf)
            assert equal(evaluate(p, w), evaluate(p, nf))


def test_two_strategies_agree():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(60):
            w = _random_word(rng, p, rng.randrange(1, 9))
            assert to_infinite_nf(p, w) == rewrite_random(p, w, rng)


def test_step_budget_formula():
    assert step_budget(0) == 1
    assert step_budget(1) == 1
    assert step_budget(4) == 9


def test_step_budget_bounds_the_rewriting(monkeypatch):
    monkeypatch.setattr(nf_mod, "step_budget", lambda n: 1)
    assert to_infinite_nf(2, parse_word("x2 x0")) == parse_word("x0 x3")
    with pytest.raises(RuntimeError, match="step budget"):
        to_infinite_nf(2, parse_word("x1 x2 x0"))
    rng = random.Random(0)
    assert rewrite_random(2, parse_word("x2 x0"), rng) == parse_word("x0 x3")
    with pytest.raises(RuntimeError, match="step budget"):
        rewrite_random(2, parse_word("x1 x2 x0"), rng)


def test_step_budget_counts_every_step_of_a_run(monkeypatch):
    # x1^-1 pushes past the run x3 x4 x5 one letter at a time, then cancels
    # with x1: four steps, all charged to the budget
    w = parse_word("x1 x3 x4 x5 x1^-1")
    trace = []
    assert to_infinite_nf(2, w, trace) == parse_word("x2 x3 x4")
    assert trace == [{"rule": PUSH_NEG, "position": k} for k in (3, 2, 1)] + [
        {"rule": CANCEL, "position": 0}
    ]
    monkeypatch.setattr(nf_mod, "step_budget", lambda n: len(trace))
    assert to_infinite_nf(2, w) == parse_word("x2 x3 x4")
    monkeypatch.setattr(nf_mod, "step_budget", lambda n: len(trace) - 1)
    with pytest.raises(RuntimeError, match="step budget"):
        to_infinite_nf(2, w)


def test_trace_length_limit(monkeypatch):
    # x1^-1 crosses the run x3 x4 x5 and cancels with x1: four entries, and
    # finite_nf adds a fifth for bar
    w = parse_word("x1 x3 x4 x5 x1^-1")
    for limit, normalize in ((4, to_infinite_nf), (5, finite_nf)):
        monkeypatch.setattr(nf_mod, "TRACE_LENGTH_LIMIT", limit)
        trace = []
        normalize(2, w, trace)
        assert len(trace) == limit
        monkeypatch.setattr(nf_mod, "TRACE_LENGTH_LIMIT", limit - 1)
        with pytest.raises(ValueError, match=f"TRACE_LENGTH_LIMIT = {limit - 1}"):
            normalize(2, w, [])
        normalize(2, w)  # the limit bounds only a trace


def test_trace_records_rules():
    trace = []
    to_infinite_nf(2, parse_word("x2 x0"), trace)
    assert trace == [{"rule": "push-positive", "position": 0}]


def _leftmost_reference(p, word):
    """Rescan from position 0 after every step; rewrite the first reducible pair."""
    w, trace = list(word), []
    while True:
        for k in range(len(w) - 1):
            rule = _rule_at(p, w, k)
            if rule is not None:
                break
        else:
            return tuple(w), trace
        a, b = w[k], w[k + 1]
        if rule == CANCEL:
            w[k:k + 2] = []
        else:
            shift = p - 1 if rule == PUSH_POS else 1 - p
            w[k:k + 2] = [b, Letter(a[0] + shift, a[1])]
        trace.append({"rule": rule, "position": k})


def _seeded_words(seed, p, count, max_len, index_bound, positive):
    """count words of up to max_len letters with indices 0..index_bound;
    signs are fair coins unless the word is positive."""
    rng = random.Random(seed)
    return [
        tuple(
            Letter(rng.randint(0, index_bound), 1 if positive or rng.random() < 0.5 else -1)
            for _ in range(rng.randint(0, max_len))
        )
        for _ in range(count)
    ]


def _trace_cases():
    """(p, word) pairs: short words, words up to 120 letters, signed words
    over indices 0..p+1, where cancels follow long runs and come in chains,
    and words u u^-1 of an irreducible u, whose cancels empty the blocks
    that hold u one after another."""
    rng = random.Random(17)
    for p in (2, 3, 5):
        for positive in (True, False):
            for _ in range(25):
                yield p, tuple(
                    Letter(rng.randint(0, 3 * p), 1 if positive or rng.random() < 0.5 else -1)
                    for _ in range(rng.randint(0, 40))
                )
    for p in (2, 3, 5):
        for positive in (True, False):
            for w in _seeded_words(100 + p, p, 3, 120, 3 * p, positive):
                yield p, w
        for w in _seeded_words(200 + p, p, 40, 60, p + 1, False):
            yield p, w
    irreducible = [(2, tuple(Letter(i, 1) for i in range(200)))]
    rng = random.Random(19)
    for p in (2, 3, 5):
        for _ in range(3):
            w = tuple(
                Letter(rng.randint(0, 3 * p), 1 if rng.random() < 0.7 else -1)
                for _ in range(rng.randint(100, 280))
            )
            irreducible.append((p, to_infinite_nf(p, w)))
    for p, u in irreducible:
        assert 60 <= len(u) <= 200, (p, len(u))
        yield p, u + tuple(a.inverse() for a in reversed(u))


def _cancels_after_runs(trace, run):
    """How many cancels in a trace come right after one letter's pushes past
    `run` letters, at the positions just above the cancel's."""
    count = 0
    for i in range(run, len(trace)):
        pos = trace[i]["position"]
        count += trace[i]["rule"] == CANCEL and any(
            trace[i - run:i] == [{"rule": rule, "position": pos + k} for k in range(run, 0, -1)]
            for rule in (PUSH_POS, PUSH_NEG)
        )
    return count


def test_trace_is_the_leftmost_strategy():
    long_runs_then_cancel = 0
    for p, w in _trace_cases():
        trace = []
        assert (to_infinite_nf(p, w, trace), trace) == _leftmost_reference(p, w), (p, w)
        long_runs_then_cancel += _cancels_after_runs(trace, 3)
    assert long_runs_then_cancel > 20


def test_long_words_reach_their_irreducible_form():
    # irreducible forms are unique, so an irreducible word of the same
    # element is the answer, whatever the route; the prefix of a word this
    # long is held in many blocks, split again and again
    rng = random.Random(41)
    for p in (2, 3, 5):
        for positive in (True, False):
            n = rng.randint(2000, 2200) if positive else rng.randint(2400, 3000)
            w = tuple(
                Letter(rng.randint(0, 3 * p), 1 if positive or rng.random() < 0.5 else -1)
                for _ in range(n)
            )
            nf = to_infinite_nf(p, w)
            assert is_infinite_nf(p, nf)
            assert evaluate(p, w) == evaluate(p, nf), (p, positive)


def test_long_trace_replays_to_the_result():
    # positions are counted from the block sizes; replaying the trace checks
    # them on a word whose prefix outgrows many blocks and cancels often
    rng = random.Random(53)
    p = 3
    w = tuple(
        Letter(rng.randint(0, 3 * p), 1 if rng.random() < 0.6 else -1) for _ in range(1200)
    )
    trace = []
    nf = to_infinite_nf(p, w, trace)
    assert len(nf) > 500 and sum(t["rule"] == CANCEL for t in trace) > 100
    replay = list(w)
    for entry in trace:
        assert _rule_at(p, replay, entry["position"]) == entry["rule"], entry
        _apply(replay, entry["position"], entry["rule"], p)
    assert tuple(replay) == nf


def test_trace_shares_one_entry_per_rule_and_position():
    # a positive word of n letters takes about n**2 / 4 rewrites here, but
    # names at most 3 n (rule, position) pairs: the trace holds references
    rng = random.Random(1)
    w = tuple(Letter(rng.randint(0, 9), 1) for _ in range(600))
    tracemalloc.start()
    try:
        trace = []
        to_infinite_nf(3, w, trace)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace) == 158_741
    assert kept <= 32 * len(trace)
    distinct = {id(entry): entry for entry in trace}
    assert len(distinct) <= 3 * len(w)
    assert sorted((e["rule"], e["position"]) for e in distinct.values()) == sorted(
        {(e["rule"], e["position"]) for e in trace}
    )
    rng = random.Random(7)
    w = tuple(Letter(rng.randint(0, 9), rng.choice((1, -1))) for _ in range(400))
    trace = []
    to_infinite_nf(3, w, trace)
    assert {e["rule"] for e in trace} == {CANCEL, PUSH_NEG, PUSH_POS}
    assert len({id(e) for e in trace}) == len({(e["rule"], e["position"]) for e in trace})


def _bar_reference(p, word):
    """Expand every x_j^e (j >= 1) into x_0^-d x_r^e x_0^d, then cancel
    adjacent x_0 pairs with a stack pass."""
    expanded = []
    for a in word:
        j, sign = a
        if j == 0:
            expanded.append(a)
            continue
        r = (j - 1) % (p - 1) + 1
        d = (j - r) // (p - 1)
        expanded.extend([Letter(0, -1)] * d)
        expanded.append(Letter(r, sign))
        expanded.extend([Letter(0, 1)] * d)
    out = []
    for a in expanded:
        if out and a[0] == 0 and out[-1][0] == 0 and out[-1][1] == -a[1]:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def test_bar_matches_the_expand_then_cancel_reference():
    for p in (2, 3, 5):
        words = _seeded_words(300 + p, p, 60, 30, 3 * p, False)
        words += _seeded_words(400 + p, p, 30, 30, p, False)  # dense in x_0^±1
        words += _seeded_words(100 + p, p, 3, 120, 3 * p, True)
        nfs = [to_infinite_nf(p, w) for w in words]
        for w in words + nfs:
            assert bar(p, w) == _bar_reference(p, w), (p, w)
        for w in nfs:
            assert unbar(p, bar(p, w)) == w, (p, w)


def test_bar_refuses_an_image_past_the_length_limit(monkeypatch):
    # x3 at p=2 is x0^-2 x1 x0^2: five letters
    monkeypatch.setattr(nf_mod, "BAR_LENGTH_LIMIT", 5)
    assert len(bar(2, parse_word("x3"))) == 5
    monkeypatch.setattr(nf_mod, "BAR_LENGTH_LIMIT", 4)
    with pytest.raises(ValueError, match="has 5 letters, more than BAR_LENGTH_LIMIT = 4"):
        bar(2, parse_word("x3"))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="has 1999999999999 letters"):
        finite_nf(2, parse_word("x1000000000000"))


def test_bar_small_indices_fixed():
    for p in (2, 3):
        for i in range(1, p):
            w = parse_word(f"x{i}")
            assert bar(p, w) == w


def test_bar_conjugates_high_indices():
    # x_3 with p=3: 3 = 1 + 1*(3-1), so bar gives x0^-1 x1 x0
    assert bar(3, parse_word("x3")) == parse_word("x0^-1 x1 x0")
    assert bar(2, parse_word("x2")) == parse_word("x0^-1 x1 x0")
    assert bar(2, parse_word("x3")) == parse_word("x0^-1 x0^-1 x1 x0 x0")


def test_bar_cancels_x0_only():
    # adjacent x0-conjugation from consecutive letters collapses
    w = parse_word("x2 x2")
    assert bar(2, w) == parse_word("x0^-1 x1 x1 x0")


def test_membership_examples():
    yes = [
        (2, "1"),
        (2, "x0"),
        (2, "x0^-1 x1 x0"),
        (2, "x1 x0^-1"),
        (2, "x0^-1 x1 x0 x0"),     # bar of x0 x3
        (3, "x0^-1 x2 x0"),
    ]
    no = [
        (2, "x1 x0 x0^-1"),        # free cancellation
        (2, "x0 x0^-1"),
        (2, "x1 x0 x1"),           # bar image of the reducible word x0 x2 x1
        (2, "x1 x0 x0 x1^-1"),
    ]
    for p, text in yes:
        assert is_in_Lp(p, parse_word(text)), (p, text)
    for p, text in no:
        assert not is_in_Lp(p, parse_word(text)), (p, text)


def test_out_of_language_word_renormalizes():
    # the forbidden spelling and its canonical form agree as group elements
    w = parse_word("x1 x0 x1")
    canon = finite_nf(2, w)
    assert is_in_Lp(2, canon)
    assert equal(evaluate(2, w), evaluate(2, canon))


def test_unbar_rejects_outside_language():
    with pytest.raises(NotInLanguageError):
        unbar(2, parse_word("x0 x0^-1"))
    with pytest.raises(NotInLanguageError):
        unbar(2, parse_word("x5"))


def test_bar_unbar_round_trip_exhaustive_small():
    # every irreducible word over a small index window survives the round trip
    p = 2
    letters = [parse_word(t)[0] for t in ("x0", "x1", "x2", "x0^-1", "x1^-1", "x2^-1")]
    checked = 0
    for length in range(5):
        for combo in itertools.product(letters, repeat=length):
            if not is_infinite_nf(p, combo):
                continue
            image = bar(p, combo)
            assert is_in_Lp(p, image)
            assert unbar(p, image) == combo
            checked += 1
    assert checked > 100


def test_unbar_bar_round_trip_on_language():
    # conversely, every short language word is hit by exactly its preimage
    p = 2
    letters = [parse_word(t)[0] for t in ("x0", "x1", "x0^-1", "x1^-1")]
    for length in range(6):
        for combo in itertools.product(letters, repeat=length):
            if not is_in_Lp(p, combo):
                continue
            pre = unbar(p, combo)
            assert is_infinite_nf(p, pre)
            assert bar(p, pre) == combo


def test_finite_nf_is_evaluation_preserving():
    rng = random.Random(9)
    for p in (2, 3):
        for _ in range(60):
            w = _random_word(rng, p, rng.randrange(1, 8))
            nf = finite_nf(p, w)
            assert is_in_Lp(p, nf)
            assert equal(evaluate(p, w), evaluate(p, nf))


def test_finite_nf_trace_ends_with_bar():
    trace = []
    finite_nf(2, parse_word("x2 x0"), trace)
    assert trace[-1]["rule"] == "bar"


def test_format_of_normal_form_output():
    nf = finite_nf(2, parse_word("x3 x1 x2^-1"))
    assert format_word(nf) == "x1 x0^-1 x1^-1 x0^-1 x1 x0 x0"
