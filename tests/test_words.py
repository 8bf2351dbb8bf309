import contextlib
import random
import re
import sys

import pytest

from thompson_fp.words import (
    Letter,
    WordParseError,
    format_word,
    parse_word,
    x,
)


def test_parse_simple():
    assert parse_word("x0 x3 x1^-1") == (x(0), x(3), x(1, -1))


def test_parse_identity_and_empty():
    assert parse_word("1") == ()
    assert parse_word("") == ()
    assert parse_word("   ") == ()


def test_format_round_trip():
    for text in ("1", "x0", "x2^-1 x2^-1 x0", "x10 x0^-1"):
        assert format_word(parse_word(text)) == text
    assert format_word(()) == "1"
    assert format_word(iter(parse_word("x1 x1 x0^-1"))) == "x1 x1 x0^-1"
    assert parse_word(format_word((x(5), x(0, -1)))) == (x(5), x(0, -1))
    rng = random.Random(31)
    for _ in range(200):
        text = " ".join(
            f"x{rng.randrange(40)}" + ("^-1" if rng.random() < 0.5 else "")
            for _ in range(rng.randrange(1, 30))
        )
        assert format_word(parse_word(text)) == text


# the last two spell 3 with an Arabic-Indic and a fullwidth digit
@pytest.mark.parametrize(
    "bad", ["x", "x-1", "x1^2", "x1^1", "y0", "x0x1", "x01q", "x\u0663", "x\uff13"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(WordParseError) as err:
        parse_word(bad)
    assert bad.split()[0] in str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(WordParseError) as err:
        parse_word("x0 x1 zz")
    assert "position 6" in str(err.value)


def test_letter_inverse():
    assert x(4).inverse() == x(4, -1)
    assert x(4, -1).inverse() == x(4)
    with pytest.raises(ValueError, match="generator index must be >= 0, got -1"):
        x(-1)
    with pytest.raises(ValueError, match="sign must be \\+1 or -1, got 2"):
        x(0, 2)


def test_letter_is_hashable_and_ordered_tuple():
    seen = {Letter(3, 1), Letter(3, -1), Letter(3, 1)}
    assert len(seen) == 2


def _reference_parse(text):
    """One token at a time, as the parser read words before it kept a
    table: the first bad token in text order raises, at its position."""
    tokens = text.split()
    if tokens in ([], ["1"]):
        return ()
    letters, pos = [], 0
    for tok in tokens:
        pos = text.index(tok, pos)
        m = re.match(r"x([0-9]+)(\^-1)?\Z", tok)
        if m is None:
            raise WordParseError(
                f"malformed token {tok!r} at position {pos}: "
                f"expected x<digits> or x<digits>^-1"
            )
        try:
            index = int(m[1])
        except ValueError:  # more digits than the interpreter converts
            raise WordParseError(
                f"generator index of {len(m[1])} digits at position {pos}: "
                f"more than the interpreter's limit of {sys.get_int_max_str_digits()} digits"
            ) from None
        letters.append(Letter(index, -1 if m[2] else 1))
        pos += len(tok)
    return tuple(letters)


@contextlib.contextmanager
def _digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _outcome(parse, text):
    try:
        return parse(text)
    except WordParseError as err:
        return str(err)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit"
)


@needs_digit_limit
def test_token_table_matches_a_per_token_parser():
    # Seeded texts over a few repeated tokens, good and bad, with tab,
    # newline, ideographic space (U+3000) and runs of them as separators.
    good = ["x0", "x3", "x3^-1", "x12", "x007", "x" + "9" * 640]
    bad = ["1", "x", "y0", "x1^2", "x01q", "x\u0663", "x" + "1" * 641]
    seps = [" ", "\t", "\n", "\u3000", "  \t", " \u3000\n"]
    rng = random.Random(30)
    texts = [
        "x0 x0 zz x0 zz",  # a repeated malformed token
        "x3 x3 x3 x1^2 x3",  # a bad token after a repeated good one
        "x0\tx1\nx2\u3000x3",
        "x0 1 x1",  # "1" inside a word
        "x1 " + "x" + "1" * 641 + " y0 " + "x" + "1" * 641,
    ]
    for _ in range(400):
        n = rng.randrange(1, 12)
        pool = good if rng.random() < 0.5 else good + bad
        parts = [rng.choice(seps) if rng.random() < 0.2 else ""]
        for i in range(n):
            parts.append(rng.choice(pool))
            parts.append(rng.choice(seps) if i < n - 1 or rng.random() < 0.2 else "")
        texts.append("".join(parts))
    failed = 0
    with _digit_limit(640):
        for text in texts:
            expected = _outcome(_reference_parse, text)
            assert _outcome(parse_word, text) == expected, text
            failed += isinstance(expected, str)
    assert 100 < failed < len(texts) - 100


def test_equal_tokens_share_one_letter():
    w = parse_word("x2 x0^-1 x2 x0^-1 x2")
    assert w == (x(2), x(0, -1), x(2), x(0, -1), x(2))
    assert w[0] is w[2] is w[4] and w[1] is w[3]


@needs_digit_limit
def test_an_index_past_the_digit_limit_is_a_parse_error():
    with _digit_limit(640):
        assert parse_word("x" + "7" * 640) == (x(int("7" * 640)),)
        with pytest.raises(WordParseError) as err:
            parse_word("x0 zz x0 x" + "7" * 641 + "^-1")
        assert str(err.value).startswith("malformed token 'zz' at position 3")
        with pytest.raises(WordParseError) as err:
            parse_word("x0 x" + "7" * 641 + "^-1 zz")
        assert str(err.value) == (
            "generator index of 641 digits at position 3: "
            "more than the interpreter's limit of 640 digits"
        )
    with _digit_limit(0):  # no limit: any index converts
        assert parse_word("x" + "7" * 5000) == (x(int("7" * 5000)),)
