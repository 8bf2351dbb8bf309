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
        assert format_word(parse_word(text)) == text if text != "1" else True
    assert format_word(()) == "1"
    assert parse_word(format_word((x(5), x(0, -1)))) == (x(5), x(0, -1))


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
