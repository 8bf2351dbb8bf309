"""Words in the generators x_0, x_1, x_2, ... and their inverses.

Grammar for the text form (whitespace separated):

    WORD   := "1" | TOKEN (WS+ TOKEN)*
    TOKEN  := "x" DIGITS ("^-1")?
    DIGITS := [0-9]+

DIGITS are ASCII only: a token spelt with other Unicode digits is malformed.
A run of more DIGITS than the interpreter converts to an int
(`sys.get_int_max_str_digits()`, 4300 by default) is refused too.

"1" denotes the empty word and is only valid on its own.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, Iterable, Iterator, NamedTuple


class WordParseError(ValueError):
    pass


class Letter(NamedTuple):
    index: int
    sign: int  # +1 or -1

    def inverse(self) -> "Letter":
        return Letter(self.index, -self.sign)


# A word is a plain tuple of letters; the empty tuple is the empty word.
Word = tuple[Letter, ...]

_TOKEN_RE = re.compile(r"x([0-9]+)(\^-1)?\Z")


# The one validation of p, kept here because every other module imports words.
def _check_p(p: int) -> None:
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")


def _grow(alphabet: list[Letter], max_len: int, member: Callable[[Word], bool]) -> Iterator[Word]:
    """Every word of length <= max_len of a prefix-closed set of words over
    `alphabet`, by a depth-first walk from the empty word that extends each
    word shorter than max_len by every letter and keeps the extensions
    `member` accepts, so `member` tests only words whose prefix one letter
    shorter is in the set.  A word is pushed only by that prefix, so each
    is met exactly once, and the words of one length on the stack extend
    one word: at most len(alphabet) of them."""
    units = [(a,) for a in alphabet]
    stack: list[Word] = [()]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            for a in units:
                v = w + a
                if member(v):
                    stack.append(v)


def _digit_limit() -> int:
    """The interpreter's limit on the digits of an int read from or written
    to a str; 0 where it has none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def x(index: int, sign: int = 1) -> Letter:
    if index < 0:
        raise ValueError(f"generator index must be >= 0, got {index}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return Letter(index, sign)


def _letter(token: str, limit: int) -> Letter | None:
    """The letter a token spells, or None if it spells none: malformed, or
    an index of more digits than the interpreter converts (`limit`, 0 for
    none)."""
    m = _TOKEN_RE.match(token)
    if m is None or 0 < limit < len(m[1]):
        return None
    return Letter(int(m[1]), -1 if m[2] else 1)


def _fault(text: str, tokens: list[str], table: dict[str, Letter | None]) -> WordParseError:
    """The error for the first token of `tokens`, in text order, that spells
    no letter in `table`, with its position in `text`."""
    pos = 0
    for tok in tokens:
        pos = text.index(tok, pos)
        if table[tok] is None:
            break
        pos += len(tok)
    m = _TOKEN_RE.match(tok)
    if m is None:
        return WordParseError(
            f"malformed token {tok!r} at position {pos}: "
            f"expected x<digits> or x<digits>^-1"
        )
    return WordParseError(
        f"generator index of {len(m[1])} digits at position {pos}: "
        f"more than the interpreter's limit of {_digit_limit()} digits"
    )


def parse_word(text: str) -> Word:
    """Parse the text form of a word.  Blank input is the empty word.  Each
    distinct token is matched once, so equal tokens share one Letter; only a
    word with a bad token is walked again, to report the first one."""
    tokens = text.split()
    if not tokens or tokens == ["1"]:
        return ()
    limit = _digit_limit()
    table = {tok: _letter(tok, limit) for tok in set(tokens)}
    if None in table.values():
        raise _fault(text, tokens, table)
    return tuple(map(table.__getitem__, tokens))


def format_word(word: Iterable[Letter]) -> str:
    """The text form of a word; each distinct letter is rendered once."""
    word = tuple(word)
    if not word:
        return "1"
    names = {a: f"x{a.index}" if a.sign > 0 else f"x{a.index}^-1" for a in set(word)}
    return " ".join(map(names.__getitem__, word))
