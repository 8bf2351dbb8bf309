"""Words in the generators x_0, x_1, x_2, ... and their inverses.

Grammar for the text form (whitespace separated):

    WORD   := "1" | TOKEN (WS+ TOKEN)*
    TOKEN  := "x" DIGITS ("^-1")?
    DIGITS := [0-9]+

DIGITS are ASCII only: a token spelt with other Unicode digits is malformed.

"1" denotes the empty word and is only valid on its own.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple


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


def x(index: int, sign: int = 1) -> Letter:
    if index < 0:
        raise ValueError(f"generator index must be >= 0, got {index}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return Letter(index, sign)


def parse_word(text: str) -> Word:
    """Parse the text form of a word.  Blank input is the empty word."""
    tokens = text.split()
    if not tokens:
        return ()
    if tokens == ["1"]:
        return ()
    letters = []
    pos = 0
    for tok in tokens:
        pos = text.index(tok, pos)
        m = _TOKEN_RE.match(tok)
        if m is None:
            raise WordParseError(
                f"malformed token {tok!r} at position {pos}: "
                f"expected x<digits> or x<digits>^-1"
            )
        letters.append(Letter(int(m.group(1)), -1 if m.group(2) else 1))
        pos += len(tok)
    return tuple(letters)


def format_word(word: Iterable[Letter]) -> str:
    parts = [f"x{a.index}" if a.sign > 0 else f"x{a.index}^-1" for a in word]
    return " ".join(parts) if parts else "1"

