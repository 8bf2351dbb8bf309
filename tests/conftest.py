"""Helpers shared by the test modules."""

from __future__ import annotations

from typing import Iterator

import pytest

from thompson_fp.diagrams import LEAF, PTree


def _iter_trees(p: int, carets: int) -> Iterator[PTree]:
    """All p-ary trees with exactly `carets` carets: the unpruned
    Fuss-Catalan scan that the census walk is checked against."""
    if carets == 0:
        yield LEAF
        return
    for kids in _iter_child_tuples(p, carets - 1, p):
        yield PTree("C" + "".join(kids))


def _iter_child_tuples(p: int, total: int, slots: int) -> Iterator[tuple[PTree, ...]]:
    if slots == 1:
        for t in _iter_trees(p, total):
            yield (t,)
        return
    for head_count in range(total + 1):
        for head in _iter_trees(p, head_count):
            for rest in _iter_child_tuples(p, total - head_count, slots - 1):
                yield (head,) + rest


@pytest.fixture
def iter_trees():
    return _iter_trees
