"""Caret classification and the word metric for positive elements of F(p).

Every caret of the source tree of a reduced positive diagram gets one of six
classes, and the word length of the element equals the sum of the weights:

    root           0      left           1
    middle_empty   1      middle_full    3
    right_empty    0      right_full     2

Base kinds propagate from the root downwards.  Writing M^i (1 <= i <= p-1)
for the middle kinds, the children of a caret get kinds and an order role
(predecessor children come before the caret in the caret total order,
successor children after it):

    root:   child 0 -> left (pred); children 1..p-2 -> M^1..M^{p-2};
            child p-1 -> right (succ)
    left:   child 0 -> left (pred); children 1..p-1 -> M^1..M^{p-1} (succ)
    right:  child 0 -> M^{p-1} (pred); children 1..p-2 -> M^1..M^{p-2};
            child p-1 -> right (succ)
    M^i:    children 0..p-i-1 -> M^i..M^{p-1} (pred);
            children p-i..p-1 -> M^1..M^i (succ)

The total order lists, recursively, the predecessor subtrees, then the caret,
then the successor subtrees.  A right caret is right_full when some middle
caret occurs after it in the total order (equivalently, anywhere among its
transitive successors), otherwise right_empty.  A middle caret is middle_full
when at least one of its successor children is a caret, otherwise
middle_empty.  In a reduced positive tree at most one caret is right_empty.

One walk in caret total order gives every caret its final class and its
preorder position; `classify` keys its result by that position and
`tree_weight` sums `CARET_WEIGHTS` over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .diagrams import PTree, TreePair, evaluate, is_right_spine, reduce

ROOT = "root"
LEFT = "left"
MIDDLE_EMPTY = "middle_empty"
MIDDLE_FULL = "middle_full"
RIGHT_EMPTY = "right_empty"
RIGHT_FULL = "right_full"

# Unrefined kind names, for weighing hanging subtrees.
MIDDLE = "middle"
RIGHT = "right"

# Single source of truth for the weights; classification reads it live.
CARET_WEIGHTS = {
    ROOT: 0,
    LEFT: 1,
    MIDDLE_EMPTY: 1,
    MIDDLE_FULL: 3,
    RIGHT_EMPTY: 0,
    RIGHT_FULL: 2,
}


class NotPositiveError(ValueError):
    pass


@dataclass(frozen=True)
class CaretClass:
    kind: str
    middle_index: int | None = None  # i for M^i carets

    @property
    def weight(self) -> int:
        return CARET_WEIGHTS[self.kind]


@dataclass(frozen=True)
class ClassifiedTree:
    p: int
    tree: PTree
    classes: dict[int, CaretClass]  # preorder caret index -> class
    order: tuple[int, ...]  # preorder indices in caret total order

    @property
    def total_weight(self) -> int:
        return sum(c.weight for c in self.classes.values())

    def to_json(self) -> dict:
        return {
            str(i): {
                "class": c.kind,
                "middle_index": c.middle_index,
                "weight": c.weight,
            }
            for i, c in self.classes.items()
        }


# A tree over F(p) needs at most p + 2 entries; the bound keeps the memo from
# growing with every p a long process weighs.
@lru_cache(maxsize=64)
def _child_kinds(p: int, kind: str, mid_i: int) -> tuple[tuple, tuple]:
    """(predecessor, successor) tuples of (child position, kind, middle index)."""
    if kind == ROOT:
        return (
            ((0, LEFT, 0),),
            tuple((c, MIDDLE, c) for c in range(1, p - 1)) + ((p - 1, RIGHT, 0),),
        )
    if kind == LEFT:
        return ((0, LEFT, 0),), tuple((c, MIDDLE, c) for c in range(1, p))
    if kind == RIGHT:
        return (
            ((0, MIDDLE, p - 1),),
            tuple((c, MIDDLE, c) for c in range(1, p - 1)) + ((p - 1, RIGHT, 0),),
        )
    if kind != MIDDLE:
        raise ValueError(f"unknown caret kind {kind!r}")
    preds = tuple((c, MIDDLE, mid_i + c) for c in range(p - mid_i))
    succs = tuple((p - mid_i + k, MIDDLE, k + 1) for k in range(mid_i))
    return preds, succs


def _walk(p: int, tree: PTree, kind: str, mid_i: int) -> list[tuple[int, str, int | None]]:
    """Every caret of `tree`, hung as a subtree of base kind `kind`, in caret
    total order, as (preorder index, class, middle index or None)."""
    carets: list[tuple[int, str, int | None]] = []
    rights: list[int] = []  # positions in `carets` of the right carets
    last_middle = -1
    entered = 0  # visit enters carets in preorder: children go in position order

    def visit(t: PTree, kind: str, mid_i: int) -> None:
        nonlocal last_middle, entered
        idx = entered
        entered += 1
        preds, succs = _child_kinds(p, kind, mid_i)
        for pos, ck, ci in preds:
            child = t.children[pos]
            if child.children is not None:
                visit(child, ck, ci)
        if kind == MIDDLE:
            full = any(t.children[pos].children is not None for pos, _, _ in succs)
            last_middle = len(carets)
            carets.append((idx, MIDDLE_FULL if full else MIDDLE_EMPTY, mid_i))
        elif kind == RIGHT:
            rights.append(len(carets))
            carets.append((idx, RIGHT_EMPTY, None))
        else:
            carets.append((idx, kind, None))
        for pos, ck, ci in succs:
            child = t.children[pos]
            if child.children is not None:
                visit(child, ck, ci)

    if tree.children is not None:
        visit(tree, kind, mid_i)
    # A right caret with a middle caret after it in the total order is full.
    for k in rights:
        if k < last_middle:
            carets[k] = (carets[k][0], RIGHT_FULL, None)
    return carets


def classify(p: int, tree: PTree) -> ClassifiedTree:
    """Classify every caret of a tree read as the source of a positive diagram.

    Carets are numbered by their position in the tree (preorder), so a subtree
    object that occurs at two places counts as two carets."""
    if tree.children is None:
        raise ValueError("the empty tree has no carets to classify")
    classes = {idx: CaretClass(cls, i) for idx, cls, i in _walk(p, tree, ROOT, 0)}
    return ClassifiedTree(p, tree, classes, tuple(classes))


def tree_weight(p: int, tree: PTree, root_kind: str = ROOT, middle_index: int = 0) -> int:
    """Total caret weight of a tree.

    `root_kind`/`middle_index` let a tree be weighed as a hanging subtree
    (e.g. a middle subtree of kind M^i); the default weighs a source tree.
    """
    w = CARET_WEIGHTS
    return sum(w[cls] for _, cls, _ in _walk(p, tree, root_kind, middle_index))


def positive_length(p: int, element: Union[TreePair, tuple, list]) -> int:
    """Word length of a positive element, from its classified source tree.

    Accepts a TreePair or a word (sequence of letters).  Raises
    NotPositiveError for elements that are not positive.
    """
    if isinstance(element, TreePair):
        if element.p != p:
            raise ValueError(f"mismatched p: {element.p} != {p}")
        pair = reduce(element)
    else:
        pair = evaluate(p, tuple(element))
    if not is_right_spine(p, pair.target):
        raise NotPositiveError(
            "Fordham positive method inapplicable: element is not positive"
        )
    if pair.source.children is None:
        return 0
    return tree_weight(p, pair.source)
