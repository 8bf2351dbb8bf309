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

The children of M^i are the ring M^1..M^{p-1} read from M^i on, p entries
round it, so one table of O(p) entries per p holds every row: the rows of
root, left and right carets, and the ring written out twice.

The total order lists, recursively, the predecessor subtrees, then the caret,
then the successor subtrees.  A right caret is right_full when some middle
caret occurs after it in the total order (equivalently, anywhere among its
transitive successors), otherwise right_empty.  A middle caret is middle_full
when at least one of its successor children is a caret, otherwise
middle_empty.  In a reduced positive tree at most one caret is right_empty.

One left-to-right pass over the tree's preorder string, with a stack of
(offset into the table, next child position) per open caret, classes every
caret as it reads: a middle caret turns full when a successor child starts
with "C", and a right caret, which lies on the rightmost path, enters full
and turns empty when the string ends with no middle caret started after its
child 1 began.  The same pass lists the carets in total order: a caret's
predecessor children come first among its children, so it takes its place
when the pass reaches its first successor child, after all of its
predecessor subtrees and before any of its successor subtrees.
`tree_weight` sums `CARET_WEIGHTS` over the pass; `classify` keys the
classes by preorder position in that order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .diagrams import PTree, TreePair, is_right_spine, reduce

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


class CaretClass(NamedTuple):
    kind: str
    middle_index: int | None = None  # i for M^i carets

    @property
    def weight(self) -> int:
        return CARET_WEIGHTS[self.kind]


class ClassifiedTree(NamedTuple):
    p: int
    tree: PTree
    classes: dict[int, CaretClass]  # preorder index -> class, in caret total order

    @property
    def total_weight(self) -> int:
        return sum(c.weight for c in self.classes.values())

    def to_json(self) -> dict:
        """{str(preorder index): record}; carets of one class share one record."""
        records = {
            c: {"class": c.kind, "middle_index": c.middle_index, "weight": c.weight}
            for c in set(self.classes.values())
        }
        return {str(i): records[c] for i, c in self.classes.items()}


_ChildKinds = tuple[int, tuple[tuple[str, int], ...]]


# The kind table of p (module docstring); the bound on the values of p keeps
# a long process from keeping a table for every p it weighs.
@lru_cache(maxsize=8)
def _kind_table(p: int) -> dict[str, tuple[tuple[str, int], ...]]:
    ring = tuple((MIDDLE, c) for c in range(1, p)) * 2
    return {
        ROOT: ((LEFT, 0),) + ring[: p - 2] + ((RIGHT, 0),),
        LEFT: ((LEFT, 0),) + ring[: p - 1],
        RIGHT: ring[p - 2 : 2 * p - 3] + ((RIGHT, 0),),
        MIDDLE: ring,
    }


def _check_kind(p: int, kind: str, mid_i: int) -> dict[str, tuple[tuple[str, int], ...]]:
    """The kind table of p, once `kind` is known to be in it and, for a
    middle kind, 1 <= mid_i <= p-1."""
    table = _kind_table(p)
    if kind not in table:
        raise ValueError(f"unknown caret kind {kind!r}")
    if kind == MIDDLE and not 1 <= mid_i <= p - 1:
        raise ValueError(f"middle index must be in 1..{p - 1}, got {mid_i}")
    return table


def _child_kinds(p: int, kind: str, mid_i: int) -> _ChildKinds:
    """(number of predecessor children, (kind, middle index) per child
    position): a row of the table of p, or for M^i a slice of its ring."""
    table = _check_kind(p, kind, mid_i)
    if kind == MIDDLE:
        return p - mid_i, table[MIDDLE][mid_i - 1 : mid_i - 1 + p]
    return 1, table[kind]


def _pass(
    p: int, tree: str, kind: str, mid_i: int
) -> tuple[list[str], list[int | None], list[int]]:
    """Every caret of `tree`, hung as a subtree of base kind `kind`: its final
    class and its middle index (or None), both in preorder, and the carets in
    total order.

    A caret's predecessor children are its children 0..npred-1, so it takes
    its place in the total order when the pass reaches its child npred: all
    of its predecessor subtrees have been read by then, and none of its
    successor subtrees.  Every caret has 1 <= npred <= p-1; the frame around
    the tree has npred = p and so never takes a place.

    A right caret lies on the rightmost path, so everything read after its
    child 1 begins is inside its subtree, after it in the total order.  It
    enters as right_full and is `pending` from then until the next middle
    caret starts; the right carets still pending at the end are
    right_empty."""
    table = _check_kind(p, kind, mid_i)
    ring = table[MIDDLE]
    classes: list[str] = []
    mids: list[int | None] = []
    order: list[int] = []
    pending: list[int] = []  # right carets past child 0 and no middle caret since
    # Per open caret: [predecessor count, kinds, offset, caret, its kind, next
    # position], its child at pos having kind kinds[offset + pos]; the tree
    # is the last child of a parent that is no caret.
    last = p - 1
    stack: list[list] = [[p, ((kind, mid_i),), -last, -1, None, last]]
    for ch in tree:
        top = stack[-1]
        npred, kinds, offset, parent, pkind, pos = top
        if pos == last:
            stack.pop()
        else:
            top[5] = pos + 1
        if pos == npred:
            order.append(parent)
        if pkind == RIGHT and pos == 1:
            pending.append(parent)
        if ch != "C":
            continue
        if pkind == MIDDLE and pos >= npred:
            classes[parent] = MIDDLE_FULL  # a successor child is a caret
        ck, ci = kinds[offset + pos]
        idx = len(classes)
        if ck == MIDDLE:
            classes.append(MIDDLE_EMPTY)
            mids.append(ci)
            pending.clear()
            stack.append([p - ci, ring, ci - 1, idx, ck, 0])
        else:
            classes.append(RIGHT_FULL if ck == RIGHT else ck)
            mids.append(None)
            stack.append([1, table[ck], 0, idx, ck, 0])
    for r in pending:
        classes[r] = RIGHT_EMPTY
    return classes, mids, order


def classify(p: int, tree: PTree) -> ClassifiedTree:
    """Classify every caret of a tree read as the source of a positive diagram.

    Carets are numbered by their position in the tree (preorder).  Carets
    of one class and middle index share one CaretClass.  The leaf, the
    source of the identity, has no carets and an empty classification."""
    classes, mids, order = _pass(p, tree, ROOT, 0)
    shared = {key: CaretClass(*key) for key in set(zip(classes, mids))}
    return ClassifiedTree(p, tree, {i: shared[classes[i], mids[i]] for i in order})


def tree_weight(p: int, tree: PTree, root_kind: str = ROOT, middle_index: int = 0) -> int:
    """Total caret weight of a tree.

    `root_kind`/`middle_index` let a tree be weighed as a hanging subtree
    (e.g. a middle subtree of kind M^i); the default weighs a source tree.
    """
    w = CARET_WEIGHTS
    return sum(w[cls] for cls in _pass(p, tree, root_kind, middle_index)[0])


def _positive_source(p: int, pair: TreePair) -> PTree:
    """The source tree of a positive element's diagram, given reduced.
    Raises NotPositiveError for elements that are not positive."""
    if pair.p != p:
        raise ValueError(f"mismatched p: {pair.p} != {p}")
    if not is_right_spine(p, pair.target):
        raise NotPositiveError(
            "Fordham positive method inapplicable: element is not positive"
        )
    return pair.source


def positive_length(p: int, pair: TreePair) -> int:
    """Word length of a positive element: the weight of its reduced
    diagram's source."""
    return tree_weight(p, _positive_source(p, reduce(pair)))
