"""Tree-pair diagrams for the groups F(p).

An element of F(p) is a reduced pair (source, target) of finite p-ary trees
with the same number of leaves.  Every caret (interior node) has exactly p
children; a tree with c carets has c(p-1)+1 leaves.  The generator x_n is the
pair whose source is the right spine R_k (k = n // (p-1) + 1) with one extra
caret hanging at leaf n and whose target is R_{k+1}.  Multiplication is by
least common refinement of the middle trees, followed by reduction: a caret
exposed at the same leaf range in both trees is removed, repeatedly.

Serialized text form: preorder, "C" followed by the p children for a caret,
"L" for a leaf; a pair prints as "source|target".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce as _fold
from typing import Iterable

from .words import Letter, _check_p


class PTree:
    """Immutable p-ary tree; `children` is None for a leaf, else a p-tuple."""

    __slots__ = ("children", "_key")

    def __init__(self, children: tuple["PTree", ...] | None = None):
        self.children = children
        self._key: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PTree):
            return NotImplemented
        return serialize_tree(self) == serialize_tree(other)

    def __hash__(self) -> int:
        return hash(serialize_tree(self))

    def __repr__(self) -> str:
        return f"PTree({serialize_tree(self)!r})"


LEAF = PTree()


def leaf() -> PTree:
    return LEAF


def caret(children: Iterable[PTree]) -> PTree:
    kids = tuple(children)
    if len(kids) < 2:
        raise ValueError("a caret needs at least 2 children")
    return PTree(kids)


def serialize_tree(t: PTree) -> str:
    key = t._key
    if key is None:
        if t.children is None:
            key = "L"
        else:
            key = "C" + "".join(serialize_tree(c) for c in t.children)
        t._key = key
    return key


def parse_tree(p: int, text: str) -> PTree:
    """Inverse of serialize_tree for p-ary trees."""
    _check_p(p)

    def rec(i: int) -> tuple[PTree, int]:
        if i >= len(text):
            raise ValueError(f"truncated tree text {text!r}")
        ch = text[i]
        if ch == "L":
            return LEAF, i + 1
        if ch == "C":
            kids = []
            j = i + 1
            for _ in range(p):
                kid, j = rec(j)
                kids.append(kid)
            return PTree(tuple(kids)), j
        raise ValueError(f"unexpected character {ch!r} at position {i} in tree text")

    tree, end = rec(0)
    if end != len(text):
        raise ValueError(f"trailing characters after tree text {text!r}")
    return tree


def num_carets(t: PTree) -> int:
    if t.children is None:
        return 0
    return 1 + sum(num_carets(c) for c in t.children)


def num_leaves(t: PTree) -> int:
    if t.children is None:
        return 1
    return sum(num_leaves(c) for c in t.children)


@dataclass(frozen=True)
class TreePair:
    """A diagram (source, target); the group element maps source to target."""

    p: int
    source: PTree
    target: PTree

    def __post_init__(self):
        _check_p(self.p)
        ns, nt = num_leaves(self.source), num_leaves(self.target)
        if ns != nt:
            raise ValueError(f"source has {ns} leaves but target has {nt}")

    def serialize(self) -> str:
        return f"{serialize_tree(self.source)}|{serialize_tree(self.target)}"

    def __str__(self) -> str:
        return self.serialize()


def identity(p: int) -> TreePair:
    return TreePair(p, LEAF, LEAF)


def right_spine(p: int, k: int) -> PTree:
    """The tree R_k: k carets chained along the rightmost child."""
    _check_p(p)
    if k < 0:
        raise ValueError(f"caret count must be >= 0, got {k}")
    t = LEAF
    for _ in range(k):
        t = PTree((LEAF,) * (p - 1) + (t,))
    return t


@lru_cache(maxsize=None)
def generator_pair(p: int, n: int) -> TreePair:
    """The diagram of x_n: R_k with a caret at leaf n over R_{k+1}."""
    _check_p(p)
    if n < 0:
        raise ValueError(f"generator index must be >= 0, got {n}")
    k = n // (p - 1) + 1
    spine = right_spine(p, k)
    subs = [LEAF] * (k * (p - 1) + 1)
    subs[n] = PTree((LEAF,) * p)
    source, used = _graft(spine, subs, 0)
    assert used == len(subs)
    return TreePair(p, source, right_spine(p, k + 1))


def invert(d: TreePair) -> TreePair:
    return TreePair(d.p, d.target, d.source)


def _refine(a: PTree, b: PTree) -> PTree:
    """Least common refinement: smallest tree extending both a and b."""
    if a.children is None:
        return b
    if b.children is None:
        return a
    return PTree(tuple(_refine(x, y) for x, y in zip(a.children, b.children)))


def _fit(t: PTree, u: PTree, out: list[PTree]) -> None:
    """Append, per leaf of t, the subtree of the refinement u hanging there."""
    if t.children is None:
        out.append(u)
        return
    for tc, uc in zip(t.children, u.children):
        _fit(tc, uc, out)


def _graft(t: PTree, subs: list[PTree], i: int) -> tuple[PTree, int]:
    """Replace leaf j of t with subs[i+j]; returns (tree, next index)."""
    if t.children is None:
        return subs[i], i + 1
    kids = []
    for c in t.children:
        g, i = _graft(c, subs, i)
        kids.append(g)
    return PTree(tuple(kids)), i


def _exposed_starts(t: PTree, start: int, acc: set[int]) -> int:
    """Collect starting leaf indices of exposed carets; returns leaf count."""
    if t.children is None:
        return 1
    n = 0
    exposed = True
    for c in t.children:
        if c.children is not None:
            exposed = False
        n += _exposed_starts(c, start + n, acc)
    if exposed:
        acc.add(start)
    return n


def _remove_exposed(t: PTree, target: int, start: int) -> tuple[PTree, int]:
    """Replace the exposed caret whose leaves begin at `target` by a leaf."""
    if t.children is None:
        return t, 1
    if start == target and all(c.children is None for c in t.children):
        return LEAF, len(t.children)
    kids = []
    n = 0
    for c in t.children:
        nc, cnt = _remove_exposed(c, target, start + n)
        kids.append(nc)
        n += cnt
    return PTree(tuple(kids)), n


def reduce(d: TreePair) -> TreePair:
    """Remove carets exposed at the same leaf range in both trees."""
    src, tgt = d.source, d.target
    while True:
        s_starts: set[int] = set()
        t_starts: set[int] = set()
        _exposed_starts(src, 0, s_starts)
        _exposed_starts(tgt, 0, t_starts)
        common = s_starts & t_starts
        if not common:
            return TreePair(d.p, src, tgt)
        at = min(common)
        src, _ = _remove_exposed(src, at, 0)
        tgt, _ = _remove_exposed(tgt, at, 0)


def compose(a: TreePair, b: TreePair) -> TreePair:
    """The product a*b (a applied first), as a reduced diagram."""
    if a.p != b.p:
        raise ValueError(f"mismatched p: {a.p} != {b.p}")
    common = _refine(a.target, b.source)
    mid_a: list[PTree] = []
    mid_b: list[PTree] = []
    _fit(a.target, common, mid_a)
    _fit(b.source, common, mid_b)
    source, _ = _graft(a.source, mid_a, 0)
    target, _ = _graft(b.target, mid_b, 0)
    return reduce(TreePair(a.p, source, target))


def evaluate(p: int, word: Iterable[Letter]) -> TreePair:
    """Reduced diagram of a word, multiplying letters left to right."""
    _check_p(p)
    gens = (
        generator_pair(p, a.index) if a.sign > 0 else invert(generator_pair(p, a.index))
        for a in word
    )
    return _fold(compose, gens, identity(p))


def equal(a: TreePair, b: TreePair) -> bool:
    if a.p != b.p:
        raise ValueError(f"mismatched p: {a.p} != {b.p}")
    ra, rb = reduce(a), reduce(b)
    return ra.source == rb.source and ra.target == rb.target


def is_right_spine(p: int, t: PTree) -> bool:
    while t.children is not None:
        if len(t.children) != p or any(c.children is not None for c in t.children[:-1]):
            return False
        t = t.children[-1]
    return True


def is_positive(d: TreePair) -> bool:
    """True iff the reduced diagram has a right spine as its target."""
    r = reduce(d)
    return is_right_spine(r.p, r.target)
