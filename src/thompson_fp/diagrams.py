"""Tree-pair diagrams for the groups F(p).

An element of F(p) is a reduced pair (source, target) of finite p-ary trees
with the same number of leaves.  Every caret (interior node) has exactly p
children; a tree with c carets has c(p-1)+1 leaves.  The generator x_n is the
pair whose source is the right spine R_k (k = n // (p-1) + 1) with one extra
caret hanging at leaf n and whose target is R_{k+1}.  Multiplication is by
least common refinement of the middle trees, followed by reduction: a caret
exposed at the same leaf range in both trees is removed, repeatedly.  Each
node caches its serialization and its leaf count on first use, so the kernels
read a subtree's leaf range instead of recounting it.

Serialized text form: preorder, "C" followed by the p children for a caret,
"L" for a leaf; a pair prints as "source|target".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce as _fold
from typing import Iterable, Iterator

from .words import Letter, _check_p


class PTree:
    """Immutable p-ary tree; `children` is None for a leaf, else a p-tuple."""

    __slots__ = ("children", "_key", "_leaves")

    def __init__(self, children: tuple["PTree", ...] | None = None):
        self.children = children
        self._key: str | None = None
        self._leaves: int | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PTree):
            return NotImplemented
        return serialize_tree(self) == serialize_tree(other)

    def __hash__(self) -> int:
        return hash(serialize_tree(self))

    def __repr__(self) -> str:
        return f"PTree({serialize_tree(self)!r})"


LEAF = PTree()


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
    chars = enumerate(text)

    def rec() -> PTree:
        i, ch = next(chars, (len(text), ""))
        if ch == "L":
            return LEAF
        if ch == "C":
            return PTree(tuple([rec() for _ in range(p)]))
        if not ch:
            raise ValueError(f"truncated tree text {text!r}")
        raise ValueError(f"unexpected character {ch!r} at position {i} in tree text")

    tree = rec()
    if next(chars, None) is not None:
        raise ValueError(f"trailing characters after tree text {text!r}")
    return tree


def num_carets(t: PTree) -> int:
    if t.children is None:
        return 0
    return 1 + sum(num_carets(c) for c in t.children)


def num_leaves(t: PTree) -> int:
    n = t._leaves
    if n is None:
        n = 1 if t.children is None else sum(map(num_leaves, t.children))
        t._leaves = n
    return n


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
    kids = [LEAF] * p
    kids[n % (p - 1)] = PTree((LEAF,) * p)  # leaf n is a child of spine caret k
    source = PTree(tuple(kids))
    for _ in range(k - 1):
        source = PTree((LEAF,) * (p - 1) + (source,))
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


def _graft(t: PTree, subs: Iterator[PTree]) -> PTree:
    """Replace the leaves of t, left to right, by the trees `subs` yields."""
    if t.children is None:
        return next(subs)
    return PTree(tuple([_graft(c, subs) for c in t.children]))


def _exposed_starts(t: PTree, start: int, acc: set[int]) -> None:
    """Collect the starting leaf indices of the exposed carets of t."""
    if t.children is None:
        return
    exposed, i = True, start
    for c in t.children:
        if c.children is None:
            i += 1
        else:
            exposed = False
            _exposed_starts(c, i, acc)
            i += num_leaves(c)
    if exposed:
        acc.add(start)


def _remove_exposed(t: PTree, target: int) -> PTree:
    """Replace the exposed caret whose leaves begin at `target` by a leaf,
    rebuilding only the carets on the path down to it."""
    if target == 0 and all(c.children is None for c in t.children):
        return LEAF
    kids = list(t.children)
    for k, c in enumerate(kids):
        n = num_leaves(c)
        if target < n:
            kids[k] = _remove_exposed(c, target)
            return PTree(tuple(kids))
        target -= n
    raise ValueError("the target leaf lies beyond the tree")


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
        src = _remove_exposed(src, at)
        tgt = _remove_exposed(tgt, at)


def compose(a: TreePair, b: TreePair) -> TreePair:
    """The product a*b (a applied first), as a reduced diagram."""
    if a.p != b.p:
        raise ValueError(f"mismatched p: {a.p} != {b.p}")
    common = _refine(a.target, b.source)
    mid_a: list[PTree] = []
    mid_b: list[PTree] = []
    _fit(a.target, common, mid_a)
    _fit(b.source, common, mid_b)
    source = _graft(a.source, iter(mid_a))
    target = _graft(b.target, iter(mid_b))
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
