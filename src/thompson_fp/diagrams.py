"""Tree-pair diagrams for the groups F(p).

An element of F(p) is a reduced pair (source, target) of finite p-ary trees
with the same number of leaves.  Every caret (interior node) has exactly p
children; a tree with c carets has c(p-1)+1 leaves.  The generator x_n is the
pair whose source is the right spine R_k (k = n // (p-1) + 1) with one extra
caret hanging at leaf n and whose target is R_{k+1}.  Multiplication is by
least common refinement of the middle trees, followed by reduction: a caret
exposed at the same leaf range in both trees is removed, repeatedly.

A tree is its preorder string: "C" followed by the p children for a caret,
"L" for a leaf; a pair prints as "source|target".  Every kernel reads and
builds these strings with str methods and explicit loops, so no tree is too
deep to handle: a subtree is a slice, the k-th leaf is the k-th "L", and an
exposed caret is an occurrence of "C" followed by p "L".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce as _fold
from itertools import accumulate, repeat
from operator import add
from typing import Iterable

from .words import Letter, _check_p


class PTree(str):
    """A p-ary tree as its preorder string.  `children` is None for a leaf,
    else the p child trees, cut from the string on each read."""

    __slots__ = ()

    @property
    def children(self) -> tuple["PTree", ...] | None:
        if self == "L":
            return None
        p = (len(self) - 1) // self.count("C")
        kids, i = [], 1
        for _ in range(p):
            end = _subtree_end(self, i, p)
            kids.append(PTree(self[i:end]))
            i = end
        return tuple(kids)

    def __repr__(self) -> str:
        return f"PTree({str(self)!r})"


LEAF = PTree("L")


def _subtree_end(t: str, i: int, p: int) -> int:
    """End of the subtree of t that starts at t[i].  While `need` subtrees
    are open, the next `need` characters all lie in them, and their c carets
    leave c*p subtrees open; one str.count reads each such run."""
    need = 1
    while need:
        c = t.count("C", i, i + need)
        i += need
        need = c * p
    return i


def caret(children: Iterable[str]) -> PTree:
    kids = tuple(children)
    if len(kids) < 2:
        raise ValueError("a caret needs at least 2 children")
    return PTree("C" + "".join(kids))


def serialize_tree(t: PTree) -> str:
    return str(t)


def parse_tree(p: int, text: str) -> PTree:
    """Inverse of serialize_tree for p-ary trees."""
    _check_p(p)
    need = 1  # subtrees still to read
    for i, ch in enumerate(text):
        if not need:
            raise ValueError(f"trailing characters after tree text {text!r}")
        if ch == "L":
            need -= 1
        elif ch == "C":
            need += p - 1
        else:
            raise ValueError(f"unexpected character {ch!r} at position {i} in tree text")
    if need:
        raise ValueError(f"truncated tree text {text!r}")
    return PTree(text)


def num_carets(t: PTree) -> int:
    return t.count("C")


def num_leaves(t: PTree) -> int:
    return t.count("L")


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
        return f"{self.source}|{self.target}"

    def __str__(self) -> str:
        return self.serialize()


def identity(p: int) -> TreePair:
    return TreePair(p, LEAF, LEAF)


def right_spine(p: int, k: int) -> PTree:
    """The tree R_k: k carets chained along the rightmost child."""
    _check_p(p)
    if k < 0:
        raise ValueError(f"caret count must be >= 0, got {k}")
    return PTree(("C" + "L" * (p - 1)) * k + "L")


@lru_cache(maxsize=None)
def generator_pair(p: int, n: int) -> TreePair:
    """The diagram of x_n: R_k with a caret at leaf n over R_{k+1}."""
    _check_p(p)
    if n < 0:
        raise ValueError(f"generator index must be >= 0, got {n}")
    k = n // (p - 1) + 1
    r = n % (p - 1)  # leaf n is child r of spine caret k
    spine = ("C" + "L" * (p - 1)) * (k - 1)
    source = PTree(f"{spine}C{'L' * r}C{'L' * p}{'L' * (p - 1 - r)}")
    return TreePair(p, source, right_spine(p, k + 1))


def invert(d: TreePair) -> TreePair:
    return TreePair(d.p, d.target, d.source)


def _interleave(parts: list[str], seps: Iterable[str]) -> str:
    """parts[0] + seps[0] + parts[1] + ... + parts[-1]."""
    out = [""] * (2 * len(parts) - 1)
    out[::2] = parts
    out[1::2] = seps
    return "".join(out)


def reduce(d: TreePair) -> TreePair:
    """Remove carets exposed at the same leaf range in both trees.  Each
    round cuts both trees at their exposed carets, keys every cut by the
    number of leaves up to its end, and collapses the cuts the trees share;
    the counting runs in str methods and map, not in a Python loop."""
    p, exposed = d.p, "C" + "L" * d.p
    trees = [d.source, d.target]
    while True:
        cuts = [t.split(exposed) for t in trees]
        # The leaves up to the end of each exposed caret: those of the pieces
        # before it, and p for it and for each exposed caret before it.
        ends = [
            list(accumulate(map(add, map(str.count, pieces[:-1], repeat("L")), repeat(p))))
            for pieces in cuts
        ]
        common = set(ends[0]).intersection(ends[1])
        if not common:
            return TreePair(p, PTree(trees[0]), PTree(trees[1]))
        trees = [
            _interleave(pieces, ["L" if e in common else exposed for e in at])
            for pieces, at in zip(cuts, ends)
        ]


def compose(a: TreePair, b: TreePair) -> TreePair:
    """The product a*b (a applied first), as a reduced diagram.

    One walk over a.target and b.source together lists the piece of their
    least common refinement that hangs at each leaf of either: where one
    tree has a leaf, the other's whole subtree there; where both have one,
    a leaf.  Those pieces replace the leaves of a.source and b.target."""
    if a.p != b.p:
        raise ValueError(f"mismatched p: {a.p} != {b.p}")
    p, s, t = a.p, a.target, b.source
    ns, nt = len(s), len(t)
    mid_a: list[str] = []  # per leaf of a.target
    mid_b: list[str] = []  # per leaf of b.source
    i = j = 0
    while i < ns:
        x, y = s[i], t[j]
        if x == y:
            if x == "L":
                mid_a.append("L")
                mid_b.append("L")
            i += 1
            j += 1
        elif x == "L":
            # The subtree hanging at either tree's last leaf runs to its end.
            end = nt if i + 1 == ns else _subtree_end(t, j, p)
            piece = t[j:end]
            mid_a.append(piece)
            mid_b += ["L"] * piece.count("L")
            i, j = i + 1, end
        else:
            end = ns if j + 1 == nt else _subtree_end(s, i, p)
            piece = s[i:end]
            mid_b.append(piece)
            mid_a += ["L"] * piece.count("L")
            i, j = end, j + 1
    source = _interleave(a.source.split("L"), mid_a)
    target = _interleave(b.target.split("L"), mid_b)
    return reduce(TreePair(p, source, target))


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
    return t == right_spine(p, t.count("C"))


def is_positive(d: TreePair) -> bool:
    """True iff the reduced diagram has a right spine as its target."""
    r = reduce(d)
    return is_right_spine(r.p, r.target)
