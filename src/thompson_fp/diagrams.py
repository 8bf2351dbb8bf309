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

`compose` and `reduce` multiply and reduce whole pairs.  `evaluate` and the
Cayley-ball search in `oracle` multiply only by one generator at a time, and
do it by a local surgery on the two strings of a reduced pair (S, T)
(`_times_generator`).  Number the carets on the right spine of T from 1 at
the root, and let k = n // (p-1) + 1 and r = n mod (p-1), so that the source
of x_n is R_k with a caret at child r of spine caret k.

* Refinement.  The product needs T to contain that source (for x_n) or R_{k+1}
  (for x_n^-1).  A caret T lacks is added to both trees at the same leaf,
  which does not change the element.  A missing spine caret hangs at the last
  leaf, the last character of both strings; a missing caret at child r of
  spine caret k hangs at some leaf m, which a galloping str.count finds in S
  (`_leaf_at`).
* Rotation.  Below spine caret k hang 2p - 1 pieces: its first p - 1
  children, with child r opened into its p children, and its rightmost
  subtree.  x_n hangs them again as p - 1 under caret k and p under a new
  spine caret k + 1; in the string this moves one "C", from child r to the
  start of piece p - 1.  x_n^-1 is the inverse move, of spine caret k + 1 to
  child r.  S is untouched, and the leaves of T keep their order.
* Reduction.  Only the moved caret of T can now be reduced, against the
  caret of S over the same leaves.  Every other caret of T with only leaf
  children lies inside a piece (the spine carets down to k each have a caret
  child), so it is an old caret over the same leaves as before the rotation.
  It cannot match an old caret of S, since (S, T) was reduced and refinement
  renumbers the leaves of both trees alike.  Nor can it match a caret that
  refinement added to S: the twin added to T with that caret has the same
  leaves, and a leaf has only one parent.  (When x_n refines child r, not
  even the moved caret reduces: its first leaf is child p - 1 - r > 0 of the
  new caret in S.)  Removing a matched pair turns each caret into one leaf
  a.  A pair that matches only afterwards has a caret newly stripped to
  leaves, which spans leaf a, so both carets span leaf a and are its parents.
  So the reduction climbs: while the parents of leaf a in the two trees
  have only leaves below them and leaf a at the same child index, both are
  removed; each test reads p characters on either side of the new leaf.
* The spine list.  Finding spine caret k walks down T from its root, one
  `_subtree_end` past the p - 1 left subtrees of each spine caret, and
  those subtrees can hold most of T.  So `_times_generator` takes a list
  whose entry d - 1 is the position in T of spine caret d, or of the leaf
  that ends the spine; the list may stop short of the spine's end, but
  entry 0 is always 0, the root.  The walk starts from the last entry and
  appends each caret it passes.  The position of spine caret d + 1 is read
  off the characters of T from caret d up to it, so an entry stays valid
  while no character before it changes.  Each surgery then updates the list
  to that of the new T: growth appends the grown carets; a rotation that
  moves a caret into the spine inserts its new position as entry k, and
  one that moves spine caret k + 1 down deletes entry k, since every other
  spine caret keeps its position; refinement, which lengthens T at child r
  of caret k, keeps entries 0..k - 1 and appends the new caret k + 1; and a
  climb of removals drops every entry at or past its new leaf.  `evaluate`
  alone carries one list across a whole word, so a letter walks only the
  spine carets that no earlier letter has passed; other callers pass [0].
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate, repeat
from operator import add
from typing import Iterable, NamedTuple

from .words import Letter, _check_p

# The longest tree string a one-generator product grows.  One letter x_n
# alone grows both trees to more than n characters, so an index of 10**8
# would need gigabytes before any other letter is read.
DIAGRAM_SIZE_LIMIT = 10**7

_NOT_TREE_TEXT = re.compile("[^CL]")


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


def _subtree_end(t: str, i: int, p: int, need: int = 1) -> int:
    """End of the `need` consecutive subtrees of t that start at t[i].  While
    `need` subtrees are open, the next `need` characters all lie in them, and
    their c carets leave c*p subtrees open; one str.count reads each such
    run."""
    while need:
        c = t.count("C", i, i + need)
        i += need
        need = c * p
    return i


def _leaf_at(t: str, m: int) -> int:
    """Position of leaf m (counted from 0) in t.  The next `need` characters
    hold at most the `need` leaves still to pass, so one str.count reads each
    such run without overshooting; a run with no leaf is crossed by one
    str.find."""
    i, need = 0, m + 1
    while need:
        c = t.count("L", i, i + need)
        if c:
            i += need
            need -= c
        else:
            i = t.find("L", i + need)
    return i - 1


def parse_tree(p: int, text: str) -> PTree:
    """The p-ary tree whose preorder string is `text`; ValueError if the
    text is not one.  `_subtree_end` reads any character but "C" as a leaf,
    which is exact up to the first character that is neither: the first
    fault is that character, if it comes before the tree's end, else text
    past the end, or text that ends before it."""
    _check_p(p)
    end = _subtree_end(text, 0, p)
    bad = _NOT_TREE_TEXT.search(text, 0, end)
    if bad:
        raise ValueError(
            f"unexpected character {bad[0]!r} at position {bad.start()} in tree text"
        )
    if end < len(text):
        raise ValueError(f"trailing characters after tree text {text!r}")
    if end > len(text):
        raise ValueError(f"truncated tree text {text!r}")
    return PTree(text)


def num_carets(t: PTree) -> int:
    return t.count("C")


def num_leaves(t: PTree) -> int:
    return t.count("L")


class _PairFields(NamedTuple):
    p: int
    source: PTree
    target: PTree


class TreePair(_PairFields):
    """A diagram (source, target); the group element maps source to target.
    A NamedTuple may not define __new__ in its own body, so the checks on p
    and on the leaf counts sit in this subclass's."""

    __slots__ = ()

    def __new__(cls, p: int, source: PTree, target: PTree) -> "TreePair":
        _check_p(p)
        ns, nt = num_leaves(source), num_leaves(target)
        if ns != nt:
            raise ValueError(f"source has {ns} leaves but target has {nt}")
        return super().__new__(cls, p, source, target)

    def __str__(self) -> str:
        return f"{self.source}|{self.target}"


def identity(p: int) -> TreePair:
    return TreePair(p, LEAF, LEAF)


def right_spine(p: int, k: int) -> PTree:
    """The tree R_k: k carets chained along the rightmost child."""
    _check_p(p)
    if k < 0:
        raise ValueError(f"caret count must be >= 0, got {k}")
    return PTree(("C" + "L" * (p - 1)) * k + "L")


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
    """Remove carets exposed at the same leaf range in both trees, for any
    pair: the general path behind `compose` and `equal`, and the oracle for
    the one-generator surgery of `evaluate`, which reduces locally.  Each
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


def _times_generator(
    p: int, s: str, t: str, n: int, sign: int, spine: list[int]
) -> tuple[str, str]:
    """The reduced pair (s, t) times x_n^sign, as its two preorder strings:
    the local surgery of the module docstring, refinement, one rotation and
    at most one climb of caret removals.  `spine` is the spine list of t
    (module docstring), at least [0]; the walk down the spine starts from
    its last entry, and the list is updated in place to that of the new t."""
    if n < 0:
        raise ValueError(f"generator index must be >= 0, got {n}")
    k = n // (p - 1) + 1
    r = n % (p - 1)  # leaf n is child r of spine caret k
    top = k if sign > 0 else k + 1  # the deepest spine caret the rotation needs
    d = len(spine)
    if d > top:
        d = top
    q = spine[d - 1]  # t[q] is spine caret d, or the leaf that ends the spine
    while d < top and t[q] == "C":
        q = _subtree_end(t, q + 1, p, p - 1)
        spine.append(q)
        d += 1
    grown = t[q] == "L"
    if grown:  # the spine stops at depth d: grow it to `top` in both trees
        size = len(t) + (top - d + 1) * p
        if size > DIAGRAM_SIZE_LIMIT:
            raise ValueError(
                f"generator index {n} grows the trees to {size} characters, "
                f"more than DIAGRAM_SIZE_LIMIT = {DIAGRAM_SIZE_LIMIT}"
            )
        grow = ("C" + "L" * (p - 1)) * (top - d + 1)
        s, t = s[:-1] + grow + "L", t[:-1] + grow + "L"
        spine.extend(range(q + p, q + (top - d) * p + 1, p))
        q = spine[-1]
    # Now spine[top - 1] = q is spine caret `top`.
    if sign > 0:
        j = _subtree_end(t, q + 1, p, r)  # child r of spine caret k
        if t[j] == "L":
            # Give both trees a caret at this leaf, then rotate it into the
            # spine: no caret pair can be reduced after that.  A grown leaf
            # lies as far from the end of s as from the end of t.
            i = len(s) - len(t) + j if grown else _leaf_at(s, t.count("L", 0, j))
            s = s[:i] + "C" + "L" * p + s[i + 1:]
            del spine[k:]
            spine.append(j + p - 1 - r)
            return s, t[:j] + "L" * (p - 1 - r) + "C" + "L" * (r + 1) + t[j + 1:]
        # Move the caret at t[j] to the start of its child p - 1 - r: it
        # becomes spine caret k + 1 over the last p of the 2p - 1 pieces.
        b = _subtree_end(t, j + 1, p, p - 1 - r)
        t = t[:j] + t[j + 1:b] + "C" + t[b:]
        j = b - 1
        spine.insert(k, j)
    else:
        # Move spine caret k + 1 down to child r of spine caret k.
        j = _subtree_end(t, spine[k - 1] + 1, p, r)
        t = t[:j] + "C" + t[j:q] + t[q + 1:]
        del spine[k]
    # The moved caret is the only one that can now be reduced.
    if not t.startswith("L" * p, j + 1):
        return s, t
    i = _leaf_at(s, t.count("L", 0, j)) - 1
    if i < 0 or not s.startswith("C" + "L" * p, i):
        return s, t
    s, t, j = _collapse(p, s, t, i, j)
    del spine[bisect_left(spine, j, 1):]
    return s, t


def _collapse(p: int, s: str, t: str, i: int, j: int) -> tuple[str, str, int]:
    """Remove the exposed carets s[i:i+p+1] and t[j:j+p+1], which span the
    same leaves, and then each pair of parents that this exposes over the
    same leaves.  The removed part of each string is [i, hi), one caret that
    has become one leaf; its parent is the last "C" at most p characters
    before it, if the characters around it are leaves.  Returns the two
    strings and the position of the new leaf in t, the first that changed."""
    hi_s, hi_t = i + p + 1, j + p + 1
    while True:
        a = s.rfind("C", max(i - p, 0), i)
        b = t.rfind("C", max(j - p, 0), j)
        if a < 0 or b < 0 or i - a != j - b:
            break
        rest = "L" * (p - i + a)  # the parent's children after the new leaf
        if not (s.startswith(rest, hi_s) and t.startswith(rest, hi_t)):
            break
        hi_s += len(rest)
        hi_t += len(rest)
        i, j = a, b
    return s[:i] + "L" + s[hi_s:], t[:j] + "L" + t[hi_t:], j


def evaluate(p: int, word: Iterable[Letter]) -> TreePair:
    """Reduced diagram of a word, multiplying letters left to right, each by
    one local surgery on the two strings, with the target's spine list
    carried from letter to letter."""
    _check_p(p)
    s = t = "L"
    spine = [0]
    for n, sign in word:
        s, t = _times_generator(p, s, t, n, sign, spine)
    return TreePair(p, PTree(s), PTree(t))


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
