import itertools
import random
import re
import sys

import pytest

from thompson_fp.diagrams import (
    LEAF,
    PTree,
    TreePair,
    caret,
    compose,
    equal,
    evaluate,
    generator_pair,
    identity,
    invert,
    is_positive,
    is_right_spine,
    num_carets,
    num_leaves,
    parse_tree,
    reduce,
    right_spine,
    serialize_tree,
)
from thompson_fp.fordham import classify, tree_weight
from thompson_fp.words import Letter, parse_word


def test_parse_serialize_round_trip():
    for text in ("L", "CLL", "CCLLL", "CLCLL"):
        assert serialize_tree(parse_tree(2, text)) == text
    t = parse_tree(3, "CLCLLLL")
    assert num_carets(t) == 2
    assert num_leaves(t) == 5


def test_parse_tree_rejects_garbage():
    with pytest.raises(ValueError, match=re.escape("truncated tree text 'CL'")):
        parse_tree(2, "CL")
    with pytest.raises(ValueError, match=re.escape("trailing characters after tree text 'CLLL'")):
        parse_tree(2, "CLLL")
    with pytest.raises(ValueError, match="unexpected character 'X' at position 0 in tree text"):
        parse_tree(2, "X")


def test_tree_api_children_and_round_trip(iter_trees):
    # the benchmark reads `children` and round-trips trees through text
    assert LEAF.children is None
    for p, top in ((2, 7), (3, 5)):
        for c in range(top + 1):
            for t in iter_trees(p, c):
                assert isinstance(t, PTree)
                assert parse_tree(p, serialize_tree(t)) == t
                if c == 0:
                    assert t.children is None
                    continue
                kids = t.children
                assert len(kids) == p and all(isinstance(k, PTree) for k in kids)
                assert caret(kids) == t


def test_leaf_count_formula():
    # c carets always give c(p-1)+1 leaves
    for p in (2, 3, 4):
        t = right_spine(p, 5)
        assert num_carets(t) == 5
        assert num_leaves(t) == 5 * (p - 1) + 1


def test_tree_pair_validates_leaf_counts():
    with pytest.raises(ValueError):
        TreePair(2, caret((LEAF, LEAF)), LEAF)
    with pytest.raises(ValueError):
        TreePair(1, LEAF, LEAF)


def test_generator_x0_shape():
    g = generator_pair(2, 0)
    assert g.serialize() == "CCLLL|CLCLL"


def test_generator_leaf_position():
    # x_n adds its source caret at leaf n of the smallest spine containing it
    for p, n in [(2, 0), (2, 3), (3, 1), (3, 4), (4, 7)]:
        g = generator_pair(p, n)
        k = n // (p - 1) + 1
        assert num_carets(g.source) == k + 1
        assert num_carets(g.target) == k + 1
        assert equal(g, g)


def test_generator_memo_is_bounded():
    maxsize = generator_pair.cache_info().maxsize
    assert maxsize is not None and maxsize >= 64
    for n in range(maxsize + 50):
        assert evaluate(2, (Letter(n, 1),)) == generator_pair(2, n)
    assert generator_pair.cache_info().currsize <= maxsize


def test_identity_and_inverse():
    e = identity(2)
    g = generator_pair(2, 1)
    assert equal(compose(g, invert(g)), e)
    assert equal(compose(invert(g), g), e)
    assert equal(compose(g, e), g)


def test_reduce_is_idempotent_and_canonical():
    w = parse_word("x0 x1 x1^-1 x0^-1")
    d = evaluate(2, w)
    r = reduce(d)
    assert r.serialize() == identity(2).serialize()
    assert reduce(r).serialize() == r.serialize()


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_defining_relations(p):
    # x_j x_i = x_i x_{j+p-1} for i < j, scanning a window of index pairs
    for i, j in itertools.combinations(range(2 * p + 2), 2):
        lhs = compose(generator_pair(p, j), generator_pair(p, i))
        rhs = compose(generator_pair(p, i), generator_pair(p, j + p - 1))
        assert equal(lhs, rhs), (p, i, j)


def test_relation_fails_without_shift():
    # sanity: the relation really needs the +p-1 shift
    p = 3
    lhs = compose(generator_pair(p, 2), generator_pair(p, 0))
    rhs = compose(generator_pair(p, 0), generator_pair(p, 2))
    assert not equal(lhs, rhs)


def test_evaluate_word_against_stepwise_compose():
    rng = random.Random(7)
    for p in (2, 3):
        for _ in range(25):
            w = tuple(
                parse_word(f"x{rng.randrange(4)}" + ("" if rng.random() < 0.5 else "^-1"))[0]
                for _ in range(rng.randrange(1, 8))
            )
            d = identity(p)
            for letter in w:
                g = generator_pair(p, letter.index)
                d = compose(d, g if letter.sign > 0 else invert(g))
            assert equal(d, evaluate(p, w))
    # Long words: the left-to-right product against a balanced pairwise one.
    for p in (2, 3, 5):
        for positive in (True, False):
            for _ in range(3):
                w = tuple(
                    Letter(rng.randrange(3 * p), 1 if positive or rng.random() < 0.5 else -1)
                    for _ in range(rng.randrange(100, 251))
                )
                gens = [generator_pair(p, a.index) for a in w]
                gens = [g if a.sign > 0 else invert(g) for g, a in zip(gens, w)]
                d = evaluate(p, w)
                assert d.serialize() == _balanced_product(gens).serialize()
                assert is_right_spine(p, d.target) or not positive
                if is_right_spine(p, d.target) and d.source.children is not None:
                    classes = classify(p, d.source).classes
                    assert sorted(classes) == list(range(num_carets(d.source)))


def _balanced_product(gens):
    if len(gens) == 1:
        return gens[0]
    mid = len(gens) // 2
    return compose(_balanced_product(gens[:mid]), _balanced_product(gens[mid:]))


def test_long_positive_words_against_balanced_product():
    # trees thousands of carets deep, which recursive kernels overflowed on
    rng = random.Random(2000)
    for _ in range(2):
        w = tuple(Letter(rng.randrange(9), 1) for _ in range(2000))
        d = evaluate(3, w)
        assert d == _balanced_product([generator_pair(3, a.index) for a in w])
        assert is_right_spine(3, d.target)


def test_deep_tree_kernels_do_not_recurse():
    # x0^2000 has a source tree 2001 carets deep
    word = (Letter(0, 1),) * 2000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        d = evaluate(2, word)
        assert d.source == "C" * 2001 + "L" * 2002
        assert tree_weight(2, d.source) == 2000
        assert classify(2, d.source).total_weight == 2000
    finally:
        sys.setrecursionlimit(limit)


def test_is_positive_and_spine():
    assert is_right_spine(2, right_spine(2, 4))
    assert is_right_spine(3, right_spine(3, 2))
    assert not is_right_spine(2, parse_tree(2, "CCLLL"))
    assert is_positive(evaluate(2, parse_word("x0 x2 x1")))
    assert not is_positive(evaluate(2, parse_word("x1 x0^-1")))
    # positivity is about the element, not the spelling
    assert is_positive(evaluate(2, parse_word("x0 x1 x1^-1")))


def test_compose_associative_sample():
    rng = random.Random(11)
    gens = [generator_pair(3, n) for n in range(5)]
    for _ in range(30):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert equal(compose(compose(a, b), c), compose(a, compose(b, c)))


def test_inverse_word_matches_invert():
    w = parse_word("x0 x2 x1^-1 x3")
    d = evaluate(2, w)
    assert equal(invert(d), evaluate(2, tuple(l.inverse() for l in reversed(w))))
