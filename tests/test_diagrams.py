import itertools
import random
import re
import sys

import pytest

from thompson_fp import diagrams, oracle
from thompson_fp.diagrams import (
    LEAF,
    PTree,
    TreePair,
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
)
from thompson_fp.fordham import classify, tree_weight
from thompson_fp.words import Letter, parse_word


def test_parse_serialize_round_trip():
    for text in ("L", "CLL", "CCLLL", "CLCLL"):
        assert str(parse_tree(2, text)) == text
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
    # the first fault wins: a bad character inside the tree before its end,
    # text past the end, then text that ends before the tree
    with pytest.raises(ValueError, match="unexpected character 'X' at position 1 in tree text"):
        parse_tree(2, "CXLL")
    with pytest.raises(ValueError, match=re.escape("trailing characters after tree text 'LX'")):
        parse_tree(2, "LX")
    with pytest.raises(ValueError, match=re.escape("truncated tree text ''")):
        parse_tree(2, "")
    with pytest.raises(ValueError, match="unexpected character 'X' at position 2 in tree text"):
        parse_tree(2, "CLX")


def test_tree_api_children_and_round_trip(iter_trees):
    # the benchmark reads `children` and round-trips trees through text
    assert LEAF.children is None
    for p, top in ((2, 7), (3, 5)):
        for c in range(top + 1):
            for t in iter_trees(p, c):
                assert isinstance(t, PTree)
                assert parse_tree(p, str(t)) == t
                if c == 0:
                    assert t.children is None
                    continue
                kids = t.children
                assert len(kids) == p and all(isinstance(k, PTree) for k in kids)
                assert "C" + "".join(kids) == t


def test_leaf_count_formula():
    # c carets always give c(p-1)+1 leaves
    for p in (2, 3, 4):
        t = right_spine(p, 5)
        assert num_carets(t) == 5
        assert num_leaves(t) == 5 * (p - 1) + 1
    with pytest.raises(ValueError, match="caret count must be >= 0, got -1"):
        right_spine(2, -1)


def test_tree_pair_validates_leaf_counts():
    with pytest.raises(ValueError):
        TreePair(2, PTree("CLL"), LEAF)
    with pytest.raises(ValueError):
        TreePair(1, LEAF, LEAF)
    with pytest.raises(ValueError):
        TreePair(p=2, source=LEAF, target=PTree("CLL"))


def test_tree_pair_is_read_only():
    pair = identity(2)
    with pytest.raises(AttributeError):
        pair.source = PTree("CLL")
    with pytest.raises(AttributeError):
        pair.extra = 1
    assert pair == TreePair(2, LEAF, LEAF) and hash(pair) == hash(TreePair(2, LEAF, LEAF))


def test_generator_x0_shape():
    g = generator_pair(2, 0)
    assert str(g) == "CCLLL|CLCLL"


def test_generator_leaf_position():
    # x_n adds its source caret at leaf n of the smallest spine containing it
    for p, n in [(2, 0), (2, 3), (3, 1), (3, 4), (4, 7)]:
        g = generator_pair(p, n)
        k = n // (p - 1) + 1
        assert num_carets(g.source) == k + 1
        assert num_carets(g.target) == k + 1
        assert equal(g, g)


def test_generator_pair_is_the_evaluated_letter():
    for n in range(306):
        assert evaluate(2, (Letter(n, 1),)) == generator_pair(2, n)
    with pytest.raises(ValueError, match="generator index must be >= 0, got -1"):
        generator_pair(2, -1)
    with pytest.raises(ValueError, match="generator index must be >= 0, got -1"):
        evaluate(2, [Letter(-1, 1)])


def test_identity_and_inverse():
    e = identity(2)
    g = generator_pair(2, 1)
    assert equal(compose(g, invert(g)), e)
    assert equal(compose(invert(g), g), e)
    assert equal(compose(g, e), g)
    for op in (compose, equal):
        with pytest.raises(ValueError, match="mismatched p: 2 != 3"):
            op(e, identity(3))


def test_reduce_is_idempotent_and_canonical():
    w = parse_word("x0 x1 x1^-1 x0^-1")
    d = evaluate(2, w)
    r = reduce(d)
    assert str(r) == str(identity(2))
    assert str(reduce(r)) == str(r)


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
                assert str(d) == str(_balanced_product(gens))
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


def _generator(p, n, sign):
    g = generator_pair(p, n)
    return g if sign > 0 else invert(g)


def _surgery_words(p, rng):
    """Seeded words of four kinds, as (index, sign) pairs."""
    small = p + 2  # indices 0..p+1
    words = []
    for _ in range(4):
        words.append([(rng.randrange(3 * p), 1) for _ in range(60)])
        words.append([(rng.randrange(3 * p), rng.choice((1, -1))) for _ in range(60)])
        # Cancellation-heavy: u, then u^-1 with a few letters slipped in.
        u = [(rng.randrange(small), rng.choice((1, -1))) for _ in range(30)]
        back = [(n, -sign) for n, sign in reversed(u)]
        for _ in range(3):
            back.insert(rng.randrange(len(back) + 1), (rng.randrange(small), rng.choice((1, -1))))
        words.append(u + back)
        # Indices past the target's spine, which make both trees grow there.
        words.append([(rng.randrange(4 * p, 7 * p), rng.choice((1, -1))) if rng.random() < 0.3
                      else (rng.randrange(small), rng.choice((1, -1))) for _ in range(40)])
    return words


@pytest.mark.parametrize("p", [2, 3, 4, 5, 7])
def test_one_generator_surgery_matches_compose_and_reduce(p):
    # The oracle is the whole-tree product: reduce(compose(d, g)) per letter.
    rng = random.Random(1500 + p)
    grown = climbed = 0
    for word in _surgery_words(p, rng):
        d = identity(p)
        for n, sign in word:
            s, t = diagrams._times_generator(p, d.source, d.target, n, sign, [0])
            new = reduce(compose(d, _generator(p, n, sign)))
            assert (s, t) == (new.source, new.target), (p, word, n, sign)
            delta = num_carets(new.source) - num_carets(d.source)
            grown += delta >= 2  # refinement added spine carets to both trees
            climbed += delta <= -2  # the reduction removed more than one pair
            d = new
    assert grown and climbed


@pytest.mark.parametrize("p", [2, 3, 4, 5, 7])
def test_evaluate_matches_the_whole_tree_fold(p):
    # evaluate carries the spine list across letters; the oracle folds
    # reduce(compose(d, g)) over the word from the identity.
    rng = random.Random(1600 + p)
    for word in _surgery_words(p, rng):
        d = identity(p)
        for n, sign in word:
            d = reduce(compose(d, _generator(p, n, sign)))
        assert evaluate(p, [Letter(n, sign) for n, sign in word]) == d, (p, word)


def _fresh_spine(p, t):
    """Positions of the spine carets of t and of the leaf that ends it, one
    character at a time: past caret d lie its p - 1 left subtrees, and a
    caret opens p subtrees where it closes one."""
    spine = [0]
    while t[spine[-1]] == "C":
        i, open_ = spine[-1] + 1, p - 1
        while open_:
            open_ += p - 1 if t[i] == "C" else -1
            i += 1
        spine.append(i)
    return spine


@pytest.mark.parametrize("p", [2, 3, 4, 5, 7])
def test_carried_spine_list_is_a_prefix_of_a_fresh_walk(p):
    rng = random.Random(1500 + p)  # the seeds of the single-product test above
    grown = climbed = carried = letters = 0
    for word in _surgery_words(p, rng):
        s = t = "L"
        spine = [0]
        for n, sign in word:
            carets = s.count("C")
            carried += len(spine) > 1
            letters += 1
            s, t = diagrams._times_generator(p, s, t, n, sign, spine)
            fresh = _fresh_spine(p, t)
            assert spine == fresh[:len(spine)], (p, word, n, sign)
            grown += s.count("C") - carets >= 2  # spine carets added to both trees
            climbed += s.count("C") - carets <= -2  # more than one pair removed
    assert grown and climbed
    assert carried > letters // 2  # most letters start from a carried list


@pytest.mark.parametrize("p", [2, 3, 5])
def test_word_times_its_inverse_is_the_identity(p):
    rng = random.Random(500 + p)
    for positive in (True, False):
        w = tuple(Letter(rng.randrange(2 * p), 1 if positive or rng.random() < 0.5 else -1)
                  for _ in range(500))
        assert evaluate(p, w + tuple(a.inverse() for a in reversed(w))) == identity(p)
        assert evaluate(p, w) != identity(p)


def test_5000_letter_words_against_balanced_product():
    rng = random.Random(5000)
    for w in (
        (Letter(0, 1),) * 5000,
        tuple(Letter(rng.randrange(9), 1) for _ in range(5000)),
        tuple(Letter(rng.randrange(9), rng.choice((1, -1))) for _ in range(5000)),
    ):
        expected = _balanced_product([_generator(3, *a) for a in w])
        assert evaluate(3, w) == expected


def test_letter_products_make_no_compose_or_reduce_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("whole-tree compose or reduce called")

    monkeypatch.setattr(diagrams, "compose", refuse)
    monkeypatch.setattr(diagrams, "reduce", refuse)
    assert evaluate(2, parse_word("x0 x1 x1^-1 x0^-1")) == identity(2)
    # The pair the whole-tree product gives for this word.
    assert str(evaluate(3, parse_word("x5^-1 x0 x7 x2^-1"))) == "CCLLLLCLLL|CLLCCLLLLL"
    assert evaluate(3, (Letter(0, 1),) * 1000).source == "C" * 1001 + "L" * 2003
    assert oracle.bfs_group_ball(2, 4).sphere_sizes == (1, 4, 12, 36, 108)


def test_evaluate_refuses_a_spine_past_the_size_limit(monkeypatch):
    # x3 at p=2 grows both trees from "L" to R_4, "CL" * 4 + "L": 9 characters;
    # after x0 the trees hold R_2 and grow by the other two carets to the same
    monkeypatch.setattr(diagrams, "DIAGRAM_SIZE_LIMIT", 9)
    assert str(evaluate(2, parse_word("x3"))) == "CLCLCLCCLLL|CLCLCLCLCLL"
    assert str(evaluate(2, parse_word("x0 x3"))) == "CCLLCLCCLLL|CLCLCLCLCLL"
    monkeypatch.setattr(diagrams, "DIAGRAM_SIZE_LIMIT", 8)
    message = "grows the trees to 9 characters, more than DIAGRAM_SIZE_LIMIT = 8"
    for w in ("x3", "x0 x3", "x2^-1"):
        with pytest.raises(ValueError, match=message):
            evaluate(2, parse_word(w))
