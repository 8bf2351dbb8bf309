import itertools
import json
import tracemalloc

import pytest

from thompson_fp import fordham
from thompson_fp.diagrams import LEAF, evaluate, num_carets, parse_tree, reduce
from thompson_fp.fordham import (
    CARET_WEIGHTS,
    CaretClass,
    LEFT,
    MIDDLE_EMPTY,
    MIDDLE_FULL,
    NotPositiveError,
    RIGHT_EMPTY,
    RIGHT_FULL,
    ROOT,
    _child_kinds,
    classify,
    positive_length,
    tree_weight,
)
from thompson_fp.words import Letter, parse_word


def _length(p, text):
    return positive_length(p, evaluate(p, parse_word(text)))


def test_weight_table():
    assert CARET_WEIGHTS == {
        ROOT: 0,
        LEFT: 1,
        MIDDLE_EMPTY: 1,
        MIDDLE_FULL: 3,
        RIGHT_EMPTY: 0,
        RIGHT_FULL: 2,
    }


def test_single_caret_is_root_only():
    t = parse_tree(2, "CLL")
    ct = classify(2, t)
    assert [c.kind for c in ct.classes.values()] == [ROOT]
    assert ct.total_weight == 0
    with pytest.raises(ValueError, match="the empty tree has no carets to classify"):
        classify(2, LEAF)


def test_x2_source_tree_classes():
    # source tree of x_2 in F(2): spine of 3 with a caret at leaf 2
    t = reduce(evaluate(2, parse_word("x2"))).source
    ct = classify(2, t)
    kinds = sorted(c.kind for c in ct.classes.values())
    assert kinds == sorted([ROOT, RIGHT_FULL, MIDDLE_EMPTY, RIGHT_EMPTY])
    assert ct.total_weight == 3
    assert _length(2, "x2") == 3


def test_generators_have_expected_length():
    # x_0 .. x_{p-1} are the metric generators; higher indices cost more
    assert [_length(2, f"x{n}") for n in range(4)] == [1, 1, 3, 5]
    assert [_length(3, f"x{n}") for n in range(6)] == [1, 1, 1, 3, 3, 5]


def test_length_is_spelling_independent():
    # same element, two spellings: x_2 x_1 = x_1 x_4 in F(3)
    assert _length(3, "x2 x1") == _length(3, "x1 x4")


def test_identity_length_zero():
    assert _length(2, "1") == 0
    assert _length(2, "x0 x0^-1") == 0


def test_rejects_non_positive():
    with pytest.raises(NotPositiveError) as err:
        _length(2, "x1 x0^-1")
    assert "not positive" in str(err.value)


def test_accepts_tree_pair_input():
    d = reduce(evaluate(2, parse_word("x0 x2")))
    assert positive_length(2, d) == 2
    with pytest.raises(ValueError, match="mismatched p: 2 != 3"):
        positive_length(3, d)


def test_middle_full_requires_successor_child():
    # p=3: a caret hanging at the middle child of the root is M^1 empty;
    # give that caret a middle child of its own and it becomes full.
    empty = parse_tree(3, "CLCLLLL")
    ct = classify(3, empty)
    assert sorted(c.kind for c in ct.classes.values()) == sorted([ROOT, MIDDLE_EMPTY])
    # successor child of M^1 is its last child; hanging a caret there fills it
    fuller = parse_tree(3, "CLCLLCLLLL")
    kinds = sorted(c.kind for c in classify(3, fuller).classes.values())
    assert kinds == sorted([ROOT, MIDDLE_FULL, MIDDLE_EMPTY])
    # a caret at a predecessor child must NOT fill the parent
    pred_only = parse_tree(3, "CLCLCLLLLL")
    assert MIDDLE_FULL not in [c.kind for c in classify(3, pred_only).classes.values()]


def test_right_full_vs_empty():
    # a right caret weighs 0 unless some middle caret follows it in the order
    t = reduce(evaluate(2, parse_word("x1"))).source
    ct = classify(2, t)
    assert sum(1 for c in ct.classes.values() if c.kind == RIGHT_EMPTY) == 1
    # in the x_2 tree the first right caret is followed by a middle caret
    t2 = reduce(evaluate(2, parse_word("x2"))).source
    assert RIGHT_FULL in [c.kind for c in classify(2, t2).classes.values()]
    # p=3: a middle caret at the right caret's child 0, its predecessor, is
    # before it in the order and leaves it right_empty; one at child 1 fills it
    ct = classify(3, parse_tree(3, "CLLCCLLLLL"))
    assert ct.classes[1].kind == RIGHT_EMPTY and ct.total_weight == 1
    ct = classify(3, parse_tree(3, "CLLCLCLLLL"))
    assert ct.classes[1].kind == RIGHT_FULL and ct.total_weight == 3


def test_pass_keeps_no_record_per_right_caret():
    # the source of x_100000 at p=2 is a right spine of 100001 carets; the
    # pass holds one list slot per right caret waiting for a middle caret,
    # not a (caret, mark) record per right caret
    source = evaluate(2, [Letter(100000, 1)]).source
    tracemalloc.start()
    try:
        weight = tree_weight(2, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weight == 199999
    assert peak < 48 * len(source)


def test_classification_keeps_no_record_per_caret():
    # the source of x_100000 at p=2 has 100002 carets of four classes; its
    # carets share one CaretClass and one JSON record per class
    source = evaluate(2, [Letter(100000, 1)]).source
    tracemalloc.start()
    try:
        payload = classify(2, source).to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(payload) == 100002
    assert peak < 140 * len(source)


def test_at_most_one_right_empty_on_reduced_trees():
    for word in ("x0 x1 x2", "x0 x0 x1", "x1 x3 x5", "x2 x2"):
        t = reduce(evaluate(2, parse_word(word))).source
        ct = classify(2, t)
        empties = [c for c in ct.classes.values() if c.kind == RIGHT_EMPTY]
        assert len(empties) <= 1, word


def test_tree_weight_matches_classify(iter_trees):
    for p in (2, 3):
        for c in range(1, 5):
            for t in itertools.islice(iter_trees(p, c), 200):
                assert tree_weight(p, t) == classify(p, t).total_weight


def test_classified_tree_to_json():
    t = reduce(evaluate(2, parse_word("x2"))).source
    payload = classify(2, t).to_json()
    assert all(set(v) == {"class", "middle_index", "weight"} for v in payload.values())
    assert sum(v["weight"] for v in payload.values()) == 3


def test_to_json_shares_records_per_class_and_middle_index(iter_trees):
    # this p=3 tree has a middle_empty caret of index 1 and one of index 2,
    # which records shared per class alone would print alike
    both = "CLCLLLCCLLLLL"
    middles = {c for c in classify(3, both).classes.values() if c.kind == MIDDLE_EMPTY}
    assert middles == {CaretClass(MIDDLE_EMPTY, 1), CaretClass(MIDDLE_EMPTY, 2)}
    for p in (2, 3, 4):
        trees = [both] if p == 3 else []
        for c in range(1, 5):
            trees += itertools.islice(iter_trees(p, c), 200)
        for t in trees:
            ct = classify(p, t)
            per_caret = {
                str(i): {"class": c.kind, "middle_index": c.middle_index, "weight": c.weight}
                for i, c in ct.classes.items()
            }
            assert json.dumps(ct.to_json()) == json.dumps(per_caret), (p, t)


def test_weight_table_is_read_live():
    # the census oracle leans on this: a corrupted table must change lengths
    t = reduce(evaluate(2, parse_word("x2"))).source
    original = CARET_WEIGHTS[RIGHT_FULL]
    try:
        fordham.CARET_WEIGHTS[RIGHT_FULL] = original + 1
        assert tree_weight(2, t) == 4
        assert classify(2, t).total_weight == 4
    finally:
        fordham.CARET_WEIGHTS[RIGHT_FULL] = original
    assert tree_weight(2, t) == 3


def test_caret_count_consistency():
    t = reduce(evaluate(3, parse_word("x0 x1 x2 x0"))).source
    assert len(classify(3, t).classes) == num_carets(t)


def test_tree_weight_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown caret kind"):
        tree_weight(2, parse_tree(2, "CLL"), "sideways")


def _reference_order(p, tree):
    """Caret total order by recursion over `children`: the predecessor
    subtrees, the caret, then the successor subtrees; carets are numbered
    in preorder."""

    def walk(t, kind, mid, idx):
        kids = t.children
        if kids is None:
            return [], idx
        npred, kinds = _child_kinds(p, kind, mid)
        parts, nxt = [], idx + 1
        for child, (ck, ci) in zip(kids, kinds):
            part, nxt = walk(child, ck, ci, nxt)
            parts.append(part)
        before = [i for part in parts[:npred] for i in part]
        after = [i for part in parts[npred:] for i in part]
        return before + [idx] + after, nxt

    return walk(tree, ROOT, 0, 0)[0]


def test_total_order_matches_recursive_reference(iter_trees):
    for p in (2, 3, 4):
        for c in range(1, 6):
            for t in iter_trees(p, c):
                assert list(classify(p, t).classes) == _reference_order(p, t), (p, t)
