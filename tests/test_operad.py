import pytest

from parkhopf.combinat import (is_quasi_ribbon, ndpfs, quasi_ribbons,
                               text_to_ribbon)
from parkhopf import operad as op


def test_tree_text_roundtrip():
    for n in range(1, 5):
        for t in op.all_eval_trees("tri", n):
            assert op.eval_tree_parse(op.eval_tree_to_text(t)) == t


def test_tree_counts():
    # Catalan(n-1) shapes times 3^(n-1) op labelings
    assert sum(1 for _ in op.all_eval_trees("tri", 4)) == 5 * 27
    assert sum(1 for _ in op.all_eval_trees("dup", 4)) == 5 * 8


def test_rewrite_single_steps():
    t = op.eval_tree_parse("((x < x) < x)")
    assert op.rewrite_normal_form(t) == \
        op.eval_tree_parse("(x < (x < x))")
    t = op.eval_tree_parse("((x o x) < x)")
    assert op.rewrite_normal_form(t) == \
        op.eval_tree_parse("(x o (x < x))")
    nf = op.eval_tree_parse("(x o (x < x))")
    assert op.rewrite_step(nf) is None
    assert op.rewrite_normal_form(nf) == nf


def test_rewrite_preserves_evaluation():
    for mode in ("tri", "dup"):
        for n in range(2, 7):
            for t in op.all_eval_trees(mode, n):
                s = op.rewrite_step(t)
                if s is not None:
                    assert op.eval_tree(t, mode) == op.eval_tree(s, mode)


# the oriented rules as (root op, left-child op) pairs, from the module docs
_RULES = {(r, l) for r in op.TRI_OPS for l in op.TRI_OPS} - {("o", "<"),
                                                             (">", "<")}


def _one_step_rewrites(t):
    """Oracle: the rule applied at every node, the root first, then every
    node of the left subtree, then every node of the right subtree."""
    if t is op.LEAF:
        return []
    o, left, right = t
    here = []
    if left is not op.LEAF and (o, left[0]) in _RULES:
        here.append((left[0], left[1], (o, left[2], right)))
    return (here + [(o, s, right) for s in _one_step_rewrites(left)]
            + [(o, left, s) for s in _one_step_rewrites(right)])


def test_rewrite_walk_matches_oracle():
    for mode, top in (("tri", 5), ("dup", 6)):
        for n in range(1, top + 1):
            for t in op.all_eval_trees(mode, n):
                steps = list(op.rewrite_all_steps(t))
                assert steps == _one_step_rewrites(t)
                assert op.rewrite_step(t) == (steps[0] if steps else None)
                assert op.is_normal(t) == (not steps)


def _steps_to_normal(t, bound):
    steps = 0
    while True:
        s = op.rewrite_step(t)
        if s is None:
            return steps
        t = s
        steps += 1
        assert steps <= bound


def test_rewrite_terminates_within_cubic_steps():
    for mode in ("tri", "dup"):
        for n in range(1, 6):
            for t in op.all_eval_trees(mode, n):
                _steps_to_normal(t, n ** 3)


def _random_tree(rng, ops, leaves):
    if leaves == 1:
        return op.LEAF
    k = rng.randrange(1, leaves)
    return (rng.choice(ops), _random_tree(rng, ops, k),
            _random_tree(rng, ops, leaves - k))


def test_rewrite_termination_sampled_at_larger_sizes():
    import random
    rng = random.Random(1234)
    for mode, n in (("tri", 7), ("tri", 8), ("dup", 8), ("dup", 10)):
        ops = op.TRI_OPS if mode == "tri" else op.DUP_OPS
        for _ in range(400):
            _steps_to_normal(_random_tree(rng, ops, n), n ** 3)


def test_normal_form_counts():
    assert [op.count_normal_forms("tri", n) for n in range(1, 6)] == \
        [1, 3, 11, 45, 197]
    assert [op.count_normal_forms("dup", n) for n in range(1, 7)] == \
        [1, 2, 5, 14, 42, 132]
    with pytest.raises(ValueError):
        op.count_normal_forms("tri", 9)


def test_counts_match_quadratic_functional_equation():
    # S = 1 + 3xS + 2x^2 S^2 degreewise; trees with n leaves sit in x^(n-1)
    s = [1]
    for n in range(1, 6):
        value = 3 * s[n - 1] + 2 * sum(s[i] * s[n - 2 - i]
                                       for i in range(n - 1))
        s.append(value)
    assert s == [op.count_normal_forms("tri", n + 1) for n in range(6)]


def test_normal_form_shape_characterization():
    for mode in ("tri", "dup"):
        for n in range(1, 6):
            assert op.normal_form_shape_check(mode, n)


def test_normal_forms_at_the_caps():
    # every generated tree is a fixed point of the rules, with no repeats;
    # the counts are little Schroeder (A001003) and Catalan (A000108)
    for mode, n, count in (("tri", 8, 20793), ("dup", 10, 16796)):
        forms = list(op.normal_forms(mode, n))
        assert len(forms) == len(set(forms)) == count
        assert all(op.is_normal(t) and op.tree_leaves(t) == n for t in forms)
        assert op.count_normal_forms(mode, n) == count
    assert op.normal_form_shape_check("tri", 6)
    with pytest.raises(ValueError):
        list(op.normal_forms("tri", 0))
    with pytest.raises(ValueError):
        list(op.normal_forms("quad", 2))


def test_eval_tree_values():
    assert op.eval_tree(op.eval_tree_parse("(x o x)"), "tri") == \
        text_to_ribbon("1|2")
    assert op.eval_tree(op.eval_tree_parse("(x > (x < x))"), "dup") == \
        (1, 2, 2)
    assert op.eval_tree(op.LEAF, "dup") == (1,)


def test_eval_bijection_on_normal_forms():
    for n in range(1, 7):
        normal = [t for t in op.all_eval_trees("dup", n)
                  if op.is_normal(t)]
        values = [op.eval_tree(t, "dup") for t in normal]
        assert len(set(values)) == len(values)
        assert set(values) == set(ndpfs(n))
    for n in range(1, 6):
        normal = [t for t in op.all_eval_trees("tri", n)
                  if op.is_normal(t)]
        values = [op.eval_tree(t, "tri") for t in normal]
        assert len(set(values)) == len(values)
        assert set(values) == set(quasi_ribbons(n))


def test_tri_evaluation_builds_quasi_ribbons():
    # the qr_* operations check nothing, so check every tree's value
    for n in range(1, 6):
        assert all(is_quasi_ribbon(op.eval_tree(t, "tri"))
                   for t in op.all_eval_trees("tri", n))


def test_confluence_empirically():
    # not claimed in general; verified on the enumerated range and reported
    for n in range(1, 7):
        assert op.confluence_check("dup", n)
    for n in range(1, 6):
        assert op.confluence_check("tri", n)


def test_dual_dimensions():
    assert [op.dual_dimension("dup", n) for n in range(1, 7)] == \
        [1, 2, 3, 4, 5, 6]
    assert [op.dual_dimension("tri", n) for n in range(1, 7)] == \
        [2 ** n - 1 for n in range(1, 7)]


def test_shared_subtree_values_match_tree_by_tree():
    # the span evaluates each distinct proper subtree once; every tree's
    # value must still be the one its own walk gives
    for n in range(1, 5):
        trees = list(op.all_eval_trees("tri", n))
        assert list(op._eval_trees_wqsym(trees)) == \
            list(map(op.eval_tree_wqsym, trees))


def test_tridendriform_span_dimensions():
    assert [op.tridendriform_span_dimension(n) for n in range(1, 6)] == \
        [1, 3, 11, 45, 197]
    # the top size, against the little Schroeder number (OEIS A001003)
    assert op.tridendriform_span_dimension(6) == 903 == \
        op.count_normal_forms("tri", 6)
    with pytest.raises(ValueError, match="n <= 6"):
        op.tridendriform_span_dimension(7)
