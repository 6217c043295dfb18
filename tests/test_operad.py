import pytest

from parkhopf.combinat import ndpfs, quasi_ribbons
from parkhopf.exact import LinComb, span_dimension
from parkhopf.hopf import wqsym_left, wqsym_mid, wqsym_right
from parkhopf import operad as op
from test_combinat import is_quasi_ribbon, text_to_ribbon

X = op.LEAF


def test_tree_counts():
    # Catalan(n-1) shapes times 3^(n-1) op labelings
    assert sum(1 for _ in op.all_eval_trees("tri", 4)) == 5 * 27
    assert sum(1 for _ in op.all_eval_trees("dup", 4)) == 5 * 8


def _normal_form(t):
    """Iterate the leftmost-outermost rewrite to its fixed point."""
    while (s := op.rewrite_step(t)) is not None:
        t = s
    return t


def test_rewrite_single_steps():
    # ((x < x) < x) -> (x < (x < x)) and ((x o x) < x) -> (x o (x < x))
    assert _normal_form(("<", ("<", X, X), X)) == ("<", X, ("<", X, X))
    assert _normal_form(("<", ("o", X, X), X)) == ("o", X, ("<", X, X))
    nf = ("o", X, ("<", X, X))
    assert op.rewrite_step(nf) is None
    assert _normal_form(nf) == nf


def test_rewrite_preserves_evaluation():
    for mode in ("tri", "dup"):
        for n in range(2, 7):
            for t in op.all_eval_trees(mode, n):
                s = op.rewrite_step(t)
                if s is not None:
                    assert op.eval_tree(t, mode) == op.eval_tree(s, mode)


# the operations of each mode, and the oriented rules as (root op,
# left-child op) pairs, from the module docs
_OPS = {"dup": ("<", ">"), "tri": ("<", ">", "o")}
_RULES = {(r, l) for r in _OPS["tri"] for l in _OPS["tri"]} - {("o", "<"),
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
        ops = _OPS[mode]
        for _ in range(400):
            _steps_to_normal(_random_tree(rng, ops, n), n ** 3)


def test_normal_form_counts():
    assert [op.count_normal_forms("tri", n) for n in range(1, 6)] == \
        [1, 3, 11, 45, 197]
    assert [op.count_normal_forms("dup", n) for n in range(1, 7)] == \
        [1, 2, 5, 14, 42, 132]
    with pytest.raises(ValueError):
        op.count_normal_forms("tri", 9)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        op.count_normal_forms("bogus", 3)


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
    # (a tree's value has one letter per leaf)
    for mode, n, count, letters in (("tri", 8, 20793, lambda v: len(v[0])),
                                    ("dup", 10, 16796, len)):
        forms = list(op.normal_forms(mode, n))
        assert len(forms) == len(set(forms)) == count
        assert all(op.is_normal(t) and letters(op.eval_tree(t, mode)) == n
                   for t in forms)
        assert op.count_normal_forms(mode, n) == count
    assert op.normal_form_shape_check("tri", 6)
    with pytest.raises(ValueError):
        list(op.normal_forms("tri", 0))
    with pytest.raises(ValueError):
        list(op.normal_forms("quad", 2))


def test_eval_tree_values():
    assert op.eval_tree(("o", X, X), "tri") == text_to_ribbon("1|2")
    assert op.eval_tree((">", X, ("<", X, X)), "dup") == (1, 2, 2)
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
    # arity 4 proves every arity (the diamond lemma); the sizes past it
    # check that consequence
    for n in range(1, 7):
        assert op.confluence_check("dup", n)
    for n in range(1, 6):
        assert op.confluence_check("tri", n)


def _compose(f, g, order):
    """The coefficients of f(g(x)) through x^order, for coefficient lists f
    and g with no constant term."""
    out = [0] * (order + 1)
    power = [1] + [0] * order
    for k in range(1, order + 1):
        power = [sum(power[i] * g[d - i] for i in range(d + 1))
                 for d in range(order + 1)]
        out = [a + f[k] * b for a, b in zip(out, power)]
    return out


def test_koszul_dual_series():
    # Ginzburg-Kapranov: the generating series of a Koszul operad and of its
    # dual satisfy f(-f!(-x)) = x.  f counts the normal forms; the dual
    # dimensions are n (dup) and 2^n - 1 (tri).
    order = 8
    for mode, dual in (("dup", lambda n: n), ("tri", lambda n: 2 ** n - 1)):
        f = [0] + [op.count_normal_forms(mode, n) for n in range(1, order + 1)]
        g = [0] + [(-1) ** (n + 1) * dual(n) for n in range(1, order + 1)]
        assert _compose(f, g, order) == [0, 1] + [0] * (order - 1)


def _evaluate(t, leaf, ops):
    """Oracle: t evaluated by plain recursion, nothing shared."""
    if t is X:
        return leaf
    o, left, right = t
    return ops[o](_evaluate(left, leaf, ops), _evaluate(right, leaf, ops))


def test_shared_subtree_values_match_tree_by_tree():
    # the span evaluates each distinct proper subtree once; every tree's
    # value must still be the one its own walk gives
    leaf = LinComb.term((1,))
    ops = {"<": wqsym_left, ">": wqsym_right, "o": wqsym_mid}
    for n in range(1, 5):
        trees = list(op.all_eval_trees("tri", n))
        assert list(op._evaluations(trees, leaf, ops)) == \
            [_evaluate(t, leaf, ops) for t in trees]


def test_tridendriform_span_dimensions():
    # the little Schroeder numbers (OEIS A001003), which the count of tri
    # normal forms gives by a second route, up to the top size 7
    counts = [op.count_normal_forms("tri", n) for n in range(1, 8)]
    assert counts == [1, 3, 11, 45, 197, 903, 4279]
    assert [op.tridendriform_span_dimension(n) for n in range(1, 8)] == counts
    with pytest.raises(ValueError, match="n <= 7"):
        op.tridendriform_span_dimension(8)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^tridendriform_span_dimension "
                                             f"needs n >= 1, got {n}$"):
            op.tridendriform_span_dimension(n)


def test_tridendriform_span_matches_all_trees():
    # oracle: the span of the values of every labelled tree, which the
    # basis recursion never builds
    leaf = LinComb.term((1,))
    ops = {"<": wqsym_left, ">": wqsym_right, "o": wqsym_mid}
    for n in range(1, 6):
        trees = op.all_eval_trees("tri", n)
        assert span_dimension(op._evaluations(trees, leaf, ops)) == \
            op.tridendriform_span_dimension(n)
