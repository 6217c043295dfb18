"""Evaluation-tree rewriting for the two-operation and three-operation
duplicial structures: normal forms, dimension counts, and the dictionary
between normal forms and the Catalan / Schroeder algebra bases.

An evaluation tree is either the leaf (the generator), encoded as None, or a
node (op, left, right) with op one of "<", ">", "o".  Two-operation mode
("dup") restricts the ops to {"<", ">"}; three-operation mode is "tri".
Each mode is one row of ``_MODES``: its operations, and the value of the
generator and the operation applied at each node when `eval_tree` evaluates
a tree in that mode's algebra.

Every relation rewrites a left comb into a right comb:

    node(r, node(l, A, B), C)  ->  node(l, A, node(r, B, C))

In tri mode the seven oriented rules are the pairs (r, l) other than
("o", "<") and (">", "<"); in dup mode the three rules are the pairs other
than (">", "<").  A dup tree holds no "o", so one rule table serves both
modes and the rewriting functions take no mode.  Rewriting always
terminates: the sum over nodes of left-subtree sizes strictly decreases.
So confluence on the trees with 4 leaves proves confluence at every size
(see `confluence_check`).

Rewriting is one walk, `rewrite_all_steps`, which yields every one-step
rewrite leftmost-outermost first: `rewrite_step` takes its first item and
`is_normal` asks that it yields none.  `eval_tree` evaluates a tree by one
walk, `_evaluations`, given the value at the leaves and a function per
operation; it evaluates each distinct proper subtree once.

The span of the degree-n products of the generator under the three
tridendriform operations of the packed-word algebra is built without trees:
the operations are bilinear, so it is spanned by the products of a basis of
each smaller degree, and `tridendriform_span_dimension` keeps a basis per
degree.
"""

from __future__ import annotations

from .combinat import (_check_size, binary_trees, shifted_concat_len,
                       shifted_concat_max)
from .exact import LinComb, independent
from .hopf import (qr_mid, qr_prec, qr_succ, wqsym_left, wqsym_mid,
                   wqsym_right)

LEAF = None

# mode: (its operations, eval_tree's value of the generator, eval_tree's
# function per operation): in tri mode the one-letter quasi-ribbon and the
# three quasi-ribbon operations, in dup mode the word (1) and the two shifted
# concatenations
_MODES = {
    "dup": (("<", ">"), (1,),
            {"<": shifted_concat_max, ">": shifted_concat_len}),
    "tri": (("<", ">", "o"), ((1,), ()),
            {"<": qr_prec, ">": qr_succ, "o": qr_mid}),
}


def _mode(mode: str) -> tuple:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r} (use 'dup' or 'tri')")
    return _MODES[mode]


def _rule_applies(root_op: str, left_op: str) -> bool:
    # the surviving (root, left-child) pairs are exactly ("o","<") and (">","<")
    return not (left_op == "<" and root_op in (">", "o"))


def all_eval_trees(mode: str, n: int):
    """All op-labeled trees with n leaves, shapes ordered as binary_trees.
    A generator: it checks its size at its first item."""
    ops, _, _ = _mode(mode)
    _check_size("all_eval_trees", n)
    for shape in binary_trees(n - 1):
        yield from _labellings(shape, ops)


def _labellings(shape, ops):
    # every labelling of the nodes of shape by ops, the root's op first
    if shape is None:
        yield LEAF
        return
    left_shape, right_shape = shape
    for op in ops:
        for left in _labellings(left_shape, ops):
            for right in _labellings(right_shape, ops):
                yield (op, left, right)


def rewrite_all_steps(t):
    """Every tree one rewrite away from t, leftmost-outermost first: the rule
    at the root, then the rewrites inside the left subtree, then those inside
    the right subtree."""
    if t is LEAF:
        return
    op, left, right = t
    if left is not LEAF and _rule_applies(op, left[0]):
        lop, a, b = left
        yield (lop, a, (op, b, right))
    for nl in rewrite_all_steps(left):
        yield (op, nl, right)
    for nr in rewrite_all_steps(right):
        yield (op, left, nr)


def rewrite_step(t):
    """One leftmost-outermost rewrite, or None if t is a normal form."""
    return next(rewrite_all_steps(t), None)


def is_normal(t) -> bool:
    return rewrite_step(t) is None


def normal_forms(mode: str, n: int):
    """The normal forms with n leaves, built from their structural
    description in the counting proof rather than by testing every tree: a
    leaf; any operation at the root over a leaf left child and a normal right
    child; or a root ">"/"o" over a "<"-node with a leaf left child, with
    normal subtrees below.  Only the smaller sizes are kept in memory; the
    size-n trees are streamed."""
    ops, _, _ = _mode(mode)
    _check_size("normal_forms", n)
    roots = [op for op in ops if op != "<"]
    forms = [[], [LEAF]]

    def grow(m):
        for op in ops:
            for right in forms[m - 1]:
                yield (op, LEAF, right)
        for k in range(1, m - 1):
            for b in forms[k]:
                left = ("<", LEAF, b)
                for op in roots:
                    for right in forms[m - 1 - k]:
                        yield (op, left, right)

    for m in range(2, n):
        forms.append(list(grow(m)))
    yield from grow(n) if n > 1 else forms[1]


def count_normal_forms(mode: str, n: int) -> int:
    _mode(mode)
    _check_size(f"count_normal_forms({mode})", n)
    return sum(1 for _ in normal_forms(mode, n))


def normal_form_shape_check(mode: str, n: int) -> bool:
    """The structural description and the rewriting rules agree: the
    generated normal forms are distinct and are exactly the trees no rule
    applies to."""
    forms = list(normal_forms(mode, n))
    return len(set(forms)) == len(forms) and set(forms) == {
        t for t in all_eval_trees(mode, n) if is_normal(t)}


def _evaluations(trees, leaf, ops, values=None):
    """Each tree in turn with ``leaf`` at every leaf and ``ops[op]`` applied
    at every node.  The value of each distinct proper subtree is computed
    once, by this walk on that subtree alone, and shared through the dict
    ``values``; the trees' own values are yielded, not kept."""
    if values is None:
        values = {LEAF: leaf}
    for t in trees:
        if t is LEAF:
            yield leaf
            continue
        op, left, right = t
        for sub in (left, right):
            if sub not in values:
                (values[sub],) = _evaluations((sub,), leaf, ops, values)
        yield ops[op](values[left], values[right])


def eval_tree(t, mode: str):
    """Evaluate with the generator at the leaves; always a single basis key."""
    _, leaf, ops = _mode(mode)
    (value,) = _evaluations((t,), leaf, ops)
    return value


def confluence_check(mode: str, n: int) -> bool:
    """Every tree with n leaves reaches a unique normal form.

    At n = 4 this is a proof for every n: the rules are quadratic and
    terminate, and the trees with 4 leaves hold every critical monomial, so
    by the diamond lemma for operads (Dotsenko-Khoroshkin 2010;
    Loday-Vallette 2012, ch. 8) their confluence is confluence in every
    arity.  Other sizes check that consequence."""
    memo: dict = {}
    return all(len(_normal_forms_of(memo, t)) == 1
               for t in all_eval_trees(mode, n))


def _normal_forms_of(memo, t) -> frozenset:
    # the normal forms t rewrites to, memoised in the dict memo
    if t not in memo:
        steps = list(rewrite_all_steps(t))
        acc = set() if steps else {t}
        for s in steps:
            acc |= _normal_forms_of(memo, s)
        memo[t] = frozenset(acc)
    return memo[t]


def tridendriform_span_dimension(n: int) -> int:
    """Dimension of the span of all degree-n products of the one-letter
    generator under the three tridendriform operations of the packed-word
    algebra.

    The operations are bilinear, so the degree-m products are spanned by
    op(u, v) for u in a basis of degree k, v in a basis of degree m - k and
    each of the three operations.  Starting from the generator in degree 1,
    each degree's basis is the products that `independent` keeps; no tree
    list is built."""
    _check_size("tridendriform_span_dimension", n)
    # the thirds are read at each call, so a wrapper put on this module's
    # names (a profiler's, say) sees every product
    ops = (wqsym_left, wqsym_right, wqsym_mid)
    bases = [[], [LinComb.term((1,))]]
    for m in range(2, n + 1):
        bases.append(independent([op(u, v) for k in range(1, m)
                                  for u in bases[k] for v in bases[m - k]
                                  for op in ops]))
    return len(bases[n])
