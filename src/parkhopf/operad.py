"""Evaluation-tree rewriting for the two-operation and three-operation
duplicial structures: normal forms, dimension counts, and the dictionary
between normal forms and the Catalan / Schroeder algebra bases.

An evaluation tree is either the leaf (the generator), encoded as None, or a
node (op, left, right) with op one of "<", ">", "o".  Two-operation mode
("dup") restricts the ops to {"<", ">"}; three-operation mode is "tri".

Every relation rewrites a left comb into a right comb:

    node(r, node(l, A, B), C)  ->  node(l, A, node(r, B, C))

In tri mode the seven oriented rules are the pairs (r, l) other than
("o", "<") and (">", "<"); in dup mode the three rules are the pairs other
than (">", "<").  A dup tree holds no "o", so one rule table serves both
modes and the rewriting functions take no mode.  Rewriting always
terminates: the sum over nodes of left-subtree sizes strictly decreases.

Rewriting is one walk, `rewrite_all_steps`, which yields every one-step
rewrite leftmost-outermost first: `rewrite_step` takes its first item and
`is_normal` asks that it yields none.  Evaluating a tree in any algebra is
one walk too, given the value at the leaves and a function per operation.
"""

from __future__ import annotations

import itertools

from .combinat import (_check_size, binary_trees, shifted_concat_len,
                       shifted_concat_max)
from .exact import LinComb, span_dimension
from .hopf import (qr_mid, qr_prec, qr_succ, wqsym_left, wqsym_mid,
                   wqsym_right)

DUP_OPS = ("<", ">")
TRI_OPS = ("<", ">", "o")

LEAF = None


def _ops(mode: str):
    if mode == "dup":
        return DUP_OPS
    if mode == "tri":
        return TRI_OPS
    raise ValueError(f"unknown mode {mode!r} (use 'dup' or 'tri')")


def _rule_applies(root_op: str, left_op: str) -> bool:
    # the surviving (root, left-child) pairs are exactly ("o","<") and (">","<")
    return not (left_op == "<" and root_op in (">", "o"))


def tree_leaves(t) -> int:
    return 1 if t is LEAF else tree_leaves(t[1]) + tree_leaves(t[2])


def eval_tree_to_text(t) -> str:
    if t is LEAF:
        return "x"
    return f"({eval_tree_to_text(t[1])} {t[0]} {eval_tree_to_text(t[2])})"


def eval_tree_parse(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError(f"unexpected end of {text!r}")
        pos += 1
        return tokens[pos - 1]

    def rec():
        tok = take()
        if tok == "x":
            return LEAF
        if tok != "(":
            raise ValueError(f"bad token {tok!r} in {text!r}")
        left = rec()
        op = take()
        if op not in TRI_OPS:
            raise ValueError(f"bad operation {op!r} in {text!r}")
        right = rec()
        if take() != ")":
            raise ValueError(f"missing ')' in {text!r}")
        return (op, left, right)

    out = rec()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return out


def all_eval_trees(mode: str, n: int):
    """All op-labeled trees with n leaves, shapes ordered as binary_trees."""
    ops = _ops(mode)

    def label(shape):
        if shape is None:
            yield LEAF
            return
        left_shape, right_shape = shape
        for op in ops:
            for left in label(left_shape):
                for right in label(right_shape):
                    yield (op, left, right)

    for shape in binary_trees(n - 1):
        yield from label(shape)


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


def rewrite_normal_form(t):
    """Iterate oriented rules to a fixed point (leftmost-outermost strategy)."""
    while True:
        nxt = rewrite_step(t)
        if nxt is None:
            return t
        t = nxt


def is_normal(t) -> bool:
    return rewrite_step(t) is None


def normal_forms(mode: str, n: int):
    """The normal forms with n leaves, built from their structural
    description in the counting proof rather than by testing every tree: a
    leaf; any operation at the root over a leaf left child and a normal right
    child; or a root ">"/"o" over a "<"-node with a leaf left child, with
    normal subtrees below.  Only the smaller sizes are kept in memory; the
    size-n trees are streamed."""
    ops = _ops(mode)
    if n < 1:
        raise ValueError(f"normal forms have at least one leaf, got n={n}")
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
    _check_size(f"count_normal_forms({mode})", n)
    return sum(1 for _ in normal_forms(mode, n))


def normal_form_shape_check(mode: str, n: int) -> bool:
    """The structural description and the rewriting rules agree: the
    generated normal forms are distinct and are exactly the trees no rule
    applies to."""
    forms = list(normal_forms(mode, n))
    return len(set(forms)) == len(forms) and set(forms) == {
        t for t in all_eval_trees(mode, n) if is_normal(t)}


def _evaluate(t, leaf, ops):
    """t with ``leaf`` at every leaf and ``ops[op]`` applied at every node."""
    if t is LEAF:
        return leaf
    op, left, right = t
    return ops[op](_evaluate(left, leaf, ops), _evaluate(right, leaf, ops))


# (leaf value, op table) of eval_tree in each mode
_EVAL_MODES = {
    "tri": (((1,), ()), {"<": qr_prec, ">": qr_succ, "o": qr_mid}),
    "dup": ((1,), {"<": shifted_concat_max, ">": shifted_concat_len}),
}


def eval_tree(t, mode: str):
    """Evaluate with the generator at the leaves; always a single basis key.

    In tri mode the leaf is the one-letter quasi-ribbon and the nodes apply
    the three quasi-ribbon operations; in dup mode the leaf is the word (1)
    and the nodes apply the two shifted concatenations.
    """
    if mode not in _EVAL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _evaluate(t, *_EVAL_MODES[mode])


def reachable_normal_forms(t, memo=None) -> frozenset:
    if memo is None:
        memo = {}
    if t in memo:
        return memo[t]
    steps = list(rewrite_all_steps(t))
    if not steps:
        result = frozenset((t,))
    else:
        acc = set()
        for s in steps:
            acc |= reachable_normal_forms(s, memo)
        result = frozenset(acc)
    memo[t] = result
    return result


def confluence_check(mode: str, n: int) -> bool:
    """Empirical confluence: every size-n tree reaches a unique normal form."""
    memo: dict = {}
    return all(len(reachable_normal_forms(t, memo)) == 1
               for t in all_eval_trees(mode, n))


def _wqsym_ops():
    """The tridendriform thirds by operation.  The names are read at each
    call, so a wrapper put on this module's names (a profiler's, say) sees
    every product."""
    return {"<": wqsym_left, ">": wqsym_right, "o": wqsym_mid}


def eval_tree_wqsym(t) -> LinComb:
    """Evaluate a three-operation tree in the packed-word algebra with the
    one-letter generator at the leaves and the tridendriform thirds inside."""
    return _evaluate(t, LinComb.term((1,)), _wqsym_ops())


def _eval_trees_wqsym(trees):
    """`eval_tree_wqsym` of each tree in turn.  The value of each distinct
    proper subtree is computed once and shared; the trees' own values are
    yielded, not kept."""
    ops = _wqsym_ops()
    values = {LEAF: LinComb.term((1,))}

    def value(t):
        if t not in values:
            op, left, right = t
            values[t] = ops[op](value(left), value(right))
        return values[t]

    for t in trees:
        if t is LEAF:
            yield values[LEAF]
        else:
            op, left, right = t
            yield ops[op](value(left), value(right))


def tridendriform_span_dimension(n: int) -> int:
    """Dimension of the span of all degree-n products of the one-letter
    generator under the three tridendriform operations of the packed-word
    algebra.  The trees share the values of their subtrees, so each distinct
    subtree of fewer than n leaves is evaluated once."""
    _check_size("tridendriform_span_dimension", n)
    return span_dimension(_eval_trees_wqsym(all_eval_trees("tri", n)))


# -- dual-operad dimension statements ------------------------------------------


def dup_dual_hooks(n: int):
    """Hook words x > ... > x < ... < x with n leaves (n of them)."""
    return [(">",) * k + ("<",) * (n - 1 - k) for k in range(n)]


def tridup_dual_hooks(n: int):
    """Mixed hooks x *...* x < ... < x with * in {>, o}: 2^n - 1 of them."""
    out = []
    for k in range(n):
        for head in itertools.product((">", "o"), repeat=k):
            out.append(tuple(head) + ("<",) * (n - 1 - k))
    return out


def dual_dimension(mode: str, n: int) -> int:
    hooks = dup_dual_hooks(n) if mode == "dup" else tridup_dual_hooks(n)
    return len(set(hooks))
