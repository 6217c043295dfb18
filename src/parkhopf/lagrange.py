"""Noncommutative Lagrange inversion: the graded series g, f, G, X; the
commutative image of g in closed form and its gate, the Lagrange
coefficient; the bilinear map B; the bijection between binary trees and
nondecreasing parking functions; Tamari intervals; and the mirror involution.

A series is the list of its degree components.  The components of g and f
are S-basis LinComb values on composition keys, multiplied by
`symfun.s_product`.  f lives in the algebra extended by the degree-zero
generator S_0, written as the part 0 of a key; the ``extended`` flag of
`_lagrange_rhs` is the one place that algebra is chosen.  Such keys are for
`s_product` only: `symfun.evaluate` and `symfun.R_to_S` reject them, and
`f_unit_specialization` sets S_0 to 1 to leave the extended algebra.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import factorial, prod

from .combinat import (_check_size, binary_trees, canopy, comp_conjugate,
                       is_ndpf, ndpfs, packed_evaluation, tree_mirror,
                       shifted_concat_len, shifted_concat_max)
from .exact import P_ONE, LinComb, Poly
from .hopf import (_keys_by_total, cqsym_prec, cqsym_succ, fqsym_left,
                   fqsym_right, istar_on_cqsym, unit)
from .symfun import s_product


def _weak_compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


# -- the series g and f in the S bases ----------------------------------------


def _solve_degreewise(order: int, term) -> list:
    """The series y_0, ..., y_order with y_n = term(y, n), where y holds the
    components of degree below n."""
    y: list = []
    for n in range(order + 1):
        y.append(term(y, n))
    return y


def _lagrange_rhs(series: list[LinComb], n: int, extended: bool) -> LinComb:
    """The degree-n part of S_0 + sum_k S_k y^k, y given through degree n-1.

    S_0 is the degree-zero generator, the key (0,), in the extended algebra
    and 1, the key (), otherwise; as the k = 0 term it only occurs in
    degree 0.
    """
    s_0 = (0,) if extended else ()
    return LinComb(
        kc for k in range(n + 1) for ms in _weak_compositions(n - k, k)
        for kc in reduce(s_product, (series[m] for m in ms),
                         LinComb.term((k,) if k else s_0)))


def solve_g(order: int) -> list[LinComb]:
    """Degreewise solution of g = sum_k S_k g^k (with S_0 = 1), g_0 = 1."""
    _check_size("solve_g", order)
    return _solve_degreewise(order, partial(_lagrange_rhs, extended=False))


def solve_f(order: int) -> list[LinComb]:
    """Degreewise solution of f = S_0 + S_1 f + S_2 f^2 + ... in the algebra
    extended by the degree-zero indeterminate S_0."""
    _check_size("solve_f", order)
    return _solve_degreewise(order, partial(_lagrange_rhs, extended=True))


def _partitions(n: int, largest: int):
    """The partitions of n with every part at most ``largest``, parts in
    decreasing order, in decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def g_partitions(n: int) -> LinComb:
    """The commutative image of g_n: the coefficients of ``solve_g(n)[n]``
    summed over the compositions with the same parts, keyed by the
    partition (parts in decreasing order).

    By Lagrange inversion g_n goes to h_n((n+1)A)/(n+1) (Novelli-Thibon,
    *Noncommutative symmetric functions and Lagrange inversion*, 2008), so
    the partition lambda has the weight

        w_lambda = n! / ((n+1-l(lambda))! prod_i m_i(lambda)!),

    m_i the multiplicity of the part i: p(n) keys against 2^(n-1)
    compositions.  A character that factors through Sym reads only these.
    """
    return LinComb(
        (lam, factorial(n) // (factorial(n + 1 - len(lam)) * prod(
            map(factorial, Counter(lam).values()))))
        for lam in _partitions(n, n))


def lagrange_coefficient(c, n: int) -> Poly:
    """[z^n] phi^(n+1)/(n+1) for phi = sum_k c_k z^k, given c_0 = 1 and
    c_1..c_n (polynomials or scalars): by Lagrange inversion the value on g_n
    of the character h_k -> c_k, read without `g_partitions`.  The powers
    a = phi^(n+1) satisfy phi a' = (n+1) phi' a, J.C.P. Miller's recurrence
    a_k = (1/k) sum_(j=1..k) ((n+2) j - k) c_j a_(k-j) from a_0 = 1."""
    if len(c) <= n or c[0] != 1:
        raise ValueError(f"lagrange_coefficient needs c_0 = 1 and c_1..c_{n}")
    a = [P_ONE]
    for k in range(1, n + 1):
        a.append(Poly.sum(c[j] * a[k - j] * ((n + 2) * j - k)
                          for j in range(1, k + 1)).scale(Fraction(1, k)))
    return a[n].scale(Fraction(1, n + 1))


def f_closed_form(n: int) -> LinComb:
    """f_n = sum over nondecreasing parking functions pi of S^(ev(pi).0),
    the evaluation taken over the letters 1..n."""
    return LinComb((tuple(pi.count(v) for v in range(1, n + 1)) + (0,), 1)
                   for pi in ndpfs(n))


def g_closed_form(n: int) -> LinComb:
    """g_n = sum over nondecreasing parking functions pi of S^(t(pi)), t the
    packed evaluation."""
    return LinComb((packed_evaluation(pi), 1) for pi in ndpfs(n))


def f_unit_specialization(fn: LinComb) -> LinComb:
    """Set the degree-zero generator to 1: drop zero parts from every key."""
    return fn.map_keys(lambda key: tuple(p for p in key if p))


# -- the bilinear map B and the quadratic equations ----------------------------


# algebra: its (succ, prec) pair.  The pair is looked up when B runs, so a
# patched or traced operation is the one called.
_B_OPERATIONS = {
    "cqsym": lambda: (cqsym_succ, cqsym_prec),
    "fqsym": lambda: (fqsym_right, fqsym_left),
}


def bilinear_B(f: LinComb, g: LinComb, algebra: str = "cqsym") -> LinComb:
    """B(F, G) = F > x < G with x the one-letter generator.

    Unit conventions (forced by B(1,1) = x): B(1,1) = x, B(F,1) = F > x,
    B(1,G) = x < G.  The partial operations only act on the augmentation
    ideal, so the unit coefficient is split off first.
    """
    if algebra not in _B_OPERATIONS:
        raise ValueError(f"unknown algebra {algebra!r}")
    succ, prec = _B_OPERATIONS[algebra]()
    x = LinComb.term((1,))
    cf = f.coeff(())
    cg = g.coeff(())
    fplus = f - LinComb.term((), cf) if cf else f
    gplus = g - LinComb.term((), cg) if cg else g
    out = x.scale(cf * cg)
    if fplus:
        out = out + succ(fplus, x).scale(cg)
    if gplus:
        out = out + prec(x, gplus).scale(cf)
    if fplus and gplus:
        out = out + prec(succ(fplus, x), gplus)
    return out


def solve_series_B(order: int, algebra: str) -> list[LinComb]:
    """Degreewise solution of Y = 1 + B(Y, Y) through the given order, with
    Y_0 = 1; like every solver here, empty for a negative order."""
    def term(y, n):
        if n == 0:
            return unit()
        return LinComb(kc for i in range(n)
                       for kc in bilinear_B(y[i], y[n - 1 - i], algebra))

    return _solve_degreewise(order, term)


def solve_G_cqsym(order: int) -> list[LinComb]:
    _check_size("solve_G_cqsym", order)
    return solve_series_B(order, "cqsym")


def solve_X_fqsym(order: int) -> list[LinComb]:
    _check_size("solve_X_fqsym", order)
    return solve_series_B(order, "fqsym")


def tree_terms(n: int, algebra: str = "cqsym") -> dict:
    """B_T(1) for every binary tree T with at most n nodes, keyed by T: T
    evaluated with 1 at the leaves and B inside.  The trees are taken by
    size, so each subtree's term is computed once and read by every tree
    that holds it."""
    terms = {None: unit()}
    for k in range(1, n + 1):
        for t in binary_trees(k):
            terms[t] = bilinear_B(terms[t[0]], terms[t[1]], algebra)
    return terms


# -- the tree <-> nondecreasing parking function bijection ---------------------


def tree_to_ndpf(t) -> tuple:
    """Label the root by (size of left subtree) + 1 and read the tree in order,
    right-subtree labels shifted by that size.

    One walk appends every label to one list: a subtree is read with the
    shift its ancestors give it, so no label is shifted twice."""
    labels: list = []
    _append_labels(t, 0, labels)
    return tuple(labels)


def _append_labels(t, offset: int, labels: list):
    """Append the labels of the subtree t, each plus offset, to labels."""
    if t is None:
        return
    left, right = t
    start = len(labels)
    _append_labels(left, offset, labels)
    m = len(labels) - start + 1
    labels.append(m + offset)
    _append_labels(right, offset + m - 1, labels)


def ndpf_to_tree(pi):
    """Inverse bijection via the unique decomposition pi = alpha > 1 < beta."""
    pi = tuple(pi)
    if not is_ndpf(pi):
        raise ValueError(f"not a nondecreasing parking function: {pi}")
    return _ndpf_to_tree(pi, 0, len(pi), 0)


def _ndpf_to_tree(pi, lo: int, hi: int, offset: int):
    """`ndpf_to_tree` of the NDPF p = (pi[j] - offset for lo <= j < hi):
    alpha and beta are NDPFs whenever p is, so the check at the outer call
    covers the recursion.

    The split point k, the largest with p[k - 1] = k, is found by a scan
    from the right that starts at the last letter of p, since p is
    nondecreasing; alpha and beta are read through their bounds and
    offsets, so no slice is built."""
    if lo == hi:
        return None
    k = pi[hi - 1] - offset
    while pi[lo + k - 1] - offset != k:
        k -= 1
    return (_ndpf_to_tree(pi, lo, lo + k - 1, offset),
            _ndpf_to_tree(pi, lo + k, hi, offset + k - 1))


# -- the Tamari order -----------------------------------------------------------


def _down_rotations(t):
    """All results of one rotation (A ^ B) ^ C -> A ^ (B ^ C) anywhere in t."""
    out = []
    if t is None:
        return out
    left, right = t
    if left is not None:
        a, b = left
        out.append((a, (b, right)))
    for nl in _down_rotations(left):
        out.append((nl, right))
    for nr in _down_rotations(right):
        out.append((t[0], nr))
    return out


@lru_cache(maxsize=None)
def tamari_poset(n: int):
    """(trees, index, descendant bitmasks) for size n.

    The orientation makes the right comb (the word 1^n) minimal and the left
    comb (the word 12...n) maximal; covers go down by one rotation.
    """
    _check_size("tamari_poset", n)
    trees = binary_trees(n)
    index = {t: i for i, t in enumerate(trees)}
    covers = [[index[s] for s in _down_rotations(t)] for t in trees]
    masks = [0] * len(trees)
    for i in range(len(trees)):
        _descendant_mask(masks, covers, i)
    return trees, index, masks


def _descendant_mask(masks, covers, i) -> int:
    # the bitmask of tree i and every tree below it, memoised in the list
    # masks, where 0 marks a mask not yet known
    if not masks[i]:
        m = 1 << i
        for j in covers[i]:
            m |= _descendant_mask(masks, covers, j)
        masks[i] = m
    return masks[i]


def tamari_intervals(n: int) -> dict[tuple, tuple[bool, int]]:
    """{composition: (is interval, size)} for the packed-evaluation classes
    of the NDPFs of size n: is the class a Tamari interval of the trees,
    through the bijection, and how many NDPFs it holds.  A composition with
    no NDPF has no entry.  The NDPFs are grouped in one pass, and the poset
    is read once for all the classes."""
    _check_size("tamari_intervals", n)
    classes: dict[tuple, list] = {}
    for pi in ndpfs(n):
        classes.setdefault(packed_evaluation(pi), []).append(pi)
    _, index, masks = tamari_poset(n)
    return {comp: (_is_interval([index[ndpf_to_tree(pi)] for pi in members],
                                masks), len(members))
            for comp, members in classes.items()}


def _is_interval(ids, masks) -> bool:
    # the trees ids of the poset with descendant bitmasks masks hold a least
    # and a greatest tree and every tree between them
    bot = [i for i in ids if all(masks[j] >> i & 1 for j in ids)]
    top = [i for i in ids if all(masks[i] >> j & 1 for j in ids)]
    if len(bot) != 1 or len(top) != 1:
        return False
    return set(ids) == {i for i in range(len(masks))
                        if masks[top[0]] >> i & 1 and masks[i] >> bot[0] & 1}


def canopy_evaluation_correspondence(n: int) -> tuple[bool, int]:
    """The canopy partition of trees equals the packed-evaluation partition
    of their words; returns (equal, number of blocks)."""
    by_canopy: dict[str, set] = {}
    by_eval: dict[tuple, set] = {}
    for t in binary_trees(n):
        word = tree_to_ndpf(t)
        by_canopy.setdefault(canopy(t), set()).add(word)
        by_eval.setdefault(packed_evaluation(word), set()).add(word)
    part1 = {frozenset(b) for b in by_canopy.values()}
    part2 = {frozenset(b) for b in by_eval.values()}
    return part1 == part2, len(part1)


# -- the mirror involution -------------------------------------------------------


def iota(pi) -> tuple:
    """Mirror symmetry of binary trees, transported to nondecreasing parking
    functions through the bijection."""
    return tree_to_ndpf(tree_mirror(ndpf_to_tree(pi)))


def q_basis_product_check(n: int) -> bool:
    """Q^pi := P^iota(pi) is multiplicative for the max-shifted concatenation:
    Q^a Q^b = Q^(b o a), on all pairs of total degree <= n.

    The mirror involution reverses factors, exchanging the two shifted
    concatenations as an anti-isomorphism; hence the transposed arguments.
    """
    return all(shifted_concat_len(iota(a), iota(b))
               == iota(shifted_concat_max(b, a))
               for a, b in _keys_by_total(ndpfs, n, 2))


def symmetry_of_g(order: int) -> bool:
    """The coefficients of g are invariant under composition conjugation."""
    g = solve_g(order)
    for n in range(1, order + 1):
        for key, c in g[n]:
            if g[n].coeff(comp_conjugate(key)) != c:
                return False
    return True


def phi_of_G(order: int) -> bool:
    """Applying P^pi -> S^t(pi) degreewise to G gives g."""
    g = solve_g(order)
    big_g = solve_G_cqsym(order)
    return all(istar_on_cqsym(big) == gn for big, gn in zip(big_g, g))
