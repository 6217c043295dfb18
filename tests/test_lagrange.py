from fractions import Fraction
from math import comb, factorial

import pytest

from parkhopf.chars import pn_alpha, schroder_polynomials
from parkhopf.combinat import (binary_trees, compositions, ndpfs,
                               packed_evaluation, tree_parse)
from parkhopf.exact import P_ONE, LinComb, Poly, monomial
from parkhopf import lagrange as lg
from parkhopf.hopf import istar_on_cqsym, unit
from parkhopf.symfun import evaluate, rising_factorial

# an S-basis element is a LinComb on composition keys; a part 0 is S_0
S = LinComb.term


def test_g_small_components():
    g = lg.solve_g(4)
    assert g[0] == S(())
    assert g[1] == S((1,))
    assert g[3] == S((3,)) + S((2, 1), 2) + S((1, 2)) + S((1, 1, 1))
    assert g[4] == S((4,)) + S((3, 1), 3) + S((2, 2), 2) + S((1, 3)) + \
        S((2, 1, 1), 3) + S((1, 2, 1), 2) + S((1, 1, 2)) + S((1, 1, 1, 1))


def test_g_residual_and_symmetry():
    g = lg.solve_g(6)
    for n in range(7):
        assert lg.g_closed_form(n) == g[n]
    assert lg.symmetry_of_g(6)


def test_g_counts_ndpf_by_packed_evaluation():
    g = lg.solve_g(6)
    for n in range(1, 7):
        for comp in compositions(n):
            count = sum(1 for pi in ndpfs(n) if packed_evaluation(pi) == comp)
            assert g[n].coeff(comp) == count


def test_g_partitions_is_the_grouped_solution():
    g = lg.solve_g(8)
    for n in range(1, 9):
        grouped = g[n].map_keys(lambda key: tuple(sorted(key, reverse=True)))
        assert lg.g_partitions(n) == grouped
        # one key per partition, each weight a positive int
        assert all(type(w) is int and w > 0 for _, w in lg.g_partitions(n))
    assert [len(lg.g_partitions(n)) for n in range(13)] == \
        [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert lg.g_partitions(0) == S(())


# c_1..c_12 of a character with integer h_k, drawn once at random
_RANDOM_H = [4, -7, 0, 3, 9, -2, 5, -5, 1, 8, -3, 6]


def test_lagrange_coefficient_is_the_character_on_g():
    # [z^n] phi^(n+1)/(n+1) by the power recurrence against the partition
    # weights of g_n, for the characters 1 - x, the binomial element and
    # integers; each value also meets a route that reads neither
    x, t, a = (Poly.var(v) for v in "xta")
    for n in range(1, 13):
        g = lg.g_partitions(n)
        narayana = [P_ONE] + [1 - x] * n
        binomial = [rising_factorial(a, k).scale(Fraction(1, factorial(k)))
                    for k in range(n + 1)]
        for h in (narayana, binomial, [1] + _RANDOM_H[:n]):
            assert lg.lagrange_coefficient(h, n) == evaluate(g, h)
        # h_n((n+1)(1-x))/(n+1) in closed form
        assert lg.lagrange_coefficient(narayana, n) == Poly(
            (monomial(x=j), Fraction((-1) ** j * comb(n + 1, j)
                                     * comb(2 * n - j, n - j), n + 1))
            for j in range(n + 1))
        assert lg.lagrange_coefficient(binomial, n).scale(factorial(n)) == \
            pn_alpha(n)
        if n <= 8:
            assert lg.lagrange_coefficient([P_ONE] + [1 + t] * n, n) == \
                schroder_polynomials(n)
    assert lg.lagrange_coefficient([1], 0) == 1
    for h, n in (([2, 1], 1), ([1, 1], 2)):
        with pytest.raises(ValueError, match="needs c_0 = 1"):
            lg.lagrange_coefficient(h, n)


def test_f_small_components():
    f = lg.solve_f(3)
    assert f[0] == S((0,))
    assert f[1] == S((1, 0))
    assert f[2] == S((1, 1, 0)) + S((2, 0, 0))
    expected3 = (S((1, 1, 1, 0)) + S((1, 2, 0, 0)) + S((2, 0, 1, 0))
                 + S((2, 1, 0, 0)) + S((3, 0, 0, 0)))
    assert f[3] == expected3


def test_f_residual_and_closed_form():
    f = lg.solve_f(5)
    for n in range(6):
        assert lg.f_closed_form(n) == f[n]


def test_f_unit_specialization_hits_g():
    f = lg.solve_f(6)
    g = lg.solve_g(6)
    for n in range(7):
        assert lg.f_unit_specialization(f[n]) == g[n]


def test_B_unit_conventions():
    one = unit()
    x = LinComb.term((1,))
    assert lg.bilinear_B(one, one, "cqsym") == x
    assert lg.bilinear_B(x, x, "cqsym") == LinComb.term((1, 2, 2))
    target = LinComb.term((1, 1, 2)) + LinComb.term((1, 1, 1))
    assert lg.bilinear_B(one, LinComb.term((1, 2)) + LinComb.term((1, 1)),
                         "cqsym") == target


def test_B_rejects_unknown_algebra():
    one = unit()
    for algebra in ("sqsym", "CQSym", ""):
        with pytest.raises(ValueError, match="unknown algebra"):
            lg.bilinear_B(one, one, algebra)
    with pytest.raises(ValueError, match="unknown algebra"):
        lg.solve_series_B(2, "wqsym")


def test_negative_order_gives_empty_series():
    for solve in (lg.solve_g, lg.solve_f, lg.solve_G_cqsym, lg.solve_X_fqsym,
                  lambda order: lg.solve_series_B(order, "cqsym")):
        assert solve(-1) == []


def test_G_solves_functional_equation():
    G = lg.solve_G_cqsym(6)
    for n in range(7):
        assert set(G[n].terms) == set(ndpfs(n))
        assert all(c == 1 for _, c in G[n])
    # residual: G = 1 + B(G, G) degreewise
    for n in range(1, 7):
        rhs = LinComb()
        for i in range(n):
            rhs = rhs + lg.bilinear_B(G[i], G[n - 1 - i], "cqsym")
        assert rhs == G[n]


def test_tree_terms_are_single_basis_keys():
    terms = lg.tree_terms(6, "cqsym")
    assert len(terms) == sum(len(binary_trees(n)) for n in range(7))
    for n in range(7):
        seen = {}
        for t in binary_trees(n):
            term = terms[t]
            assert len(term) == 1
            ((key, coeff),) = list(term)
            assert coeff == 1
            assert key == lg.tree_to_ndpf(t)
            seen[key] = t
        assert len(seen) == len(binary_trees(n))


def test_X_fqsym():
    X = lg.solve_X_fqsym(8)
    import itertools
    # up to the top order, every permutation once, listed independently
    for n in range(9):
        perms = itertools.permutations(range(1, n + 1))
        assert X[n] == LinComb((p, 1) for p in perms)
    with pytest.raises(ValueError, match="solve_X_fqsym supports n <= 8"):
        lg.solve_X_fqsym(9)
    # the 14 tree terms at n=4 partition the 24 permutations
    terms = lg.tree_terms(4, "fqsym")
    supports = [set(terms[t].terms) for t in binary_trees(4)]
    assert sum(len(s) for s in supports) == 24
    union = set()
    for s in supports:
        assert not (union & s)
        union |= s
    assert len(union) == 24


def test_seven_node_tree_example():
    tree = tree_parse("((.,(.,.)),((.,.),(.,(.,.))))")
    assert lg.tree_to_ndpf(tree) == (1, 1, 3, 3, 4, 4, 4)
    assert lg.ndpf_to_tree((1, 1, 3, 3, 4, 4, 4)) == tree


def test_bijection_edge_cases_and_roundtrip():
    assert lg.tree_to_ndpf((None, None)) == (1,)
    left_comb3 = (((None, None), None), None)
    assert lg.tree_to_ndpf(left_comb3) == (1, 2, 3)
    right_comb3 = (None, (None, (None, None)))
    assert lg.tree_to_ndpf(right_comb3) == (1, 1, 1)
    for n in range(9):
        for pi in ndpfs(n):
            assert lg.tree_to_ndpf(lg.ndpf_to_tree(pi)) == pi
    for n in range(8):
        for t in binary_trees(n):
            assert lg.ndpf_to_tree(lg.tree_to_ndpf(t)) == t
    with pytest.raises(ValueError):
        lg.ndpf_to_tree((2, 2))


# The tree bijection as slices and shifted copies, one per subtree: an oracle
# for the walks of `lagrange`, which build neither.


def _tree_to_ndpf_oracle(t) -> tuple:
    if t is None:
        return ()
    left, right = t
    lw = _tree_to_ndpf_oracle(left)
    m = len(lw) + 1
    return lw + (m,) + tuple(v + m - 1 for v in _tree_to_ndpf_oracle(right))


def _ndpf_to_tree_oracle(pi):
    if not pi:
        return None
    k = max(i for i in range(1, len(pi) + 1) if pi[i - 1] == i)
    alpha = pi[:k - 1]
    beta = tuple(v - (k - 1) for v in pi[k:])
    return (_ndpf_to_tree_oracle(alpha), _ndpf_to_tree_oracle(beta))


def test_bijection_matches_the_slicing_oracle():
    for n in range(9):
        for pi in ndpfs(n):
            assert lg.ndpf_to_tree(pi) == _ndpf_to_tree_oracle(pi)
        for t in binary_trees(n):
            assert lg.tree_to_ndpf(t) == _tree_to_ndpf_oracle(t)


def tamari_leq(t1, t2) -> bool:
    """Oracle: t1 <= t2 in the Tamari order, read from `tamari_poset`."""
    trees, index, masks = lg.tamari_poset(len(lg.tree_to_ndpf(t1)))
    return bool(masks[index[t2]] >> index[t1] & 1)


def tamari_hasse_ndpf(n: int):
    """Oracle: the cover pairs (upper word, lower word) of the order, one
    rotation down, transported through the bijection."""
    return [(lg.tree_to_ndpf(t), lg.tree_to_ndpf(s))
            for t in binary_trees(n) for s in lg._down_rotations(t)]


def test_tamari_orientation():
    # the all-ones word is minimal, the staircase maximal
    for n in range(2, 6):
        bottom = lg.ndpf_to_tree((1,) * n)
        top = lg.ndpf_to_tree(tuple(range(1, n + 1)))
        for t in binary_trees(n):
            assert tamari_leq(bottom, t)
            assert tamari_leq(t, top)


def test_tamari_intervals_match_g_coefficients():
    g = lg.solve_g(6)
    for n in range(1, 7):
        classes = lg.tamari_intervals(n)
        assert set(classes) == set(compositions(n))
        for comp in compositions(n):
            is_interval, size = classes[comp]
            assert is_interval
            assert size == g[n].coeff(comp)


def test_tamari_interval_examples():
    classes = lg.tamari_intervals(4)
    assert classes[(3, 1)] == (True, 3)
    assert classes[(1, 1, 1, 1)] == (True, 1)
    assert classes[(2, 1, 1)] == (True, 3)


# Hasse diagram of the order at n = 4, transported to words: frozen cover list
FIGURE_COVERS_N4 = {
    (1, 2, 3, 4): {(1, 1, 3, 4), (1, 2, 2, 4), (1, 2, 3, 3)},
    (1, 1, 3, 4): {(1, 1, 2, 4), (1, 1, 3, 3)},
    (1, 1, 2, 4): {(1, 1, 2, 3), (1, 1, 1, 4)},
    (1, 2, 2, 4): {(1, 1, 1, 4), (1, 2, 2, 3)},
    (1, 1, 2, 3): {(1, 1, 1, 3), (1, 1, 2, 2)},
    (1, 1, 1, 4): {(1, 1, 1, 3)},
    (1, 2, 3, 3): {(1, 1, 3, 3), (1, 2, 2, 2)},
    (1, 1, 1, 3): {(1, 1, 1, 2)},
    (1, 1, 3, 3): {(1, 1, 2, 2)},
    (1, 2, 2, 3): {(1, 1, 1, 2), (1, 2, 2, 2)},
    (1, 1, 1, 2): {(1, 1, 1, 1)},
    (1, 1, 2, 2): {(1, 1, 1, 1)},
    (1, 2, 2, 2): {(1, 1, 1, 1)},
}


def test_tamari_hasse_n4_matches_figure():
    edges = tamari_hasse_ndpf(4)
    grouped: dict = {}
    for upper, lower in edges:
        grouped.setdefault(upper, set()).add(lower)
    assert grouped == FIGURE_COVERS_N4


def test_canopy_evaluation_correspondence():
    for n in range(1, 7):
        ok, blocks = lg.canopy_evaluation_correspondence(n)
        assert ok
        assert blocks == len(compositions(n))


IOTA_TABLE = {
    (1,): (1,),
    (1, 2): (1, 1),
    (1, 2, 3): (1, 1, 1), (1, 1, 3): (1, 1, 2), (1, 2, 2): (1, 2, 2),
    (1, 2, 3, 4): (1, 1, 1, 1), (1, 1, 3, 4): (1, 1, 1, 2),
    (1, 2, 2, 4): (1, 1, 2, 2), (1, 1, 2, 4): (1, 1, 1, 3),
    (1, 1, 1, 4): (1, 1, 2, 3), (1, 2, 3, 3): (1, 2, 2, 2),
    (1, 1, 3, 3): (1, 2, 2, 3),
}


def test_iota_table_and_involution():
    for pi, image in IOTA_TABLE.items():
        assert lg.iota(pi) == image
        assert lg.iota(image) == pi
    for n in range(1, 9):
        for pi in ndpfs(n):
            assert lg.iota(lg.iota(pi)) == pi


def test_iota_conjugates_packed_evaluation():
    from parkhopf.combinat import comp_conjugate
    for n in range(1, 7):
        for pi in ndpfs(n):
            assert packed_evaluation(lg.iota(pi)) == \
                comp_conjugate(packed_evaluation(pi))


def test_q_basis_product():
    assert lg.q_basis_product_check(5)


def test_phi_of_g():
    assert lg.phi_of_G(5)
    g = lg.solve_g(3)
    G = lg.solve_G_cqsym(3)
    assert istar_on_cqsym(G[3]) == g[3]
