"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s and in the
captured output of failing runs) and then asserts.
"""

import itertools
from fractions import Fraction
from math import comb, factorial

from parkhopf import chars, combinat, hopf, lagrange, operad
from parkhopf.exact import LinComb, Poly
from parkhopf.symfun import s_product

t, q, x, a = (Poly.var(v) for v in ("t", "q", "x", "a"))

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def _report(number: int, description: str, ok: bool):
    print(f"AC-{number:02d} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_ac01_dimensions():
    ok = [len(combinat.ndpfs(n)) for n in range(1, 7)] == \
        [1, 2, 5, 14, 42, 132]
    ok = ok and [len(combinat.quasi_ribbons(n)) for n in range(1, 6)] == \
        [1, 3, 11, 45, 197]
    ok = ok and all(len(combinat.parking_functions(n)) == (n + 1) ** (n - 1)
                    for n in range(1, 7))
    ok = ok and all(
        sum(1 for _ in chars.signed_parking_functions(n))
        == 2 ** n * (n + 1) ** (n - 1) for n in range(1, 6))
    _report(1, "graded dimensions (ndpf, quasi-ribbon, parking, signed)", ok)


def test_ac02_f_series():
    f = lagrange.solve_f(6)
    E = LinComb.term  # a part 0 is the extended generator S_0
    ok = f[2] == E((1, 1, 0)) + E((2, 0, 0))
    ok = ok and f[3] == (E((1, 1, 1, 0)) + E((1, 2, 0, 0)) + E((2, 0, 1, 0))
                         + E((2, 1, 0, 0)) + E((3, 0, 0, 0)))
    ok = ok and all(lagrange.f_closed_form(n) == f[n] for n in range(7))
    _report(2, "f_2, f_3 exact and closed form to degree 6", ok)


def test_ac03_g_series():
    g = lagrange.solve_g(7)
    S = LinComb.term
    expected_g4 = (S((4,)) + S((3, 1), 3) + S((2, 2), 2) + S((1, 3))
                   + S((2, 1, 1), 3) + S((1, 2, 1), 2) + S((1, 1, 2))
                   + S((1, 1, 1, 1)))
    ok = g[4] == expected_g4
    ok = ok and all(lagrange.g_closed_form(n) == g[n] for n in range(8))
    ok = ok and lagrange.symmetry_of_g(7)
    _report(3, "g_4 component, closed form to degree 7, conjugation symmetry",
            ok)


def test_ac04_G_equation_and_bijection():
    G = lagrange.solve_G_cqsym(7)
    ok = all(set(G[n].terms) == set(combinat.ndpfs(n))
             and all(c == 1 for _, c in G[n]) for n in range(8))
    for n in range(1, 8):
        rhs = LinComb()
        for i in range(n):
            rhs = rhs + lagrange.bilinear_B(G[i], G[n - 1 - i], "cqsym")
        ok = ok and rhs == G[n]
    terms = lagrange.tree_terms(6, "cqsym")
    for n in range(7):
        for tree in combinat.binary_trees(n):
            term = terms[tree]
            ok = ok and len(term) == 1
            ((key, coeff),) = list(term)
            ok = ok and coeff == 1 and key == lagrange.tree_to_ndpf(tree)
    ok = ok and all(
        lagrange.tree_to_ndpf(lagrange.ndpf_to_tree(pi)) == pi
        for n in range(9) for pi in combinat.ndpfs(n))
    ok = ok and all(
        lagrange.ndpf_to_tree(lagrange.tree_to_ndpf(tree)) == tree
        for n in range(9) for tree in combinat.binary_trees(n))
    _report(4, "G = 1 + B(G,G), single-key tree terms, bijection to n = 8",
            ok)


def test_ac05_seven_node_tree():
    tree = combinat.tree_parse("((.,(.,.)),((.,.),(.,(.,.))))")
    ok = lagrange.tree_to_ndpf(tree) == (1, 1, 3, 3, 4, 4, 4)
    _report(5, "the 7-node example tree maps to 1133444", ok)


def test_ac06_axiom_suites():
    ok = hopf.duplicial_axioms_cqsym(6)
    ok = ok and hopf.duplicial_axioms_pqsym(6)
    ok = ok and hopf.triduplicial_axioms(6)
    ok = ok and hopf.dendriform_axioms_fqsym(6)
    ok = ok and hopf.tridendriform_axioms_wqsym(5)
    ok = ok and hopf.cross_relation_fails_cqsym()
    _report(6, "duplicial/triduplicial/dendriform/tridendriform suites; "
               "113 != 112 counterexample", ok)


def test_ac07_coproduct_and_primitives():
    one = LinComb.term((1,))
    ok = not hopf.dup_coproduct(one)
    b = hopf.dup_bracket
    primitives = [b(one, one), b(b(one, one), one), b(one, b(one, one))]
    ok = ok and all(not hopf.dup_coproduct(p) for p in primitives)
    ok = ok and [hopf.primitive_dimension(n) for n in range(1, 7)] == \
        [CATALAN[n - 1] for n in range(1, 7)]
    ok = ok and hopf.bialgebra_axiom_check(5)
    _report(7, "primitives, Catalan primitive dimensions, bialgebra axiom",
            ok)


def test_ac08_rewriting():
    tri = [operad.count_normal_forms("tri", n) for n in range(1, 6)]
    dup = [operad.count_normal_forms("dup", n) for n in range(1, 7)]
    ok = tri == [1, 3, 11, 45, 197]
    ok = ok and dup == CATALAN[1:7]
    # the large Schroeder numbers by Lagrange inversion of
    # phi = 1 + 2z + 2z^2 + ... = (1+z)/(1-z); half of each is the little one
    large = [lagrange.lagrange_coefficient([1] + [2] * n, n).constant_value()
             for n in range(7)]
    ok = ok and large == [1, 2, 6, 22, 90, 394, 1806]
    ok = ok and [Fraction(r, 2) for r in large[1:6]] == tri
    for mode, limit, keys in (("tri", 6, combinat.quasi_ribbons),
                              ("dup", 6, combinat.ndpfs)):
        for n in range(1, limit + 1):
            normal = [s for s in operad.all_eval_trees(mode, n)
                      if operad.is_normal(s)]
            values = [operad.eval_tree(s, mode) for s in normal]
            ok = ok and len(set(values)) == len(values)
            ok = ok and set(values) == set(keys(n))
    _report(8, "normal-form counts, quadratic series, evaluation bijections",
            ok)


def test_ac09_tamari():
    g = lagrange.solve_g(6)
    ok = True
    for n in range(1, 7):
        classes = lagrange.tamari_intervals(n)
        for comp in combinat.compositions(n):
            is_interval, size = classes.get(comp, (False, 0))
            ok = ok and is_interval and size == g[n].coeff(comp)
        ok = ok and lagrange.canopy_evaluation_correspondence(n)[0]
    from test_lagrange import FIGURE_COVERS_N4, tamari_hasse_ndpf
    grouped: dict = {}
    for upper, lower in tamari_hasse_ndpf(4):
        grouped.setdefault(upper, set()).add(lower)
    ok = ok and grouped == FIGURE_COVERS_N4
    _report(9, "interval property = g coefficients, canopy partition, "
               "order diagram at n = 4", ok)


def test_ac10_involution():
    from test_lagrange import IOTA_TABLE
    ok = all(lagrange.iota(pi) == image and lagrange.iota(image) == pi
             for pi, image in IOTA_TABLE.items())
    ok = ok and all(lagrange.iota(lagrange.iota(pi)) == pi
                    for n in range(1, 9) for pi in combinat.ndpfs(n))
    ok = ok and lagrange.q_basis_product_check(5)
    _report(10, "mirror involution tables, involutivity to n = 8, "
                "multiplicative image basis", ok)


def test_ac11_super_narayana():
    p2 = chars.super_narayana_count(2)
    ok = p2 == (1 + 2 * q) * t ** 2 + (3 + 3 * q) * t + (2 + q)
    p3 = chars.super_narayana_count(3)
    ok = ok and p3 == ((5 * q ** 2 + 5 * q + 5 * q ** 3 + 1) * t ** 3
                       + (10 * q ** 3 + 16 * q ** 2 + 16 * q + 6) * t ** 2
                       + (6 * q ** 3 + 16 * q ** 2 + 16 * q + 10) * t
                       + q ** 3 + 5 * q ** 2 + 5 * q + 5)
    for n in range(1, 6):
        ok = ok and chars.super_narayana_count(n) == chars.super_narayana_sym(n)
    from test_chars import signed_stats
    for n in range(1, 5):
        by_sinv: dict = {}
        by_smaj: dict = {}
        for s in chars.signed_parking_functions(n):
            m, sinv, _, smaj = signed_stats(s)
            by_sinv[m, sinv] = by_sinv.get((m, sinv), 0) + 1
            by_smaj[m, smaj] = by_smaj.get((m, smaj), 0) + 1
        ok = ok and by_sinv == by_smaj
    _report(11, "P_2/P_3 values, counting = symmetric route to n = 5, "
                "sinv/smaj equidistribution", ok)


def test_ac12_schroder_paths():
    # schroder_polynomials raises unless its three routes agree
    rows = [chars.schroder_polynomials(n) for n in range(1, 7)]
    ok = rows[:3] == [1 + t, 2 + 3 * t + t ** 2,
                      5 + 10 * t + 6 * t ** 2 + t ** 3]
    for n in range(7):
        words = {chars.schroder_encode(p) for p in chars.schroder_paths(n)}
        ok = ok and len(words) == [1, 2, 6, 22, 90, 394, 1806][n]
    sorted_example = tuple(sorted(chars.schroder_encode("uuhuddhd")))
    ok = ok and chars.signed_to_text(sorted_example) == "-4,-1,1,1,2"
    _report(12, "P_n(t,0) rows, three route agreement to n = 6, "
                "injective path encoding, sorted example", ok)


def test_ac13_narayana_cross_check():
    ok = chars.lassalle_narayana(3) == q ** 2 + 3 * q + 1
    for n in range(1, 7):
        pn = chars.schroder_polynomials(n)
        cn_paths = chars.narayana_from_pn(pn).substitute("t", q)
        cn_lassalle = chars.lassalle_narayana(n)
        ok = ok and cn_lassalle == cn_paths
        # bar-distribution route: the bar polynomial equals c_n(1 + t)
        ok = ok and chars.bar_distribution(n) == \
            cn_lassalle.substitute("q", 1 + t)
    _report(13, "rank-one alphabet = path route = bar route, c_3 value", ok)


def test_ac14_chi_suite():
    ok = True
    for n in range(1, 8):
        ok = ok and chars.chi_sqsym(n)
        chi_gn = (1 + t) * chars.bar_distribution(n)
        cn = chars.narayana_from_pn(chars.schroder_polynomials(n))
        ok = ok and chi_gn == (1 + t) * cn.substitute("t", 1 + t)
    for n in range(1, 7):
        ok = ok and chars.chi_path_model_check(n)
    _report(14, "bar character: multiplicativity, Narayana values to n = 7, "
                "path model to n = 6", ok)


def test_ac15_psi_characters():
    # psi multiplicative on pairs of total degree <= 5
    ok = True
    for n1 in range(1, 5):
        for n2 in range(1, 6 - n1):
            for w1 in combinat.parking_functions(n1):
                for w2 in combinat.parking_functions(n2):
                    lhs = hopf.morphism_psi(
                        hopf.pqsym_product(LinComb.term(w1), LinComb.term(w2)))
                    rhs = s_product(hopf.morphism_psi(LinComb.term(w1)),
                                    hopf.morphism_psi(LinComb.term(w2)))
                    ok = ok and lhs == rhs
    closed = {1: a, 2: 3 * a ** 2 + a, 3: 16 * a ** 3 + 12 * a ** 2 + 2 * a,
              4: 125 * a ** 4 + 150 * a ** 3 + 55 * a ** 2 + 6 * a}
    for n, expected in closed.items():
        ok = ok and chars.pn_alpha(n) == expected
    for n in range(1, 7):
        ok = ok and chars.psi_alpha(n)
    for n in range(1, 6):
        counts = chars.fixed_pair_counts(n)
        coeffs = chars.pn_alpha(n).coeffs_in("a")
        for k in range(1, n + 1):
            ok = ok and counts.get(k, 0) == \
                coeffs.get(k, Poly()).constant_value()
    _report(15, "psi multiplicative, P_n(a) values, product formula, "
                "fixed-pair coefficients", ok)


def test_ac16_q_triangle():
    rows = chars.q_triangle(5)
    ok = rows[:4] == [[1], [2, 1], [6, 8, 2], [24, 58, 37, 6]]
    ok = ok and all(rows[n - 1][0] == factorial(n) for n in range(1, 6))
    ok = ok and [rows[n - 1][1] for n in range(2, 6)] == [1, 8, 58, 444]
    _report(16, "q-triangle rows, factorial column, second column values",
            ok)


def test_ac17_tridendriform_span():
    dims = [operad.tridendriform_span_dimension(n) for n in range(1, 5)]
    ok = dims == [1, 3, 11, 45]
    _report(17, "free tridendriform span dimensions inside the packed-word "
                "algebra", ok)


def test_ac18_fqsym_solution():
    X = lagrange.solve_X_fqsym(5)
    ok = all(set(X[n].terms)
             == set(itertools.permutations(range(1, n + 1)))
             and all(c == 1 for _, c in X[n]) for n in range(6))
    for n in range(1, 6):
        rhs = LinComb()
        for i in range(n):
            rhs = rhs + lagrange.bilinear_B(X[i], X[n - 1 - i], "fqsym")
        ok = ok and rhs == X[n]
    terms = lagrange.tree_terms(4, "fqsym")
    supports = [set(terms[s].terms) for s in combinat.binary_trees(4)]
    ok = ok and sum(len(s) for s in supports) == comb(4, 2) * 4  # 24 perms
    union: set = set()
    disjoint = True
    for s in supports:
        disjoint = disjoint and not (union & s)
        union |= s
    ok = ok and disjoint and len(union) == 24
    _report(18, "X = 1 + B(X,X) through degree 5; 14 tree terms partition "
                "the 24 permutations", ok)
