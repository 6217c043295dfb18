import itertools
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from parkhopf import hopf
from parkhopf.combinat import (coarser_leq, comp_concat, comp_near_concat,
                               compositions, packed_evaluation,
                               parking_functions)
from parkhopf.exact import P_ONE, LinComb, Poly, monomial
from parkhopf.lagrange import solve_g
from parkhopf.symfun import (R_to_S, evaluate, ribbon_product,
                             rising_factorial, s_product)

x, a = Poly.var("x"), Poly.var("a")
# an element is a LinComb on composition keys; the basis is the caller's
S = R = LinComb.term


def _coarsenings(j):
    out = set()
    r = len(j)
    for cuts in itertools.product((0, 1), repeat=max(r - 1, 0)):
        blocks, current = [], j[0] if j else 0
        for part, cut in zip(j[1:], cuts):
            if cut:
                blocks.append(current)
                current = part
            else:
                current += part
        if j:
            blocks.append(current)
        out.add(tuple(blocks))
    return out


def S_to_R(a: LinComb) -> LinComb:
    """Oracle: S^I = sum of R_J over all J coarser than or equal to I."""
    return LinComb((j, c) for i, c in a
                   for j in compositions(sum(i)) if coarser_leq(j, i))


def as2_axioms_check(n: int) -> bool:
    """Oracle: (I *1 J) *2 K = I *1 (J *2 K) for *i in {concat,
    near-concat}, and the ribbon product associative, over all composition
    triples of total size n."""
    ops = (comp_concat, comp_near_concat)
    for p in range(1, n - 1):
        for q in range(1, n - p):
            for i, j, k in itertools.product(compositions(p), compositions(q),
                                             compositions(n - p - q)):
                for op1, op2 in itertools.product(ops, repeat=2):
                    if op2(op1(i, j), k) != op1(i, op2(j, k)):
                        return False
                ri, rj, rk = R(i), R(j), R(k)
                if ribbon_product(ribbon_product(ri, rj), rk) \
                        != ribbon_product(ri, ribbon_product(rj, rk)):
                    return False
    return True


def test_s_product():
    assert s_product(S((2,)), S((1, 1))) == S((2, 1, 1))
    one = S(())
    assert s_product(one, S((3,))) == S((3,))
    assert s_product(S((1,)), S((0,))) == S((1, 0))
    assert s_product(S((1,), 2) + S((2,)), S((1,), 3)) == \
        S((1, 1), 6) + S((2, 1), 3)


def test_basis_change_against_block_oracle():
    # S^I = sum of R_J over the coarsenings J of I
    for n in range(7):
        for i in compositions(n):
            expected = LinComb()
            for j in _coarsenings(i):
                expected = expected + R(j)
            assert S_to_R(S(i)) == expected


def test_basis_change_small_cases():
    assert S_to_R(S((2,))) == R((2,))
    assert S_to_R(S((1, 1))) == R((1, 1)) + R((2,))
    assert R_to_S(R((1, 1))) == S((1, 1)) - S((2,))


def test_basis_changes_mutually_inverse():
    for n in range(9):
        for i in compositions(n):
            assert R_to_S(S_to_R(S(i))) == S(i)
            assert S_to_R(R_to_S(R(i))) == R(i)


def test_ribbon_product_rule():
    assert ribbon_product(R((1,)), R((1,))) == R((1, 1)) + R((2,))
    assert ribbon_product(R(()), R((2, 1), 3)) == R((2, 1), 3)


def test_ribbon_product_transports_s_product():
    for n1 in range(1, 7):
        for n2 in range(1, 8 - n1):
            for i in compositions(n1):
                for j in compositions(n2):
                    lhs = S_to_R(s_product(S(i), S(j)))
                    rhs = ribbon_product(S_to_R(S(i)), S_to_R(S(j)))
                    assert lhs == rhs


def test_ribbon_associativity():
    for i, j, k in [((1,), (2,), (1, 1)), ((2, 1), (1,), (3,)),
                    ((1, 1), (1, 1), (1,)), ((3,), (2,), (2, 2))]:
        a, b, c = R(i), R(j), R(k)
        assert ribbon_product(ribbon_product(a, b), c) == \
            ribbon_product(a, ribbon_product(b, c))


def test_as2_axioms():
    assert as2_axioms_check(0)
    for n in range(3, 7):
        assert as2_axioms_check(n)


def test_mixed_as2_example():
    assert comp_near_concat(comp_concat((1,), (1,)), (1,)) == (1, 2)
    assert comp_concat((1,), comp_near_concat((1,), (1,))) == (1, 2)


def _newton_h(p, n: int) -> list:
    """Oracle: complete functions h_0..h_n of the alphabet with power sums
    p(1), p(2), ..., by the Newton recurrence n h_n = sum_k p_k h_(n-k)."""
    h = [P_ONE]
    for m in range(1, n + 1):
        h.append(sum((p(k) * h[m - k] for k in range(1, m + 1)),
                     Poly()).scale(Fraction(1, m)))
    return h


def _binomial_h(n: int) -> list:
    """h_k of the binomial element, C(a + k - 1, k) as a polynomial in a."""
    return [prod((a + (k - 1 - j) for j in range(k)),
                 start=P_ONE).scale(Fraction(1, factorial(k)))
            for k in range(n + 1)]


def _rank_one_h(m: int, n: int) -> list:
    """h_k(m(1-x)) = sum_j C(m, j) (-x)^j C(m + k - j - 1, k - j)."""
    return [Poly((monomial(x=j), (-1) ** j * comb(m, j)
                  * comb(m + k - j - 1, k - j)) for j in range(k + 1))
            for k in range(n + 1)]


def test_binomial_alphabet():
    # the binomial element has every power sum p_k = a
    assert _newton_h(lambda k: a, 8) == _binomial_h(8)
    assert _binomial_h(2)[2] == (a * a + a).scale(Fraction(1, 2))


def _q_pochhammer(base: Poly, n: int) -> Poly:
    """(base;q)_n = (1-base)(1-base q)...(1-base q^(n-1))."""
    q = Poly.var("q")
    return prod((1 - base * q ** j for j in range(n)), start=P_ONE)


def _q_binomial(n: int, k: int) -> Poly:
    """[n; k]_q = sum of q^inv over the 0/1 words of length n with k ones,
    inv the number of pairs of a one before a zero."""
    words = (tuple(int(i in ones) for i in range(n))
             for ones in itertools.combinations(range(n), k))
    return Poly.sum(Poly.var("q", sum(b > c for b, c in
                                      itertools.combinations(w, 2)))
                    for w in words)


def test_q_binomial_closed_form_newton_identity():
    # h_n((1-x)/(1-q)) = (x;q)_n / (q;q)_n satisfies Newton's identity
    # n h_n = sum_k p_k h_(n-k) with p_k = (1-x^k)/(1-q^k); times (q)_n:
    # n (x;q)_n = sum_k (1-x^k) [(q)_n / ((1-q^k)(q)_(n-k))] (x;q)_(n-k),
    # where the bracket is [n; k]_q (q)_(k-1)
    x, q = Poly.var("x"), Poly.var("q")
    for n in range(1, 9):
        rhs = Poly()
        for k in range(1, n + 1):
            bracket = _q_binomial(n, k) * _q_pochhammer(q, k - 1)
            rhs = rhs + (1 - x ** k) * bracket * _q_pochhammer(x, n - k)
        assert rhs == n * _q_pochhammer(x, n)


def test_rank_one_alphabet():
    # m(1-x) has power sums p_k = m(1 - x^k)
    for m in (1, 3, 9):
        assert _newton_h(lambda k: (1 - x ** k).scale(m), 8) == \
            _rank_one_h(m, 8)
    h = _rank_one_h(3, 2)
    assert h[1] == 3 - 3 * x
    assert h[2] == ((3 - 3 * x) ** 2 + 3 - 3 * x ** 2).scale(Fraction(1, 2))
    assert _rank_one_h(1, 4) == [P_ONE] + [1 - x] * 4


def test_evaluate_is_algebra_morphism():
    pairs = [((2,), (1, 1)), ((1, 2), (2,)), ((3,), (1, 1, 1)), ((1,), (2, 2))]
    for h in (_binomial_h(4), _rank_one_h(3, 4)):
        for i, j in pairs:
            lhs = evaluate(s_product(S(i), S(j)), h)
            rhs = evaluate(S(i), h) * evaluate(S(j), h)
            assert lhs == rhs
        # linear, with scalar coefficients
        elem = S((2, 1), 3) + S((1, 2), Fraction(-1, 2))
        assert evaluate(elem, h) == 3 * h[2] * h[1] \
            - (h[1] * h[2]).scale(Fraction(1, 2))
    assert evaluate(S(()), [P_ONE]) == 1
    assert evaluate(S((2, 1), 5), [1, 2, 3]) == 30


def test_lagrange_identity_on_g():
    # evaluate(g_n, A) = h_n((n+1)A)/(n+1), with the h_n of the multiple
    # (n+1)A from its power sums (n+1)p_k(A)
    g = solve_g(8)
    for p, h in ((lambda k: a, _binomial_h(8)),
                 (lambda k: 1 - x ** k, _rank_one_h(1, 8))):
        for n in range(1, 9):
            hn = _newton_h(lambda k: p(k).scale(n + 1), n)[n]
            assert evaluate(g[n], h) == hn.scale(Fraction(1, n + 1))


def test_evaluate_rejects_extended_and_ribbon():
    # the part 0 is S_0 of the extended algebra, which has no commutative
    # image here
    h = _binomial_h(2)
    with pytest.raises(ValueError, match="part 0"):
        evaluate(S((1, 0)), h)
    with pytest.raises(ValueError, match="part 0"):
        evaluate(S((1,)) + S((0, 1), 2), h)


def test_basis_change_rejects_extended():
    with pytest.raises(ValueError, match="part 0"):
        R_to_S(S((1, 0)))


def _cycle_count(sigma):
    seen = [False] * len(sigma)
    k = 0
    for i in range(len(sigma)):
        if not seen[i]:
            k += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = sigma[j] - 1
    return k


def _young_cycle_enumerator(parts) -> Poly:
    """Z_I(a): a^(cycles) summed over the Young subgroup S_(i_1) x ...,
    by brute force."""
    pools = [list(itertools.permutations(range(1, p + 1))) for p in parts]
    total = Poly()
    for pieces in itertools.product(*pools):
        total = total + a ** sum(_cycle_count(s) for s in pieces)
    return total


def _rising(n: int) -> list:
    return [rising_factorial(a, k) for k in range(n + 1)]


def test_cycle_enumerator_against_brute_force():
    # the cycle enumerator Z_I(a) is evaluate(S^I) with h_k = (a)_k
    for parts in [(2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        assert evaluate(S(parts), _rising(3)) == \
            _young_cycle_enumerator(parts)
    assert evaluate(S((2,)), _rising(2)) == a ** 2 + a
    assert evaluate(S((1, 1)), _rising(1)) == a ** 2
    assert evaluate(S((3,)), _rising(3)) == a ** 3 + 3 * a ** 2 + 2 * a


def test_psi_of_F_w_is_cycle_enumerator_over_n_factorial():
    # the binomial character is evaluate after morphism_psi with h_k = (a)_k:
    # psi_a(F_w) = Z_t(w)(a) / n! for every parking function w of size <= 4
    for n in range(5):
        for w in parking_functions(n):
            psi = evaluate(hopf.morphism_psi(LinComb.term(w)), _rising(n))
            assert psi == _young_cycle_enumerator(packed_evaluation(w)).scale(
                Fraction(1, factorial(n)))


def test_cycle_enumerator_vs_binomial_character():
    # Z_I(a) / prod(i_k!) = prod h_(i_k)(binomial)
    h = _binomial_h(6)
    for n in range(1, 7):
        for i in compositions(n):
            denom = prod(factorial(part) for part in i)
            lhs = _young_cycle_enumerator(i).scale(Fraction(1, denom))
            assert lhs == evaluate(S(i), h)


def test_rising_factorial():
    alpha = Poly.var("a")
    assert rising_factorial(alpha, 0) == Poly.const(1)
    assert rising_factorial(alpha, 3) == alpha * (alpha + 1) * (alpha + 2)
