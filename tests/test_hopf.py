import itertools
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from parkhopf.combinat import (NotInSubalgebraError, ndpfs, packed_words,
                               parking_functions, parkize, permutations,
                               quasi_ribbons, shifted_concat_len,
                               shifted_concat_max, standardize)
from parkhopf.exact import LinComb
from parkhopf import hopf, operad
from parkhopf.symfun import ribbon_product, s_product
from test_cli import (_plant_packed_all_left, _plant_packed_row_dropped,
                      _plant_relabelled_off_identity, _plant_shuffle_all_left,
                      _plant_shuffle_row_dropped)
from test_combinat import is_quasi_ribbon, text_to_ribbon


def P(w):
    return LinComb.term(tuple(w))


F = G = M = P


def QR(text):
    return LinComb.term(text_to_ribbon(text))


def pqsym_project_P(a: LinComb) -> LinComb:
    """Oracle: regroup an F-expansion on reordering classes, failing unless
    each class met is whole with one coefficient."""
    groups: dict = {}
    for w, c in a:
        groups.setdefault(tuple(sorted(w)), {})[w] = c
    for pi, members in groups.items():
        if set(members) != set(itertools.permutations(pi)) \
                or len(set(members.values())) != 1:
            raise NotInSubalgebraError(f"not constant on the class of {pi}")
    return LinComb((pi, next(iter(members.values())))
                   for pi, members in groups.items())


# -- parking-word products -----------------------------------------------------


def test_pqsym_product():
    assert hopf.pqsym_product(F((1,)), F((1,))) == F((1, 2)) + F((2, 1))
    assert hopf.pqsym_product(F((1, 1)), hopf.unit()) == F((1, 1))
    # grouping by sorted word reproduces the multiplicative basis product
    prod = hopf.pqsym_product(hopf.cqsym_expand_F(P((1, 2))),
                              hopf.cqsym_expand_F(P((1, 1, 3))))
    assert pqsym_project_P(prod) == P((1, 2, 3, 3, 5))


def test_pqsym_dup_prec_normalization():
    assert hopf.pqsym_dup_prec(F((1,)), F((1,))) == F((1, 1))
    # restriction to the multiplicative basis reproduces the concatenation rule
    for a in [(1,), (1, 1), (1, 2)]:
        for b in [(1,), (1, 1)]:
            lhs = hopf.pqsym_dup_prec(hopf.cqsym_expand_F(P(a)),
                                      hopf.cqsym_expand_F(P(b)))
            rhs = hopf.cqsym_expand_F(hopf.cqsym_prec(P(a), P(b)))
            assert lhs == rhs
    with pytest.raises(ValueError):
        hopf.pqsym_dup_prec(hopf.unit(), F((1,)))


def test_pqsym_duplicial_axioms():
    assert hopf.duplicial_axioms_pqsym(5)


# -- the multiplicative basis and its coproduct ----------------------------------


def test_cqsym_products():
    assert hopf.cqsym_prec(P((1, 2)), P((1, 1, 3))) == P((1, 2, 2, 2, 4))
    assert hopf.cqsym_succ(P((1, 2)), P((1, 1, 3))) == P((1, 2, 3, 3, 5))
    x = P((1,))
    lhs = hopf.cqsym_succ(hopf.cqsym_prec(x, x), x)
    rhs = hopf.cqsym_prec(x, hopf.cqsym_succ(x, x))
    assert lhs == P((1, 1, 3)) and rhs == P((1, 1, 2)) and lhs != rhs
    with pytest.raises(ValueError):
        hopf.cqsym_prec(hopf.unit(), x)


def test_cqsym_duplicial_axioms_and_counterexample():
    assert hopf.duplicial_axioms_cqsym(6)
    one = (1,)
    assert shifted_concat_len(shifted_concat_max(one, one), one) == (1, 1, 3)
    assert shifted_concat_max(one, shifted_concat_len(one, one)) == (1, 1, 2)


# the (root, left) pairs (r, l) whose relation (A l B) r C = A l (B r C) is
# absent, written here apart from the library's table
_ABSENT = {(">", "<"), ("o", "<")}


@pytest.mark.parametrize("algebra, symbols", [
    ("cqsym", "<>"), ("pqsym", "<>"), ("sqsym", "<>o")])
def test_each_rule_holds_and_each_other_pair_fails_on_the_generator(
        algebra, symbols):
    family, lift, ops = hopf.DUPLICIAL_ALGEBRAS[algebra]()
    assert "".join(ops) == symbols
    (key,) = family(1)
    x = lift(key) if lift else key
    for root in symbols:
        for left in symbols:
            holds = ops[root](ops[left](x, x), x) \
                == ops[left](x, ops[root](x, x))
            assert holds is ((root, left) not in _ABSENT), (root, left)
            assert hopf.is_rule(root, left) is holds
    assert hopf.non_rules_fail()


def test_expand_and_project():
    assert hopf.cqsym_expand_F(P((1, 1))) == F((1, 1))
    assert hopf.cqsym_expand_F(P((1, 2))) == F((1, 2)) + F((2, 1))
    with pytest.raises(NotInSubalgebraError):
        pqsym_project_P(F((1, 2)))  # incomplete reordering class


def test_dup_coproduct():
    assert not hopf.dup_coproduct(P((1,)))
    x = P((1,))
    assert not hopf.dup_coproduct(hopf.dup_bracket(x, x))
    delta = hopf.dup_coproduct(P((1, 1, 3)))
    assert delta == LinComb.term(((1,), (1, 2))) + LinComb.term(((1, 1), (1,)))
    # both degree-2 basis coproducts collapse to the same pure tensor,
    # which is what makes the degree-2 kernel one-dimensional
    pure = LinComb.term(((1,), (1,)))
    assert hopf.dup_coproduct(P((1, 1))) == pure
    assert hopf.dup_coproduct(P((1, 2))) == pure


def test_dup_coproduct_against_parkizing_both_sides():
    # a prefix of an NDPF is an NDPF, so parkizing it changes nothing
    for n in range(8):
        for pi in ndpfs(n):
            assert hopf.dup_coproduct(P(pi)) == LinComb(
                ((parkize(pi[:k]), parkize(pi[k:])), 1)
                for k in range(1, n))


def _dup_coproduct_by_generator(a: LinComb) -> LinComb:
    """Oracle: every cut of every term parked afresh and collected."""
    return LinComb(((pi[:k], parkize(pi[k:])), c)
                   for pi, c in a for k in range(1, len(pi)))


def test_dup_coproduct_matches_the_generator_form():
    for n in range(7):
        for pi in ndpfs(n):
            for c in (1, -3, Fraction(2, 3)):
                assert hopf.dup_coproduct(P(pi).scale(c)) == \
                    _dup_coproduct_by_generator(P(pi).scale(c))
    # several terms whose cuts meet on the same keys, which add or cancel
    x = P((1,))
    xx = hopf.dup_bracket(x, x)
    for a in (P((1, 1, 3)) + P((1, 2, 2)).scale(2) - P((1, 1, 2)),
              hopf.dup_bracket(xx, x), P((1, 1)) - P((1, 2)),
              LinComb((pi, k) for k, pi in enumerate(ndpfs(5), start=1))):
        assert len(a) > 1
        assert hopf.dup_coproduct(a) == _dup_coproduct_by_generator(a)
    assert not hopf.dup_coproduct(P((1, 1)) - P((1, 2)))
    # a one-term input with a zero coefficient has no terms
    zero = LinComb()
    zero.terms[(1, 1, 2)] = 0
    assert hopf.dup_coproduct(zero).terms == {} == \
        _dup_coproduct_by_generator(zero).terms


def test_dup_coproduct_parks_each_suffix_once(monkeypatch):
    # from empty tables, the rows of primitive_dimension(7) park each of the
    # 1,000 distinct suffixes once and share one object per distinct key
    monkeypatch.setattr(hopf, "_PARKED", {})
    monkeypatch.setattr(hopf, "_CUT_KEYS", {})
    calls = []
    monkeypatch.setattr(hopf, "parkize", lambda w: calls.append(w) or
                        parkize(w))
    rows = [hopf.dup_coproduct(P(pi)) for pi in ndpfs(7)]
    keys = [key for row in rows for key in row.terms]
    assert len(keys) == 2574 and len(calls) == len(set(calls)) == 1000
    assert len({id(key) for key in keys}) == len(set(keys)) == 572
    assert rows == [_dup_coproduct_by_generator(P(pi)) for pi in ndpfs(7)]


def test_dup_bracket_values():
    x = P((1,))
    b = hopf.dup_bracket
    assert b(x, x) == P((1, 1)) - P((1, 2))
    assert b(b(x, x), x) == \
        P((1, 1, 1)) - P((1, 2, 2)) - P((1, 1, 3)) + P((1, 2, 3))
    assert b(x, b(x, x)) == \
        P((1, 1, 1)) - P((1, 2, 2)) - P((1, 1, 2)) + P((1, 2, 3))
    for elem in (b(b(x, x), x), b(x, b(x, x))):
        assert not hopf.dup_coproduct(elem)


def test_primitive_dimension():
    assert [hopf.primitive_dimension(n) for n in range(1, 7)] == \
        [1, 1, 2, 5, 14, 42]
    # the top sizes, against duplicial normal forms with n - 1 leaves
    assert hopf.primitive_dimension(8) == 429 == \
        operad.count_normal_forms("dup", 7)
    assert hopf.primitive_dimension(9) == 1430 == \
        operad.count_normal_forms("dup", 8)
    with pytest.raises(ValueError, match="n <= 9"):
        hopf.primitive_dimension(10)


def test_bialgebra_axiom_and_coassociativity():
    assert hopf.bialgebra_axiom_check(5)
    assert hopf.coassociativity_check(5)


def test_coassociativity_check_reaches_its_top_degree(monkeypatch):
    # the cut before the last letter dropped on 5-letter keys alone: a
    # check that stopped below its top degree would not see it
    coproduct = hopf.dup_coproduct

    def cuts(pi, c):
        if len(pi) != 5:
            return coproduct(LinComb.term(pi, c))
        return [((pi[:k], parkize(pi[k:])), c) for k in range(1, 4)]

    monkeypatch.setattr(hopf, "dup_coproduct", lambda a: LinComb(
        pair for pi, c in a for pair in cuts(pi, c)))
    assert hopf.coassociativity_check(4)
    assert not hopf.coassociativity_check(5)


# -- quasi-ribbon algebra ----------------------------------------------------------


def test_sqsym_expand():
    assert hopf.sqsym_expand_F(QR("11|3")) == F((1, 3, 1)) + F((3, 1, 1))
    assert hopf.sqsym_expand_F(QR("113")) == F((1, 1, 3))


def test_sqsym_product():
    prod = hopf.sqsym_product(QR("1"), QR("1"))
    assert prod == QR("12") + QR("1|2")


def test_sqsym_closure_exhaustive():
    for n1 in range(1, 5):
        for n2 in range(1, 6 - n1):
            for q1 in quasi_ribbons(n1):
                for q2 in quasi_ribbons(n2):
                    hopf.sqsym_product(LinComb.term(q1), LinComb.term(q2))


def test_tridup_operations():
    one, empty = ((1,), ()), ((), ())
    assert hopf.qr_mid(one, one) == text_to_ribbon("1|2")
    assert hopf.qr_prec(one, one) == text_to_ribbon("11")
    assert hopf.qr_succ(one, one) == text_to_ribbon("12")
    with pytest.raises(ValueError):
        hopf.qr_prec(empty, one)
    # a bar at either end of the word is no bar at a strict ascent
    for q1, q2 in [(empty, one), (one, empty)]:
        with pytest.raises(ValueError):
            hopf.qr_mid(q1, q2)


def test_tridup_generates_all_quasi_ribbons():
    span = {((1,), ())}
    for _ in range(2):
        new = set(span)
        for a in span:
            for b in span:
                new |= {hopf.qr_succ(a, b), hopf.qr_prec(a, b),
                        hopf.qr_mid(a, b)}
        span = new
    generated3 = {q for q in span if len(q[0]) == 3}
    assert generated3 == set(quasi_ribbons(3))


def test_tridup_results_are_quasi_ribbons():
    # the qr_* operations build their results unchecked: every result on
    # key pairs of total <= 6 passes the predicate
    for n1 in range(1, 6):
        for n2 in range(1, 7 - n1):
            for q1 in quasi_ribbons(n1):
                for q2 in quasi_ribbons(n2):
                    for op in (hopf.qr_prec, hopf.qr_succ, hopf.qr_mid):
                        assert is_quasi_ribbon(op(q1, q2))


def test_triduplicial_axioms():
    assert hopf.triduplicial_axioms(6)


# -- permutation algebra --------------------------------------------------------------


def test_fqsym_product_and_halves():
    assert hopf.fqsym_product(G((1,)), G((1,))) == G((1, 2)) + G((2, 1))
    assert hopf.fqsym_left(G((1,)), G((1,))) == G((2, 1))
    assert hopf.fqsym_right(G((1,)), G((1,))) == G((1, 2))
    for a in permutations(2):
        for b in permutations(2):
            ga, gb = G(a), G(b)
            assert hopf.fqsym_product(ga, gb) == \
                hopf.fqsym_left(ga, gb) + hopf.fqsym_right(ga, gb)


# Brute-force definitions of the two products, independent of the kernel.


def _pack(word) -> tuple:
    """Relabel the distinct letters of ``word`` to 1..r in increasing order:
    std of a word with distinct letters, pack of any word."""
    letters = sorted(set(word))
    return tuple(letters.index(x) + 1 for x in word)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _words_by_factors(words, n):
    """The words filed under (rank of the first n letters, rank of the rest,
    sign of max(rest) - max(first n)), empty maxima read as 0."""
    out = defaultdict(list)
    for w in words:
        u, v = w[:n], w[n:]
        tag = _sign(max(v, default=0) - max(u, default=0))
        out[_pack(u), _pack(v), tag].append(w)
    return out


def _packed(length):
    return [w for w in itertools.product(range(1, length + 1), repeat=length)
            if _pack(w) == w]


def _perms(length):
    return list(itertools.permutations(range(1, length + 1)))


def _sum(words) -> LinComb:
    return LinComb((w, 1) for w in words)


def test_fqsym_halves_match_brute_force():
    # G_a G_b is the sum of G_g over the permutations g of size n+m with
    # std(g[:n]) = a and std(g[n:]) = b; the left half keeps the g whose
    # letter n+m lies in g[:n].  G_() G_() = G_(), the one word filed
    # under tag 0, counts as right.
    for total in range(6):
        for n in range(total + 1):
            m = total - n
            filed = _words_by_factors(
                itertools.permutations(range(1, total + 1)), n)
            for a in itertools.permutations(range(1, n + 1)):
                for b in itertools.permutations(range(1, m + 1)):
                    left = _sum(filed[a, b, -1])
                    right = _sum(filed[a, b, 1] + filed[a, b, 0])
                    assert hopf.fqsym_left(G(a), G(b)) == left
                    assert hopf.fqsym_right(G(a), G(b)) == right
                    assert hopf.fqsym_product(G(a), G(b)) == left + right


def test_wqsym_thirds_match_brute_force():
    # M_u M_v is the sum of M_w over the packed words w of length |u|+|v|
    # with pack(w[:|u|]) = u and pack(w[|u|:]) = v; the left, mid and right
    # thirds keep the w whose max(w[|u|:]) - max(w[:|u|]) is <0, 0, >0.
    thirds = (hopf.wqsym_left, hopf.wqsym_mid, hopf.wqsym_right)
    packed = [_packed(length) for length in range(6)]
    for total in range(6):
        for n in range(total + 1):
            filed = _words_by_factors(packed[total], n)
            for u in packed[n]:
                for v in packed[total - n]:
                    expected = [_sum(filed[u, v, tag]) for tag in (-1, 0, 1)]
                    got = [third(M(u), M(v)) for third in thirds]
                    assert got == expected
                    assert hopf.wqsym_product(M(u), M(v)) == \
                        expected[0] + expected[1] + expected[2]


@lru_cache(maxsize=None)
def _filed(words_of, total, n):
    return _words_by_factors(words_of(total), n)


def _brute_halves(u, v, words_of):
    """(left, right, product) for the keys u, v, from the words of length
    |u| + |v| filed by `_words_by_factors`, the tag-0 words counted right."""
    filed = _filed(words_of, len(u) + len(v), len(u))
    left = _sum(filed[u, v, -1])
    right = _sum(filed[u, v, 0] + filed[u, v, 1])
    return left, right, left + right


def test_products_with_empty_and_one_letter_keys():
    # a word of fewer than two letters is relabelled without itemgetter: put
    # the keys () and (1,) on either side of every key of size <= 4, then
    # multiply their sum by itself, so one product mixes words of 0, 1 and 2
    # letters
    edge = [(), (1,)]
    fqsym = (hopf.fqsym_left, hopf.fqsym_right, hopf.fqsym_product)
    for words_of, pieces in [(_perms, fqsym), (_packed, (hopf.wqsym_product,))]:
        keys = [w for n in range(5) for w in words_of(n)]
        for u, v in [*itertools.product(edge, keys),
                     *itertools.product(keys, edge)]:
            expected = _brute_halves(u, v, words_of)[-len(pieces):]
            assert [piece(G(u), G(v)) for piece in pieces] == list(expected)
        both = G(()) + G((1,))
        expected = [_sum([]) for _ in pieces]
        for u, v in itertools.product(edge, repeat=2):
            halves = _brute_halves(u, v, words_of)[-len(pieces):]
            expected = [e + h for e, h in zip(expected, halves)]
        assert [piece(both, both) for piece in pieces] == expected


def _brute_pieces(a, b, words_of):
    """The terms of a b under the tags -1, 0 and 1, by bilinear expansion of
    the words `_words_by_factors` files for each pair of keys."""
    pieces = ([], [], [])
    for u, cu in a:
        for v, cv in b:
            filed = _filed(words_of, len(u) + len(v), len(u))
            for piece, tag in zip(pieces, (-1, 0, 1)):
                piece.extend((w, cu * cv) for w in filed[u, v, tag])
    return [LinComb(piece) for piece in pieces]


def test_merged_runs_add_and_cancel_exactly():
    # a and b hold every key of size <= 3 with coefficients of both signs, so
    # the run of one pair of keys meets the terms of earlier pairs of the
    # same total size.  A word of total size N is filed under one pair of
    # keys per split 0..N whose sizes are both <= 3, and the sign of a's
    # coefficient alternates with the split: every term of odd total size
    # cancels in the full product.
    for words_of, pieces, full in [
            (_perms, (hopf.fqsym_left, hopf.fqsym_right), hopf.fqsym_product),
            (_packed, (hopf.wqsym_left, hopf.wqsym_mid, hopf.wqsym_right),
             hopf.wqsym_product)]:
        keys = [w for n in range(4) for w in words_of(n)]
        a = LinComb((w, 2 * (-1) ** len(w)) for w in keys)
        b = LinComb((w, Fraction(1, 3)) for w in keys)
        left, mid, right = _brute_pieces(a, b, words_of)
        expected = [left, mid + right] if len(pieces) == 2 else \
            [left, mid, right]
        got = [piece(a, b) for piece in pieces]
        assert got == expected
        product = full(a, b)
        assert product == left + mid + right
        assert {len(w) for w, _ in product} == {0, 2, 4, 6}
        for element in [*got, product]:
            assert all(c != 0 for _, c in element)


def test_run_with_a_repeated_term_adds_it():
    # (2,) is no permutation: w = (2, 4) skips letters of the rows of
    # _shuffle_tables(2, 2), so two rows give the term (3, 4) in one run
    rows = hopf._shuffle_tables(2, 2)
    expected = LinComb(((T[2], T[4]), -3)
                       for tag in (True, False) for T in rows[tag])
    assert expected.coeff((3, 4)) == -6
    assert hopf.fqsym_product(G((2,)).scale(3), G((2,)).scale(-1)) == \
        expected


def _collected(a, b, tables, keep) -> LinComb:
    """The terms of `hopf._relabelled`, summed one by one by LinComb."""
    return LinComb(
        (tuple(T[x] for x in k1 + tuple(v + s1 for v in k2)), c1 * c2)
        for k1, c1 in a for k2, c2 in b
        for s1 in [max(k1, default=0)]
        for tag in keep for T in tables(s1, max(k2, default=0))[tag])


# the tags of each table set, with the tags of `_brute_pieces` they keep:
# the permutation product files its one empty word under tag 0, as right
_TAG_SETS = [
    (_perms, hopf._shuffle_tables,
     {(True,): (-1,), (False,): (0, 1), (True, False): (-1, 0, 1)}),
    (_packed, hopf._packed_tables,
     {(-1,): (-1,), (0,): (0,), (1,): (1,), (-1, 0, 1): (-1, 0, 1)}),
]


def test_basis_pairs_match_brute_force_on_every_tag_set():
    # a pair of basis elements is one run over the rows of the kept tags,
    # which is the whole result, on every pair of keys of total size <= 5,
    # empty keys included
    for words_of, tables, tag_sets in _TAG_SETS:
        for total in range(6):
            for n in range(total + 1):
                for u, v in itertools.product(words_of(n),
                                              words_of(total - n)):
                    pieces = dict(zip((-1, 0, 1),
                                      _brute_pieces(G(u), G(v), words_of)))
                    for keep, tags in tag_sets.items():
                        expected = LinComb(pair for tag in tags
                                           for pair in pieces[tag])
                        assert hopf._relabelled(G(u), G(v), tables,
                                                keep) == expected


def test_repeated_runs_and_zero_pairs_sum_term_by_term():
    # a run that repeats a term within a tag or across two tags is summed
    # term by term, and a pair whose coefficient is zero adds nothing
    rows = hopf._shuffle_tables(2, 1)
    repeated = lambda s1, s2: {0: rows[True] + rows[True][:1]}
    shared = lambda s1, s2: {0: rows[True], 1: rows[False] + rows[True]}
    a, b = G((2, 1)).scale(3), G((1,)).scale(Fraction(-1, 2))
    for tables, keep in [(repeated, (0,)), (shared, (0, 1))]:
        got = hopf._relabelled(a, b, tables, keep)
        assert got == _collected(a, b, tables, keep)
        # a term met twice has twice the coefficient
        assert len(got) < sum(len(tables(2, 1)[tag]) for tag in keep)
        assert set(got.terms.values()) == {Fraction(-3, 2), -3}
    zero = LinComb.__new__(LinComb)
    zero.terms = {(2, 1): 0}
    for x, y in [(zero, b), (a, zero)]:
        assert hopf._relabelled(x, y, hopf._shuffle_tables, (True, False)) \
            == _collected(x, y, hopf._shuffle_tables, (True, False)) \
            == LinComb()


def test_packed_fibers_are_the_standardization_classes():
    # cached per permutation: the packed words u with std(u) = sigma, once
    for n in range(6):
        fibers = defaultdict(set)
        for u in packed_words(n):
            fibers[standardize(u)].add(u)
        for sigma in permutations(n):
            got = hopf._packed_fibers(sigma)
            assert type(got) is tuple and len(set(got)) == len(got)
            assert set(got) == fibers[sigma]
            assert hopf._packed_fibers(sigma) is got


def test_dup_weight_table():
    for am, b1 in itertools.product(range(7), repeat=2):
        assert hopf._dup_weight(am, b1) == Fraction(
            factorial(am) * factorial(b1), factorial(am + b1))


def test_product_tables_are_cached_per_shape():
    # one cache entry per pair of key maxima, never one per pair of words
    tables = (hopf._shuffle_tables, hopf._packed_tables)
    for table in tables:
        table.cache_clear()
    assert hopf.dendriform_axioms_fqsym(6)
    assert hopf.tridendriform_axioms_wqsym(5)
    for table in tables:
        info = table.cache_info()
        assert 0 < info.currsize <= 7 * 7 and info.hits > info.currsize


def test_fqsym_dendriform_axioms():
    assert hopf.dendriform_axioms_fqsym(6)


def test_relation_checker_rejects_false_relations():
    prec, succ = shifted_concat_max, shifted_concat_len
    assert hopf._relations_hold(ndpfs, 4, [(succ, prec, succ, prec)])
    # the absent cross relation (x<y)>z = x<(y>z)
    assert not hopf._relations_hold(ndpfs, 4, [(prec, succ, prec, succ)])
    left, right, prod = hopf.fqsym_left, hopf.fqsym_right, hopf.fqsym_product
    relations = [(left, left, left, prod), (right, left, right, left),
                 (prod, right, right, right)]
    assert hopf._relations_hold(permutations, 4, relations, G)
    swap = {left: right, right: left}
    for relation in relations:
        swapped = tuple(swap.get(op, op) for op in relation)
        assert not hopf._relations_hold(permutations, 4, [swapped], G)


# A brute-force relation checker, independent of the one in hopf: one triple
# and one relation at a time, each key lifted where it is used.


def _brute_triples(family, max_total):
    for sizes in itertools.product(range(1, max_total + 1), repeat=3):
        if sum(sizes) <= max_total:
            yield from itertools.product(*map(family, sizes))


def _same(key):
    return key


def _relations_hold_by_brute_force(family, max_total, relations, lift=None):
    for triple in _brute_triples(family, max_total):
        x, y, z = map(lift or _same, triple)
        for f, g, h, k in relations:
            if g(f(x, y), z) != h(x, k(y, z)):
                return False
    return True


def _wrong_on(op, target, wrong):
    """``op``, except that on the one pair ``target`` it returns
    ``wrong(op(*target))``."""
    def perturbed(x, y):
        value = op(x, y)
        return wrong(value) if (x, y) == target else value
    return perturbed


def _not_a_value(value):
    return object()  # unequal to every key and element


_RELATION_CASES = [
    (ndpfs, [(shifted_concat_max,) * 4, (shifted_concat_len,) * 4,
             (shifted_concat_len, shifted_concat_max) * 2,
             (shifted_concat_max, shifted_concat_len) * 2], None),
    (quasi_ribbons, [(hopf.qr_prec,) * 4, (hopf.qr_succ, hopf.qr_mid) * 2,
                     (hopf.qr_mid, hopf.qr_succ) * 2,
                     (hopf.qr_prec, hopf.qr_mid) * 2], None),
    (permutations, [(hopf.fqsym_left,) * 3 + (hopf.fqsym_product,),
                    (hopf.fqsym_right, hopf.fqsym_left) * 2,
                    (hopf.fqsym_left, hopf.fqsym_right) * 2], G),
]


@pytest.mark.parametrize("family, relations, lift", _RELATION_CASES,
                         ids=["ndpf", "quasi_ribbon", "permutation"])
def test_relation_checker_matches_brute_force(family, relations, lift):
    # the last relation of each case is false, the others hold
    *true, false = relations
    assert _relations_hold_by_brute_force(family, 5, true, lift)
    assert not _relations_hold_by_brute_force(family, 5, [false], lift)
    for max_total in range(6):
        for chosen in [true, [false], relations, [false, *true]]:
            assert hopf._relations_hold(family, max_total, chosen, lift) == \
                _relations_hold_by_brute_force(family, max_total, chosen, lift)


@pytest.mark.parametrize("family, relations, lift", _RELATION_CASES,
                         ids=["ndpf", "quasi_ribbon", "permutation"])
def test_relation_checker_visits_every_triple(family, relations, lift):
    # a true relation with one outer operation made wrong on the one pair
    # that a triple of total <= 5 feeds it, for every such triple: a walk
    # that skips any triple or split passes one of these
    f, g, h, k = relations[0]
    for triple in _brute_triples(family, 5):
        x, y, z = map(lift or _same, triple)
        for relation in [
                (f, _wrong_on(g, (f(x, y), z), _not_a_value), h, k),
                (f, g, _wrong_on(h, (x, k(y, z)), _not_a_value), k)]:
            assert not _relations_hold_by_brute_force(family, 5, [relation],
                                                      lift)
            assert not hopf._relations_hold(family, 5, [relation], lift)


def test_relation_checker_pairs_inner_products_with_their_keys():
    # an inner operation doubled on one pair of total 4, the largest total
    # an inner pair has when the triples total 5
    relation = (hopf.fqsym_left,) * 3 + (hopf.fqsym_product,)
    for split in [(1, 3), (2, 2), (3, 1)]:
        for y, z in itertools.product(*map(permutations, split)):
            pair = (G(y), G(z))
            for i in (0, 3):
                doubled = list(relation)
                doubled[i] = _wrong_on(relation[i], pair, lambda v: v.scale(2))
                assert not hopf._relations_hold(permutations, 5, [doubled], G)


# The permutation and packed-word splittings as the rows check them: (the
# keys, the pieces, the product, the relations), read from hopf when called.


def _fqsym_splitting():
    left, right, prod = hopf.fqsym_left, hopf.fqsym_right, hopf.fqsym_product
    return permutations, (left, right), prod, [
        (left, left, left, prod), (right, left, right, left),
        (prod, right, right, right)]


def _wqsym_splitting():
    left, mid, right = hopf.wqsym_left, hopf.wqsym_mid, hopf.wqsym_right
    prod = hopf.wqsym_product
    return packed_words, (left, mid, right), prod, [
        (left, left, left, prod), (right, left, right, left),
        (prod, right, right, right), (right, mid, right, mid),
        (left, mid, mid, right), (mid, left, mid, left),
        (mid, mid, mid, mid)]


def _product_doubled_at(monkeypatch, name, total):
    # the product ``name`` alone comes out doubled on the pairs of basis
    # keys of this total size, except the identity pairs that `_natural`
    # sums the pieces on
    product = getattr(hopf, name)

    def doubled(a, b):
        value = product(a, b)
        keys = [k for k, _ in [*a, *b]]
        if sum(map(len, keys)) != total or all(
                k == tuple(range(1, len(k) + 1)) for k in keys):
            return value
        return value.scale(2)

    monkeypatch.setattr(hopf, name, doubled)


def _plant_shuffle_product_doubled_at_5(monkeypatch):
    _product_doubled_at(monkeypatch, "fqsym_product", 5)


def _plant_packed_product_doubled_at_4(monkeypatch):
    _product_doubled_at(monkeypatch, "wqsym_product", 4)


@pytest.mark.parametrize("splitting, top, plant, holds", [
    (_fqsym_splitting, 6, None, True),
    (_fqsym_splitting, 6, _plant_shuffle_row_dropped, False),
    (_fqsym_splitting, 6, _plant_shuffle_all_left, True),
    (_fqsym_splitting, 6, _plant_relabelled_off_identity, False),
    (_fqsym_splitting, 6, _plant_shuffle_product_doubled_at_5, False),
    (_wqsym_splitting, 5, None, True),
    (_wqsym_splitting, 5, _plant_packed_row_dropped, False),
    (_wqsym_splitting, 5, _plant_packed_all_left, True),
    (_wqsym_splitting, 5, _plant_relabelled_off_identity, False),
    (_wqsym_splitting, 5, _plant_packed_product_doubled_at_4, False)])
def test_identity_route_matches_the_walks(monkeypatch, splitting, top, plant,
                                          holds):
    # naturality plus the identity triples reads what both triple walks
    # read, at every size to the top, clean and under each planted fault;
    # the all-left splittings keep every relation (the rows catch them by
    # their zero pieces); the relations apply the product only inside, to
    # pairs of total n - 1 at most, so a product wrong at top - 1 alone
    # reads true at top - 1 and false at the top on every route
    if plant is not None:
        plant(monkeypatch)
    family, pieces, product, relations = splitting()
    for n in range(top + 1):
        proven = hopf._relations_proven(family, n, pieces, product, relations)
        assert proven == hopf._relations_hold(family, n, relations, G) \
            == _relations_hold_by_brute_force(family, n, relations, G)
    assert proven is holds


def test_naturality_catches_a_fault_off_the_identity_keys(monkeypatch):
    # the fault spares every product with an identity factor, so the
    # identity triples still pass: naturality alone reads it
    _plant_relabelled_off_identity(monkeypatch)
    for splitting, n in [(_fqsym_splitting, 6), (_wqsym_splitting, 5)]:
        family, pieces, product, relations = splitting()
        assert hopf._relations_hold(hopf._identities, n, relations, G)
        assert not hopf._natural(family, n, pieces, product)
    assert not hopf.dendriform_axioms_fqsym(6)
    assert not hopf.tridendriform_axioms_wqsym(5)


def test_only_the_outer_operations_are_checked_at_the_top():
    # the product is the one operation that no relation applies outermost,
    # so it alone is checked one size lower: a product wrong at the top
    # total alone (identity pairs spared) is not read, a half is
    for splitting, n in [(_fqsym_splitting, 5), (_wqsym_splitting, 4)]:
        family, pieces, product, _ = splitting()
        assert hopf._natural(family, n, pieces, product, [product])
        for i, op in enumerate((*pieces, product)):
            wrong = _wrong_on(op, (G((2, 1)), G(tuple(range(1, n - 1)))),
                              lambda v: v.scale(2))
            ops = [*pieces, product]
            ops[i] = wrong
            assert hopf._natural(family, n, ops[:-1], ops[-1],
                                 [ops[-1]]) is (op is product)
            assert not hopf._natural(family, n + 1, ops[:-1], ops[-1],
                                     [ops[-1]])


def test_pieces_must_sum_to_the_product():
    # a product that is one piece short is natural, but the sum on the
    # identity pairs reads it
    family, pieces, product, _ = _fqsym_splitting()
    assert hopf._natural(family, 4, pieces, product)
    assert not hopf._natural(family, 4, pieces, pieces[0])
    family, pieces, product, _ = _wqsym_splitting()
    assert hopf._natural(family, 4, pieces, product)
    assert not hopf._natural(family, 4, pieces[:2], product)


# -- packed-word algebra -----------------------------------------------------------------


def test_wqsym_product_and_thirds():
    assert hopf.wqsym_product(M((1,)), M((1,))) == \
        M((1, 1)) + M((1, 2)) + M((2, 1))
    assert hopf.wqsym_mid(M((1,)), M((1,))) == M((1, 1))
    thirds = (hopf.wqsym_left, hopf.wqsym_mid, hopf.wqsym_right)
    left, mid, right = (third(M((1,)), M((1,))) for third in thirds)
    assert left + mid + right == hopf.wqsym_product(M((1,)), M((1,)))


def test_wqsym_tridendriform_axioms():
    assert hopf.tridendriform_axioms_wqsym(5)


def test_embed_fqsym_wqsym():
    assert hopf.embed_fqsym_wqsym(G((1,))) == M((1,))
    assert hopf.embed_fqsym_wqsym(G((1, 2))) == M((1, 2)) + M((1, 1))
    # algebra morphism, including a few random degree-6 pairs
    import random
    rng = random.Random(7)
    pairs = [((1,), (1,)), ((1, 2), (2, 1)), ((2, 1), (2, 1)),
             ((1, 2), (1,)), ((2, 1, 3), (2, 1, 3)), ((1, 3, 2), (3, 1, 2))]
    pairs += [(rng.choice(permutations(2)), rng.choice(permutations(4)))
              for _ in range(2)]
    for a, b in pairs:
        lhs = hopf.embed_fqsym_wqsym(hopf.fqsym_product(G(a), G(b)))
        rhs = hopf.wqsym_product(hopf.embed_fqsym_wqsym(G(a)),
                                 hopf.embed_fqsym_wqsym(G(b)))
        assert lhs == rhs


def test_is_morphism_maps_each_basis_key_once(monkeypatch):
    # f runs once per basis key of degree < n and once per product of a
    # pair, and keeps nothing past the call: patched, it is read afresh
    calls = []
    embed = hopf.embed_fqsym_wqsym

    def counted(a):
        calls.append(a)
        return embed(a)

    n = 4
    args = (permutations, hopf.fqsym_product, counted, hopf.wqsym_product, n)
    assert hopf._is_morphism(*args)
    keys = [k for size in range(1, n) for k in permutations(size)]
    pairs = list(hopf._keys_by_total(permutations, n, 2))
    assert len(calls) == len(keys) + len(pairs) == 9 + 21
    assert calls[:len(keys)] == list(map(G, keys))
    monkeypatch.setattr(hopf, "embed_fqsym_wqsym", lambda a: a)
    assert not hopf._is_morphism(permutations, hopf.fqsym_product,
                                 hopf.embed_fqsym_wqsym, hopf.wqsym_product,
                                 n)
    calls.clear()
    assert hopf._is_morphism(*args) and len(calls) == 30


# -- morphisms ------------------------------------------------------------------------------


def _random_parking_pairs(rng, total, count):
    out = []
    for _ in range(count):
        n1 = rng.randrange(1, total)
        n2 = total - n1
        out.append((rng.choice(parking_functions(n1)),
                    rng.choice(parking_functions(n2))))
    return out


def test_morphism_istar():
    assert hopf.morphism_istar(F((1, 3, 1))) == F((1, 3, 2))
    # algebra morphism on random pairs up to total degree 6
    import random
    rng = random.Random(20240817)
    pairs = [((1, 1), (1, 2, 1)), ((1,), (2, 1, 1)), ((1, 2), (1, 1)),
             ((3, 1, 1), (1, 2))]
    pairs += _random_parking_pairs(rng, 6, 8)
    for a, b in pairs:
        lhs = hopf.morphism_istar(hopf.pqsym_product(F(a), F(b)))
        rhs = hopf.pqsym_product(hopf.morphism_istar(F(a)),
                                 hopf.morphism_istar(F(b)))
        assert lhs == rhs


def test_istar_on_subalgebras():
    assert hopf.istar_on_cqsym(P((1, 1, 3))) == LinComb.term((2, 1))
    assert hopf.istar_on_sqsym(QR("11|3")) == LinComb.term((2, 1))
    # multiplicativity of the quasi-ribbon restriction, small degrees
    for q1 in quasi_ribbons(2):
        for q2 in quasi_ribbons(2):
            prod = hopf.sqsym_product(LinComb.term(q1), LinComb.term(q2))
            lhs = hopf.istar_on_sqsym(prod)
            rhs = ribbon_product(hopf.istar_on_sqsym(LinComb.term(q1)),
                                 hopf.istar_on_sqsym(LinComb.term(q2)))
            assert lhs == rhs
    # multiplicativity on the nondecreasing basis
    for a in ndpfs(2):
        for b in ndpfs(3):
            lhs = hopf.istar_on_cqsym(hopf.cqsym_succ(P(a), P(b)))
            rhs = s_product(hopf.istar_on_cqsym(P(a)),
                            hopf.istar_on_cqsym(P(b)))
            assert lhs == rhs


def test_morphism_psi():
    assert hopf.morphism_psi(F((1, 1))) == \
        LinComb.term((2,), Fraction(1, 2))
    assert hopf.morphism_psi(hopf.unit()) == LinComb.term(())
    lhs = hopf.morphism_psi(hopf.pqsym_product(F((1,)), F((1,))))
    rhs = s_product(hopf.morphism_psi(F((1,))), hopf.morphism_psi(F((1,))))
    assert lhs == rhs == LinComb.term((1, 1))
    # multiplicative on pairs of total degree <= 5, plus random degree 6
    import random
    for n1 in range(1, 4):
        for n2 in range(1, 6 - n1):
            for a in parking_functions(n1)[:6]:
                for b in parking_functions(n2)[:6]:
                    lhs = hopf.morphism_psi(hopf.pqsym_product(F(a), F(b)))
                    rhs = s_product(hopf.morphism_psi(F(a)),
                                    hopf.morphism_psi(F(b)))
                    assert lhs == rhs
    rng = random.Random(99)
    for a, b in _random_parking_pairs(rng, 6, 6):
        lhs = hopf.morphism_psi(hopf.pqsym_product(F(a), F(b)))
        assert lhs == s_product(hopf.morphism_psi(F(a)),
                                hopf.morphism_psi(F(b)))


def test_serialization():
    elem = P((1, 2)) + P((1, 1)).scale(2)
    data = hopf.element_to_json(elem, "P")
    assert data == {"basis": "P",
                    "terms": [{"key": "11", "coeff": "2"},
                              {"key": "12", "coeff": "1"}]}
