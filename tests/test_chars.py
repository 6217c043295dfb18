import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from parkhopf import chars as ch
from parkhopf import combinat, hopf
from parkhopf.cli import _large_schroder
from parkhopf.combinat import (is_parking, iter_parking_functions, ndpfs,
                               parking_functions, permutations, quasi_ribbons,
                               recoils, shifted_shuffle, standardize)
from parkhopf.exact import LinComb, Poly, monomial
from parkhopf.lagrange import g_partitions
from parkhopf.symfun import R_to_S, evaluate, rising_factorial
from test_cli import _plant_qbinom_plus_qn, _plant_sorted_word_inverted
from test_combinat import pack
from test_symfun import _q_pochhammer

t, q, x, a = (Poly.var(v) for v in ("t", "q", "x", "a"))


# -- oracles, also read by the other test modules --------------------------------


def signed_stats(v):
    """(minus count, signed inversions, signed descent set, signed major index).

    (i, j) with i < j is a signed inversion when v_i beats v_j: v_i > v_j, or
    v_i = v_j with the common sign negative; descents are the adjacent version.
    """
    def beats(a, b):
        return a > b or a == b < 0

    sinv = sum(beats(v[i], v[j]) for j in range(len(v)) for i in range(j))
    sdes = frozenset(j for j in range(1, len(v)) if beats(v[j - 1], v[j]))
    return sum(x < 0 for x in v), sinv, sdes, sum(sdes)


def test_no_poly_holds_a_float(monkeypatch):
    # every Poly is built through __init__: record the coefficient types of
    # each one the three routes build
    types = set()
    init = Poly.__init__

    def recording_init(self, terms=()):
        init(self, terms)
        types.update(map(type, self.terms.values()))

    monkeypatch.setattr(Poly, "__init__", recording_init)
    ch.super_narayana_sym(5)
    ch.schroder_polynomials(5)
    ch.lassalle_narayana(5)
    assert int in types and types <= {int, Fraction}


# -- signed statistics ------------------------------------------------------------


def test_signed_word_basics():
    s = (-1, -1)
    assert signed_stats(s)[0] == 2
    assert ch.signed_to_text((-4, -1, 1, 1, 2)) == "-4,-1,1,1,2"
    assert ch.signed_to_text(()) == ""
    # the signed parking functions are the signings of the parking functions
    for n in range(5):
        assert sorted(ch.signed_parking_functions(n)) == sorted(
            v for v in itertools.product(range(-n, n + 1), repeat=n)
            if 0 not in v and is_parking(map(abs, v)))


def signed_shifted_shuffle(a, b):
    """Shifted shuffle of signed words: the letters of b move len(a) away
    from 0 and keep their signs."""
    n = len(a)
    return shifted_shuffle(a, (x + n if x > 0 else x - n for x in b), 0)


def test_signed_shifted_shuffle():
    for a, b in [((-2, 1), (1, -1, -2)), ((-1,), (1, -1))]:
        n = len(a)
        out = list(signed_shifted_shuffle(a, b))
        assert [tuple(map(abs, s)) for s in out] == \
            shifted_shuffle(map(abs, a), map(abs, b), n)
        for s in out:  # letters <= n come from a, the others from b
            assert [x for x in s if abs(x) <= n] == list(a)
            assert [x - n if x > 0 else x + n for x in s if abs(x) > n] == \
                list(b)
    # the library signs each shifted shuffle of two parking functions; the
    # signed shifted shuffles of every pair of their signings give the same
    # summed signed weight
    for n in range(2, 5):
        for k in range(1, n):
            for a, b in itertools.product(parking_functions(k),
                                          parking_functions(n - k)):
                signed = Poly(ch._signed_term(signed_stats(s))
                              for sa in ch._signings(a)
                              for sb in ch._signings(b)
                              for s in signed_shifted_shuffle(sa, sb))
                assert signed == Poly.sum(map(ch.fsigma_signed_weight,
                                              shifted_shuffle(a, b, k)))


def test_signed_stats_examples():
    m, sinv, sdes, smaj = signed_stats((-1, -1))
    assert (m, sinv) == (2, 1)
    assert signed_stats((2, 1))[1] == 1
    m, sinv, sdes, smaj = signed_stats((1, 2))
    assert sinv == 0 and smaj == 0


def test_signed_counts():
    for n in range(1, 5):
        count = sum(1 for _ in ch.signed_parking_functions(n))
        assert count == 2 ** n * (n + 1) ** (n - 1)


def _brute_stats(v):
    """Independent recomputation of the statistics from the definition."""
    sinv = sum(1 for i in range(len(v)) for j in range(i + 1, len(v))
               if v[i] > v[j] or (v[i] == v[j] and v[i] < 0))
    des = [i for i in range(1, len(v))
           if v[i - 1] > v[i] or (v[i - 1] == v[i] and v[i - 1] < 0)]
    return sinv, sum(des)


def test_signed_stats_as_standardized_inversions():
    # signed inversions are ordinary inversions of (std of values with sign
    # tie-break); spot-check the package statistics against the brute one
    for s in ch.signed_parking_functions(3):
        _, sinv, _, smaj = signed_stats(s)
        bs, bm = _brute_stats(s)
        assert sinv == bs and smaj == bm


def test_signing_walk_matches_signed_words():
    # the prefix walk against signed_stats on every signed parking function,
    # and against the definition
    for n in range(6):
        walk = Counter(itertools.chain.from_iterable(
            map(ch._signing_stats, iter_parking_functions(n))))
        words = list(ch.signed_parking_functions(n))
        by_words = Counter((m, sinv, smaj) for m, sinv, _, smaj
                           in map(signed_stats, words))
        brute = Counter((sum(x < 0 for x in s), *_brute_stats(s))
                        for s in words)
        assert walk == by_words == brute
        assert sum(walk.values()) == 2 ** n * (n + 1) ** (n - 1)


def test_signing_lanes_are_those_of_the_standardization():
    # the lemma behind super_narayana_count's walk over the permutations:
    # the beat rule orders the letters as their standardization does, ties
    # broken left to right, so the statistics agree signing by signing
    for n in range(6):
        for w in iter_parking_functions(n):
            assert list(ch._signing_stats(w)) == \
                list(ch._signing_stats(standardize(w)))


def test_grouped_count_matches_every_signing_walked():
    for n in range(1, 6):
        stats = Counter(itertools.chain.from_iterable(
            map(ch._signing_stats, iter_parking_functions(n))))
        by_sinv = Counter()
        for (m, sinv, _), c in stats.items():
            by_sinv[m, sinv] += c
        assert ch.super_narayana_count(n) == Poly(
            (monomial(t=m, q=j), c) for (m, j), c in by_sinv.items())


def _count_by_whole_words(n):
    """super_narayana_count with each distinct packed word walked whole by
    `_signing_stats`, its (minus, sinv, smaj) triples weighted by the number
    of parking functions that pack to it."""
    stats = Counter()
    for word, mult in Counter(map(pack, iter_parking_functions(n))).items():
        for triple in ch._signing_stats(word):
            stats[triple] += mult
    return stats


def test_prefix_walk_matches_the_whole_word_walks(monkeypatch):
    # the oracle walks each distinct packed word whole; the library walks
    # the permutations by prefix
    steps = []
    step = ch._signing_step
    monkeypatch.setattr(ch, "_signing_step", lambda state, x: (
        steps.append(x) or step(state, x)))
    for n in range(7):
        by_sinv, by_smaj = Counter(), Counter()
        for (m, sinv, smaj), c in _count_by_whole_words(n).items():
            by_sinv[m, sinv] += c
            by_smaj[m, smaj] += c
        assert by_sinv == by_smaj
        steps.clear()
        assert ch.super_narayana_count(n) == Poly(
            (monomial(t=m, q=j), c) for (m, j), c in by_sinv.items())
        # one step per distinct prefix of a permutation
        words = permutations(n)
        prefixes = {w[:k] for w in words for k in range(1, n + 1)}
        assert len(steps) == len(prefixes)
        if n == 5:
            assert (len(steps), len(words) * n) == (325, 600)


def test_standardizing_counts_the_parking_functions_of_each_permutation():
    # the recoil DP against the parking functions standardized one by one
    for n in range(7):
        brute = Counter(map(standardize, iter_parking_functions(n)))
        assert brute == {
            sigma: ch._standardizing(n, sum(1 << i for i in recoils(sigma)))
            for sigma in permutations(n)}


def test_count_enumerates_no_parking_function(monkeypatch):
    def refuse(n):
        raise AssertionError("parking functions enumerated")

    monkeypatch.setattr(ch, "iter_parking_functions", refuse)
    monkeypatch.setattr(combinat, "iter_parking_functions", refuse)
    assert ch.super_narayana_count(4) == ch.super_narayana_sym(4)


def test_signed_weight_matches_signed_words():
    for n in range(5):
        for w in parking_functions(n):
            by_words = Poly((monomial(x=m, q=smaj), (-1) ** m)
                            for m, _, _, smaj
                            in map(signed_stats, ch._signings(w)))
            assert ch.fsigma_signed_weight(w) == by_words


def test_unchecked_producers_make_valid_signed_words():
    # every signed word a producer builds without a check, for total size
    # <= 5, is a tuple that passes the predicate and survives the text round
    # trip
    signed = [list(ch.signed_parking_functions(n)) for n in range(6)]

    def made(n):
        yield from signed[n]
        yield from ch._sorted_signed_pfs(n)
        for w in parking_functions(n):
            yield from ch._signings(w)

    for n in range(6):
        for s in made(n):
            assert type(s) is tuple and len(s) == n
            assert 0 not in s and is_parking(map(abs, s))
            assert tuple(map(int, ch.signed_to_text(s).split(",")
                             if s else ())) == s


# -- super-Narayana ----------------------------------------------------------------


def test_p2_value():
    assert ch.super_narayana_count(2) == \
        (1 + 2 * q) * t ** 2 + (3 + 3 * q) * t + (2 + q)


def test_p3_value():
    expected = ((5 * q ** 2 + 5 * q + 5 * q ** 3 + 1) * t ** 3
                + (10 * q ** 3 + 16 * q ** 2 + 16 * q + 6) * t ** 2
                + (6 * q ** 3 + 16 * q ** 2 + 16 * q + 10) * t
                + q ** 3 + 5 * q ** 2 + 5 * q + 5)
    assert ch.super_narayana_count(3) == expected


def test_p1():
    assert ch.super_narayana_count(1) == t + 1


def test_counting_equals_symmetric_route():
    for n in range(5):
        assert ch.super_narayana_sym(n) == \
            (ch.super_narayana_count(n) if n else Poly.const(1))


def test_symmetric_route_to_twelve():
    # gate P_n(t, q) up to its top by its value at q = 1, the 2^n (n+1)^(n-1)
    # signed parking functions counted by minus signs, by its q = 0 slice,
    # the closed form of the Schroeder polynomial P_n(t), and by the
    # counting route up to its top of 8
    for n in range(1, 13):
        pn = ch.super_narayana_sym(n)
        assert pn.substitute("q", 1) == (1 + t) ** n * (n + 1) ** (n - 1)
        assert pn.substitute("q", 0) == sum(
            (Fraction(comb(n + 1, j) * comb(2 * n - j, n - j), n + 1) * t ** j
             for j in range(n + 1)), Poly.const(0))
        if n <= 8:
            assert pn == ch.super_narayana_count(n)
    with pytest.raises(ValueError,
                       match="super_narayana_sym supports n <= 12, got 13"):
        ch.super_narayana_sym(13)


def test_q_pascal_table_times_pochhammers():
    # [n; k]_q (q;q)_k (q;q)_(n-k) = (q;q)_n gates the table by multiplication
    for n in range(13):
        for k in range(n + 1):
            assert ch._qbinom(n, k) * _q_pochhammer(q, k) \
                * _q_pochhammer(q, n - k) == _q_pochhammer(q, n)


def test_q_pascal_table_outlives_no_plant(monkeypatch):
    # a fault patched into _qbinom shows in the value while it is in place,
    # and every table row cached under it is clean once it is undone
    clean = ch.super_narayana_sym(6)
    ch._qpascal_row.cache_clear()
    _plant_qbinom_plus_qn(monkeypatch)
    assert ch.super_narayana_sym(6) != clean
    monkeypatch.undo()
    # the q-multinomials of n = 6 read rows 1 to 6
    assert ch._qpascal_row.cache_info().currsize == 6
    for n in range(1, 7):
        assert [p * _q_pochhammer(q, k) * _q_pochhammer(q, n - k)
                for k, p in enumerate(ch._qpascal_row(n))] == \
            [_q_pochhammer(q, n)] * (n + 1)
    assert ch.super_narayana_sym(6) == clean


@pytest.mark.parametrize("name", ["pn_alpha", "qn_polynomial",
                                  "super_narayana_sym",
                                  "super_narayana_count"])
def test_polynomial_values_reject_negative_sizes(name):
    with pytest.raises(ValueError, match=f"^{name} needs n >= 0, got -1$"):
        getattr(ch, name)(-1)


def test_signed_weight_base_case():
    assert ch.fsigma_signed_weight((1,)) == 1 - x


def test_qtF_identity():
    # the signed-maj weight is a character up to the q-binomial
    # normalization, with the base case W(1) = 1 - x
    assert ch.fsigma_signed_weight((1,)) == 1 - x
    for sigma in [(1,), (1, 2), (2, 1), (1, 3, 2), (3, 1, 2)]:
        for tau in [(1,), (1, 2), (2, 1)]:
            assert ch._shuffle_identity(sigma, tau)


def test_s_character():
    assert ch.s_character_check(2)
    assert ch.s_character_check(3)


# -- paths ---------------------------------------------------------------------------


def test_dyck_encode_examples():
    assert ch.dyck_encode("uuududdudd") == (1, 1, 1, 2, 4)
    # the diagonal counts down steps to the left, not the starting height
    assert ch.dyck_encode("uudd") == (1, 1)
    assert ch.dyck_encode("udud") == (1, 2)
    with pytest.raises(ValueError):
        ch.dyck_encode("udd")


def test_dyck_bijection():
    # the encoding is injective, Catalan many words, and onto the NDPFs
    for n in range(8):
        words = [ch.dyck_encode(p) for p in ch.paths("dyck", n)]
        assert len(set(words)) == len(words) == len(ndpfs(n))
        assert set(words) == set(ndpfs(n))


def test_schroder_encode_examples():
    enc = ch.schroder_encode("uuhuddhd")
    assert enc == (1, 1, -1, 2, -4)
    assert ch.signed_to_text(sorted(enc)) == "-4,-1,1,1,2"
    assert ch.schroder_encode("h") == (-1,)
    # a pure Dyck path encodes without bars, matching the Dyck encoding
    assert ch.schroder_encode("uudd") == ch.dyck_encode("uudd") == (1, 1)


def test_schroder_roundtrip_and_sorted_no_inversions():
    # the encoding is injective, large-Schroeder many words, and each word
    # sorts to a signed parking function with no signed inversion
    schroder = [1, 2, 6, 22, 90, 394, 1806]
    for n in range(7):
        words = [ch.schroder_encode(p) for p in ch.paths("schroder", n)]
        assert len(set(words)) == len(words) == schroder[n]
        for enc in words:
            assert is_parking(map(abs, enc))
            assert signed_stats(tuple(sorted(enc)))[1] == 0


def test_schroder_encode_rejects_bad_paths():
    # the messages name the first fault met on the walk
    for path, message in [("udd", "dips below"), ("uhu", "does not return"),
                          ("uxd", "bad step 'x'"), ("du", "dips below"),
                          ("hx", "bad step 'x'"), ("uu", "does not return"),
                          ("dx", "dips below")]:
        with pytest.raises(ValueError, match=message):
            ch.schroder_encode(path)


def test_paths_reject_a_negative_size():
    for family in ("dyck", "schroder"):
        for n in (-1, -2):
            with pytest.raises(ValueError,
                               match=f"^paths needs n >= 0, got {n}$"):
                ch.paths(family, n)
    # and keep no cap of their own past the enumerators' 12
    assert next(ch.paths("dyck", 15)) == "u" * 15 + "d" * 15


def test_schroder_counts():
    assert [len(list(ch.paths("schroder", n))) for n in range(5)] == \
        [1, 2, 6, 22, 90]
    # 0 horizontal steps: exactly the Dyck paths
    for n in range(5):
        no_h = [p for p in ch.paths("schroder", n) if "h" not in p]
        assert sorted(no_h) == sorted(ch.paths("dyck", n))
    # Catalan and large Schroeder (OEIS A006318) counts through n = 8; both
    # lists are valid paths in strictly increasing order under u < d < h
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    schroder = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]
    rank = "udh".index
    for n in range(9):
        for paths, count in ((list(ch.paths("dyck", n)), catalan[n]),
                             (list(ch.paths("schroder", n)), schroder[n])):
            assert len(paths) == count
            for p in paths:
                # both encoders validate the path; dyck_encode rejects h
                word = ch.schroder_encode(p)
                if "h" in p:
                    with pytest.raises(ValueError, match="bad step 'h'"):
                        ch.dyck_encode(p)
                else:
                    assert ch.dyck_encode(p) == word
            keys = [list(map(rank, p)) for p in paths]
            assert all(a < b for a, b in zip(keys, keys[1:]))


def test_schroder_polynomial_rows():
    rows = [ch.schroder_polynomials(n) for n in range(1, 4)]
    assert rows[0] == 1 + t
    assert rows[1] == 2 + 3 * t + t ** 2
    assert rows[2] == 5 + 10 * t + 6 * t ** 2 + t ** 3
    # the top: P_8(t) holds by its three routes inside the call, and P_8(1)
    # is the large Schroeder number of the cli's closed form
    p8 = ch.schroder_polynomials(8)
    assert p8.substitute("t", 1) == _large_schroder(8) == 41586


def test_sorted_signed_pfs_against_brute_force():
    for n in range(1, 5):
        brute = sorted(s for s in ch.signed_parking_functions(n)
                       if signed_stats(s)[1] == 0)
        direct = sorted(ch._sorted_signed_pfs(n))
        assert brute == direct


def test_minus_counts_read_signed_inversions():
    # the lemma of schroder_polynomials: a signed word has no signed
    # inversion exactly when it is nondecreasing with no negative letter
    # repeated, both ways, on every signing of every parking function; and
    # the streamed counts of a whole family are the counts word by word
    kinds = set()
    for n in range(5):
        expected = Counter()
        for v in ch.signed_parking_functions(n):
            m, sinv, _, _ = signed_stats(v)
            assert ch._minus_counts([v]) == {(sinv == 0, m): 1}, v
            expected[sinv == 0, m] += 1
            kinds.add(sinv == 0)
        assert ch._minus_counts(ch.signed_parking_functions(n)) == expected
    assert kinds == {True, False}


def test_inverted_sorted_word_fails_the_words_route(monkeypatch):
    # one sorted word reversed keeps its minus count, so only the inversion
    # test sees it, at every size up to the top of 8
    _plant_sorted_word_inverted(monkeypatch)
    for n in range(2, 9):
        with pytest.raises(AssertionError,
                           match=rf"^the three routes to P_{n}\(t\) disagree$"):
            ch.schroder_polynomials(n)


def test_count_route_q0_matches_path_route():
    for n in range(1, 6):
        sliced = ch.super_narayana_count(n).substitute("q", 0)
        assert sliced == ch.schroder_polynomials(n)


def test_narayana_from_pn():
    p3 = ch.schroder_polynomials(3)
    assert ch.narayana_from_pn(p3) == t ** 2 + 3 * t + 1
    # (t+1)((t+1)^2 + 3(t+1) + 1) reproduces P_3(t)
    c3 = ch.narayana_from_pn(p3)
    assert (1 + t) * c3.substitute("t", 1 + t) == p3


# -- the bar character ------------------------------------------------------------------


def test_bar_distribution():
    assert ch.bar_distribution(3) == 5 + 5 * t + t ** 2
    # no bars = nondecreasing parking functions
    for n in range(1, 6):
        coeffs = ch.bar_distribution(n).coeffs_in("t")
        assert coeffs[0].constant_value() == len(ndpfs(n))


def _chi(x):
    """The bar character as the library applies it: evaluate after the
    morphism to ribbons and the change to the S basis, with h_k = 1 + t."""
    return evaluate(R_to_S(hopf.istar_on_sqsym(x)), [1] + [1 + t] * 8)


def test_chi_values_and_checks():
    assert ch.chi_sqsym(3) is True
    chi_g3 = (1 + t) * ch.bar_distribution(3)
    assert chi_g3 == 5 + 10 * t + 6 * t ** 2 + t ** 3
    assert _chi(LinComb((q, 1) for q in quasi_ribbons(3))) == chi_g3
    assert _chi(LinComb.term(((1, 2, 3), (1, 2)))) == (1 + t) * t ** 2


def test_chi_is_bar_weight_on_every_quasi_ribbon():
    # the oracle (1+t) t^(bars) against the evaluation, key by key
    for n in range(1, 6):
        for q in quasi_ribbons(n):
            assert _chi(LinComb.term(q)) == (1 + t) * t ** len(q[1])


def test_chi_rejects_size_zero():
    # P_0 = 1 has no Narayana polynomial: t does not divide it
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            ch.chi_sqsym(n)


def test_chi_path_model():
    for n in range(1, 6):
        assert ch.chi_path_model_check(n)


def test_chi_character_checks_through_degree_five():
    for n in range(1, 6):
        assert ch.chi_sqsym(n) is True


# -- the binomial-element character --------------------------------------------------------


def test_pn_alpha_values():
    assert ch.pn_alpha(0) == 1  # the one empty parking function
    assert ch.pn_alpha(1) == a
    assert ch.pn_alpha(2) == 3 * a ** 2 + a
    assert ch.pn_alpha(3) == 16 * a ** 3 + 12 * a ** 2 + 2 * a
    assert ch.pn_alpha(4) == \
        125 * a ** 4 + 150 * a ** 3 + 55 * a ** 2 + 6 * a
    with pytest.raises(ValueError, match="n <= 12"):
        ch.pn_alpha(13)


def test_pn_alpha_is_the_binomial_character_on_g():
    # a second route to every size up to the top: n! times the character
    # h_k = (a)_k / k! on the commutative image of g_n
    for n in range(13):
        h = [rising_factorial(a, k).scale(Fraction(1, factorial(k)))
             for k in range(n + 1)]
        assert evaluate(g_partitions(n), h).scale(factorial(n)) == \
            ch.pn_alpha(n)


def _psi(x):
    """The binomial character as the library applies it: evaluate after
    morphism_psi, with h_k the rising factorial (a)_k."""
    return evaluate(hopf.morphism_psi(x),
                    [rising_factorial(a, k) for k in range(9)])


def test_psi_alpha_value():
    assert _psi(LinComb.term((1, 1))) == (a ** 2 + a).scale(Fraction(1, 2))


def test_psi_alpha_checks():
    for n in range(11):
        assert ch.psi_alpha(n) is True
    # its value half by the brute sum: n! psi_a of the sum of all parking
    # functions is P_n(a), and psi reads the sum over the NDPFs weighted by
    # their rearrangements as the same element
    for n in range(1, 7):
        brute = LinComb((w, 1) for w in parking_functions(n))
        assert _psi(brute).scale(factorial(n)) == ch.pn_alpha(n)
        weighted = LinComb((pi, factorial(n) // prod(
            map(factorial, Counter(pi).values()))) for pi in ndpfs(n))
        assert hopf.morphism_psi(brute) == hopf.morphism_psi(weighted)


def test_fixed_pair_counts_match_coefficients():
    for n in range(1, 5):
        counts = ch.fixed_pair_counts(n)
        coeffs = ch.pn_alpha(n).coeffs_in("a")
        for k in range(1, n + 1):
            assert counts.get(k, 0) == \
                coeffs.get(k, Poly()).constant_value()


def _fixed_pairs_brute(n):
    # the pairs (a, sigma) counted one by one: every permutation sigma of
    # every parking function a with a o sigma = a, keyed by its cycles
    counts = Counter()
    for w in parking_functions(n):
        for sigma in itertools.permutations(range(n)):
            if all(w[sigma[i]] == w[i] for i in range(n)):
                counts[ch._cycle_count(sigma)] += 1
    return counts


def test_fixed_pair_counts_to_their_top():
    # the ndpf classes, each weighted by its rearrangements, count the pairs
    # that the brute force over parking functions finds one by one up to 5,
    # and past it the coefficients of P_n(a) gate them to the top of 7
    for n in range(6):
        assert ch.fixed_pair_counts(n) == _fixed_pairs_brute(n)
    for n in (6, 7):
        counts = ch.fixed_pair_counts(n)
        assert ch.pn_alpha(n).coeff_row("a") == [counts[k]
                                                 for k in range(n + 1)]
    assert combinat.LIMITS["fixed_pair_counts"] == (0, 7)


def test_psi_alpha_coefficients_nonnegative_integers():
    for n in range(1, 7):
        for _, c in ch.pn_alpha(n).coeffs_in("a").items():
            value = c.constant_value()
            assert value == int(value) and value >= 0


# -- the q-triangle ---------------------------------------------------------------------------


def test_q_triangle_rows():
    rows = ch.q_triangle(5)
    assert rows[:4] == [[1], [2, 1], [6, 8, 2], [24, 58, 37, 6]]
    assert [r[0] for r in rows] == [factorial(n) for n in range(1, 6)]
    assert [rows[n][1] for n in range(1, 5)] == [1, 8, 58, 444]
    # the check of Q_n against P_n holds up to their top size, n = 12, and
    # the rows sum to Q_n(1) = (n+1)^(n-1)
    rows = ch.q_triangle(12)
    assert [sum(row) for row in rows] == [(n + 1) ** (n - 1)
                                          for n in range(1, 13)]


def test_qn_polynomial():
    assert ch.qn_polynomial(2) == q + 2
    for n in range(1, 13):
        assert ch.qn_polynomial(n).substitute("q", 1) == (n + 1) ** (n - 1)
    with pytest.raises(ValueError, match="n <= 12"):
        ch.qn_polynomial(13)


# -- the Narayana cross-check --------------------------------------------------------------------


def test_lassalle_narayana():
    assert ch.lassalle_narayana(1) == Poly.const(1)
    assert ch.lassalle_narayana(3) == q ** 2 + 3 * q + 1
    for n in range(1, 6):
        via_paths = ch.narayana_from_pn(ch.schroder_polynomials(n))
        assert ch.lassalle_narayana(n) == via_paths.substitute("t", q)
    # up to the top: the Narayana numbers C(n,k) C(n,k-1) / n, and Catalan
    # at q = 1
    for n in range(1, 13):
        cn = ch.lassalle_narayana(n)
        assert cn.coeff_row("q") == [comb(n, k) * comb(n, k - 1) // n
                                     for k in range(1, n + 1)]
        assert cn.substitute("q", 1) == comb(2 * n, n) // (n + 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            ch.lassalle_narayana(n)
    with pytest.raises(ValueError,
                       match="lassalle_narayana supports n <= 12, got 13"):
        ch.lassalle_narayana(13)


def test_narayana_vs_bar_distribution():
    # lassalle_narayana and the Narayana closed form
    # sum_p N(n, p) (1+t)^(p-1) both gate bar_distribution up to its top
    for n in range(1, 11):
        closed = sum((comb(n, p) * comb(n, p - 1) // n * (1 + t) ** (p - 1)
                      for p in range(1, n + 1)), Poly.const(0))
        assert ch.bar_distribution(n) == closed \
            == ch.lassalle_narayana(n).substitute("q", 1 + t)
    with pytest.raises(ValueError, match="n <= 10"):
        ch.bar_distribution(11)
