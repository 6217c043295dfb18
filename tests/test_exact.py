from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from parkhopf import hopf
from parkhopf.combinat import ndpfs
from parkhopf.exact import (_ZERO, VARS, LinComb, NotDivisibleError, Poly,
                            independent, monomial, pack, span_dimension,
                            unpack)

q, t, x, a = (Poly.var(v) for v in ("q", "t", "x", "a"))


def test_poly_ring_axioms():
    p1 = 2 + q + 3 * t
    p2 = x * q - t ** 2
    assert p1 + p2 - p2 == p1
    assert p1 * p2 == p2 * p1
    assert (p1 + p2) * p2 == p1 * p2 + p2 * p2
    assert p1 * Poly() == Poly()
    assert p1 ** 0 == Poly.const(1)


def test_poly_printing_canonical_form():
    p = Poly.const(2) + q + 3 * t + 3 * q * t + t ** 2 + 2 * q * t ** 2
    assert str(p) == "2 + q + 3t + 3qt + t^2 + 2qt^2"
    assert str(Poly()) == "0"
    assert str(q - 1) == "-1 + q"
    assert str(t.scale(Fraction(1, 2))) == "(1/2)t"


def test_substitute_and_coeffs():
    p = (1 + q) * t ** 2 + t
    assert p.substitute("t", x - 1) == (1 + q) * (x - 1) ** 2 + x - 1
    parts = p.coeffs_in("t")
    assert parts[2] == 1 + q and parts[1] == Poly.const(1)
    assert (3 * t ** 2 - 1).coeff_row("t") == [-1, 0, 3]
    assert Poly.const(5).coeff_row("q") == [5] and Poly().coeff_row("q") == []
    with pytest.raises(ValueError):
        p.coeff_row("t")
    assert Poly({monomial(t=2, q=1): 3}) == 3 * q * t ** 2


def test_poly_coefficients_are_int_when_integral():
    assert [type(c) for c in Poly.const(Fraction(4, 2)).terms.values()] == \
        [int]
    assert [type(c) for c in Poly.const(True).terms.values()] == [int]
    assert Poly.const(True) == Poly.const(1) == 1
    assert [type(c) for c in Poly.const(Fraction(1, 2)).terms.values()] == \
        [Fraction]
    # a halved coefficient that is not integral holds a Fraction, not a float
    half = Poly.var("q", 1, 3).scale(Fraction(1, 2))
    assert list(half.terms.values()) == [Fraction(3, 2)]
    assert type(half.terms[monomial(q=1)]) is Fraction
    # pairs of plain ints are stored as they are; a bool or an integral
    # Fraction among them becomes an int
    for pairs in ({monomial(q=1): 2, _ZERO: -1},
                  [(monomial(q=1), True), (_ZERO, 3), (_ZERO, -4)],
                  {monomial(t=2): Fraction(6, 3), monomial(q=1): 5},
                  {monomial(a=1): False, monomial(q=1): True}):
        assert all(type(c) is int for c in Poly(pairs).terms.values())
    assert Poly({_ZERO: True, monomial(q=1): 2}).terms == \
        {_ZERO: 1, monomial(q=1): 2}
    assert Poly({monomial(t=2): Fraction(6, 3)}).terms == {monomial(t=2): 2}
    assert Poly([(_ZERO, True), (_ZERO, -1)]).terms == {}
    assert [type(c) for c in Poly({_ZERO: 1, monomial(q=1): Fraction(
        1, 2)}).terms.values()] == [int, Fraction]
    with pytest.raises(TypeError):
        Poly({_ZERO: 1, monomial(q=1): 0.5})


def test_divided_by():
    assert (t ** 2 + 3 * t).divided_by("t") == t + 3
    assert (q * t - q ** 3 * x).divided_by("q") == t - q ** 2 * x
    assert a.scale(Fraction(1, 2)).divided_by("a") == Fraction(1, 2)
    assert Poly().divided_by("x") == Poly()
    with pytest.raises(NotDivisibleError,
                       match=r"^\(1 \+ t\) is not divisible by t$"):
        (1 + t).divided_by("t")
    with pytest.raises(NotDivisibleError):
        (q * t).divided_by("x")


def test_span_and_kernel_dimension():
    v = LinComb.term("e1", Fraction(1)) + LinComb.term("e2", Fraction(2))
    assert span_dimension([v, v.scale(2)]) == 1
    assert span_dimension([v, LinComb.term("e1")]) == 2
    assert span_dimension([]) == 0
    # zero vectors span nothing
    assert span_dimension([LinComb(), LinComb()]) == 0
    # rank is invariant under scaling and permutation
    w = LinComb.term("e2", Fraction(5))
    assert span_dimension([v, w]) == span_dimension([w.scale(3), v.scale(-2)])


def test_span_dimension_rejects_poly_coefficients():
    # the rank is taken over Q; polynomial entries are an unsupported type
    v1 = LinComb.term("k1", q) + LinComb.term("k2", q ** 2)
    v2 = LinComb.term("k1", 1) + LinComb.term("k2", q)
    for eliminate in (span_dimension, independent):
        with pytest.raises(TypeError):
            eliminate([v1, v2])
        with pytest.raises(TypeError):
            eliminate([LinComb.term("k1", 1), LinComb.term("k1", 1.5)])


def test_independent_keeps_the_first_of_each_dependency():
    v = LinComb.term("e1", Fraction(1, 2)) + LinComb.term("e2", 3)
    w = LinComb.term("e2", 1) + LinComb.term("e3", -1)
    zero = LinComb()
    vectors = [zero, v, v.scale(-4), w, v + w.scale(2), zero,
               LinComb.term("e1", 7)]
    kept = independent(vectors)
    # the kept vectors are the input objects themselves, in input order
    assert [id(k) for k in kept] == [id(vectors[i]) for i in (1, 3, 6)]
    assert independent([]) == [] and independent([zero, zero]) == []
    # of two parallel vectors the first is kept, whichever it is
    assert independent([v.scale(-4), v]) == [v.scale(-4)]


def test_independent_on_int_fraction_and_bool_rows():
    # the same rows given with int, integral Fraction and bool coefficients
    # keep the same vectors
    rows = [{"e1": 1, "e2": 1}, {"e2": 1, "e3": 1}, {"e1": 1, "e3": -1},
            {"e1": 1, "e2": 1}, {"e3": 2}, {"e1": 0, "e4": 1}]
    as_int = [LinComb(r) for r in rows]
    as_fraction = [LinComb((k, Fraction(c, 1)) for k, c in r.items())
                   for r in rows]
    kept = [[vectors.index(v) for v in independent(vectors)]
            for vectors in (as_int, as_fraction)]
    assert kept[0] == kept[1] == [0, 1, 4, 5]
    assert all(type(c) is int for v in as_int for c in v.terms.values())
    assert all(type(c) is Fraction
               for v in as_fraction for c in v.terms.values())
    bools = [{"e1": True, "e2": True}, {"e2": True, "e3": True},
             {"e1": True, "e3": True}, {"e2": True}]
    as_bool = [LinComb(r) for r in bools]
    assert all(type(c) is bool for v in as_bool for c in v.terms.values())
    for vectors in (as_bool, [LinComb((k, int(c)) for k, c in r.items())
                              for r in bools]):
        assert [vectors.index(v) for v in independent(vectors)] == [0, 1, 2]
    # one bool among ints is eliminated as 1
    mixed = [LinComb({"e1": 2, "e2": True}), LinComb({"e1": 4, "e2": 2})]
    assert independent(mixed) == mixed[:1]


def test_independent_rejects_one_bad_coefficient_in_an_int_row():
    for bad in (1.0, Poly.const(1), q):
        vectors = [LinComb({"e1": 1, "e2": 2}),
                   LinComb({"e1": 3, "e2": bad, "e3": 4})]
        with pytest.raises(TypeError):
            independent(vectors)


def _independent_by_first_appearance(vectors) -> list:
    """The elimination of `independent` with the columns numbered in order
    of first appearance, so the keys need no order: an oracle for which
    vectors are kept."""
    index, pivots, kept = {}, {}, []
    for v in vectors:
        row = {index.setdefault(k, len(index)): c
               for k, c in v.terms.items() if c}
        if not all(isinstance(c, (int, Fraction)) for c in row.values()):
            raise TypeError(f"not int or Fraction: {v!r}")
        d = lcm(*(c.denominator for c in row.values()))
        row = {i: c.numerator * (d // c.denominator) for i, c in row.items()}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                pivots[lead] = {c: x // g for c, x in row.items()}
                kept.append(v)
                break
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            new = {c: a * x for c, x in row.items()}
            for c, x in pivot.items():
                new[c] = new.get(c, 0) - b * x
            row = {c: x for c, x in new.items() if x}
    return kept


def _same_vectors_kept(vectors) -> bool:
    vectors = list(vectors)
    return [id(v) for v in independent(vectors)] == \
        [id(v) for v in _independent_by_first_appearance(vectors)]


def test_independent_keeps_the_first_appearance_vectors_on_kernel_input():
    # the coproduct rows of primitive_dimension, n <= 7
    for n in range(1, 8):
        assert _same_vectors_kept(
            hopf.dup_coproduct(LinComb.term(pi)) for pi in ndpfs(n))
    # the tridendriform products, each degree built on the kept bases
    ops = (hopf.wqsym_left, hopf.wqsym_right, hopf.wqsym_mid)
    bases = [[], [LinComb.term((1,))]]
    for m in range(2, 6):
        products = [op(u, v) for k in range(1, m) for u in bases[k]
                    for v in bases[m - k] for op in ops]
        assert _same_vectors_kept(products)
        bases.append(independent(products))


@given(st.lists(st.lists(st.tuples(st.integers(0, 5), st.fractions(
    min_value=-6, max_value=6, max_denominator=7)), max_size=6).map(LinComb),
    max_size=8))
def test_independent_keeps_the_first_appearance_vectors_on_fractions(vectors):
    vectors += [v.scale(Fraction(-3, 2)) for v in vectors[::2]]
    assert _same_vectors_kept(vectors)


def test_independent_rejects_what_first_appearance_rejects():
    for coeff in (1.5, Poly.var("q"), "1"):
        vectors = [LinComb.term("k1", 1), LinComb.term("k2", coeff)]
        for eliminate in (independent, _independent_by_first_appearance):
            with pytest.raises(TypeError):
                eliminate(vectors)


def _dense_rank(vectors) -> int:
    """Reference rank: dense Gaussian elimination over Fraction."""
    keys = sorted({k for v in vectors for k in v.terms})
    rows = [[Fraction(v.coeff(k)) for k in keys] for v in vectors]
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


_scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7))
_vectors = st.dictionaries(st.integers(0, 5), _scalars, max_size=6).map(
    LinComb)


@given(st.lists(_vectors, max_size=7), st.data())
def test_span_dimension_matches_dense_rank(vectors, data):
    # append repeated and rescaled copies of some of the vectors
    for v in list(vectors):
        pick = data.draw(st.sampled_from(("keep", "repeat", "scale")))
        if pick == "repeat":
            vectors.append(v)
        elif pick == "scale":
            vectors.append(v.scale(data.draw(_scalars.filter(bool))))
    rank = _dense_rank(vectors)
    assert span_dimension(vectors) == rank
    # the kept vectors alone have full rank
    kept = independent(vectors)
    assert len(kept) == rank == _dense_rank(kept)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5),
       st.lists(st.integers(-4, 4), min_size=1, max_size=5))
def test_poly_add_sub_roundtrip(c1, c2):
    p1 = sum((Poly.var("q", i + 1, c) for i, c in enumerate(c1)), Poly())
    p2 = sum((Poly.var("t", i + 1, c) for i, c in enumerate(c2)), Poly())
    assert p1 + p2 - p2 == p1
    assert (p1 * p2) == (p2 * p1)


# Small polynomials in q and t: (q exponent, t exponent, coefficient) terms
# over a 3 x 3 grid of exponents, so that random lists repeat exponents.
_coeffs = st.one_of(st.integers(-3, 3),
                    st.fractions(-3, 3, max_denominator=4))
_terms = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), _coeffs),
                  max_size=6)


def _term_sum(terms) -> Poly:
    """The polynomial of a term list, summed with + one term at a time."""
    total = Poly()
    for i, j, c in terms:
        total = total + Poly.var("q", i, c) * Poly.var("t", j)
    return total


_polys = _terms.map(_term_sum)


@given(_polys, _polys, _polys)
def test_poly_ring_laws(p1, p2, p3):
    assert p1 + p2 == p2 + p1
    assert p1 * p2 == p2 * p1
    assert (p1 + p2) + p3 == p1 + (p2 + p3)
    assert (p1 * p2) * p3 == p1 * (p2 * p3)
    assert p1 * (p2 + p3) == p1 * p2 + p1 * p3
    assert p1 - p1 == 0 and not (p1 - p1).terms


@given(_terms, st.data())
def test_poly_collects_pairs(terms, data):
    # repeat some terms and cancel others, then collect in one pass
    if terms:
        picked = data.draw(st.lists(st.sampled_from(terms), max_size=4))
        terms = terms + [(i, j, data.draw(st.sampled_from((c, -c))))
                         for i, j, c in picked]
    p = Poly((monomial(q=i, t=j), c) for i, j, c in terms)
    assert p == _term_sum(terms)
    assert all(type(c) is (int if c.denominator == 1 else Fraction) and c
               for c in p.terms.values())
    assert Poly(p.terms) == p
    # Poly.sum collects a list of polynomials like a +-fold, cancelling
    # terms included
    polys = [Poly.var("q", i, c) * Poly.var("t", j) for i, j, c in terms]
    assert Poly.sum(polys) == p
    assert Poly.sum(iter(polys + [-p])) == Poly()
    assert Poly.sum([p, p, -p]) == p
    assert not Poly.sum([]).terms


@given(_polys, st.sampled_from(VARS))
def test_divided_by_inverts_product(p, name):
    v = Poly.var(name)
    assert (p * v).divided_by(name) == p
    # the constant term 1 has no factor v
    with pytest.raises(NotDivisibleError):
        (p * v + 1).divided_by(name)


# -- packed polynomials ------------------------------------------------------


_edge = 1 << 15  # half a digit of width 16


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.sampled_from((-_edge, -_edge + 1, -1, 1,
                                           _edge - 2, _edge - 1))),
                max_size=12))
def test_pack_round_trips_to_the_edge_of_the_balanced_digit(terms):
    # coefficients from -2^15 to 2^15 - 1 fill a 16-bit digit, and a
    # negative one borrows from the digit above it
    p = Poly({monomial(q=i, x=j): c for i, j, c in terms})
    assert unpack(pack(p, (16, 4)), (16, 4)) == p
    # read at x = -t
    assert unpack(pack(p, (16, 4)), (16, 4), "q", "t", -1) == \
        p.substitute("x", -t)


def test_unpack_carries_into_the_digit_past_the_value_bits():
    # a top digit of 1 over a digit of -2^15 packs to an int just below
    # 2^239, 15 digits of bits, whose balanced digits, each raised by half,
    # carry into a 16th
    p = Poly({monomial(): -_edge, monomial(q=2, x=3): -_edge,
              monomial(q=3, x=3): 1})
    assert pack(p, (16, 4)).bit_length() == 239
    assert unpack(pack(p, (16, 4)), (16, 4)) == p


def test_pack_is_a_ring_map_and_past_the_edge_wraps():
    p, r = (1 - x * q) * (q ** 2 - 3), 2 - q * x ** 2
    frame = (8, 5)
    assert pack(p * r, frame) == pack(p, frame) * pack(r, frame)
    assert unpack(pack(p, frame) * pack(r, frame), frame) == p * r
    assert unpack(pack(p, frame) - pack(p, frame), frame) == Poly()
    # 2^7 is past the digit: it reads as -2^7 with a carry of 1
    assert unpack(pack(Poly.const(128), frame), frame) == q - 128
    assert unpack(pack(Poly.const(-128), frame), frame) == -128


def test_pack_rejects_what_the_frame_cannot_hold():
    for bad in (q ** 4, t, q.scale(Fraction(1, 2))):
        with pytest.raises(ValueError, match="does not pack"):
            pack(bad, (8, 4))
    with pytest.raises(ValueError, match="not a multiple of 8"):
        unpack(5, (12, 4))
