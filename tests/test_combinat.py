import collections
import functools
import gc
import itertools
import re
import time
from math import comb
from operator import le, lt

import pytest
from hypothesis import example, given, strategies as st

from parkhopf import chars, hopf, lagrange, operad
from parkhopf import combinat as cb

words = st.lists(st.integers(1, 8), min_size=0, max_size=6).map(tuple)


# -- oracles, also read by the other test modules --------------------------------


def is_packed(w) -> bool:
    letters = set(w)
    return letters == set(range(1, len(letters) + 1))


def is_permutation(w) -> bool:
    return sorted(w) == list(range(1, len(w) + 1))


def pack(w) -> tuple:
    """Relabel the occurring letters b_1 < ... < b_r to 1..r."""
    relabel = {b: i for i, b in enumerate(sorted(set(w)), start=1)}
    return tuple(relabel[v] for v in w)


def is_quasi_ribbon(q) -> bool:
    """True iff q = (word, bars) with word a nondecreasing parking function
    and bars increasing positions of its strict ascents."""
    word, bars = q
    return cb.is_ndpf(word) and all(map(lt, bars, bars[1:])) and all(
        0 < i < len(word) and word[i - 1] < word[i] for i in bars)


def text_to_ribbon(s: str) -> tuple:
    """The quasi-ribbon `combinat.ribbons_to_text` writes as s: letters
    split at commas if s holds one, else one digit each.  ValueError unless
    valid."""
    comma = "," in s
    word, bars = [], []
    for i, segment in enumerate(s.split("|")):
        if i:
            bars.append(len(word))
        word.extend(cb.comma_ints(segment) if comma else map(int, segment))
    q = tuple(word), tuple(bars)
    if not is_quasi_ribbon(q):
        raise ValueError(f"not a quasi-ribbon: {s!r}")
    return q


def _ribbon_text(q) -> str:
    return next(cb.ribbons_to_text([q]))


# -- predicates and closures ---------------------------------------------------


def test_is_parking():
    assert cb.is_parking((1, 1, 2, 4))
    assert cb.is_parking((1, 1, 3))
    assert cb.is_parking(())
    assert not cb.is_parking((2, 2))
    assert not cb.is_parking((0,))
    assert not cb.is_parking((1, -3))
    assert cb.is_ndpf((1, 1, 3))
    assert not cb.is_ndpf((0,))
    assert not cb.is_ndpf((-3, 1))


def _is_ndpf_by_generators(w):
    # is_ndpf as it was written before it used map(le, ...)
    return all(w[i] <= w[i + 1] for i in range(len(w) - 1)) and \
        all(1 <= v <= i for i, v in enumerate(w, start=1))


# letters <= 0 and above their position, half the lists sorted so that
# nondecreasing parking functions come up too
_letters = st.lists(st.integers(-1, 7), max_size=7)
_near_ndpf = st.one_of(_letters, _letters.map(sorted))


@given(_near_ndpf, st.booleans())
@example([], True)
@example([], False)
@example([0], True)
@example([1, 1, 0], False)
@example([1, 3], True)
@example([2], False)
def test_is_ndpf_matches_generator_definition(letters, as_tuple):
    w = tuple(letters) if as_tuple else letters
    assert cb.is_ndpf(w) == _is_ndpf_by_generators(w)


def test_parkize_examples():
    assert cb.parkize((1, 2)) == (1, 2)
    assert cb.parkize((3, 3, 4, 4, 4)) == (1, 1, 2, 2, 2)
    assert cb.parkize((1, 3)) == (1, 2)


def _parkize_oracle(w):
    """The closure by its definition: while the word is not parking, find
    the least i whose prefix count #{j : w_j <= i} falls short of i and
    decrement every letter above it."""
    n = len(w)
    while not cb.is_parking(w):
        d = next(i for i in range(1, n + 1)
                 if sum(1 for v in w if v <= i) < i)
        w = tuple(v - 1 if v > d else v for v in w)
    return w


def test_parkize_matches_the_deficit_loop():
    count = 0
    for n in range(6):
        for w in itertools.product(range(1, 8), repeat=n):
            assert cb.parkize(w) == _parkize_oracle(w), w
            count += 1
    assert count == 19608
    with pytest.raises(ValueError, match=">= 1"):
        cb.parkize((2, 0, 1))


@given(words)
def test_parkize_lands_on_parking_and_fixes_them(w):
    p = cb.parkize(w)
    assert cb.is_parking(p)
    assert cb.parkize(p) == p
    if cb.is_parking(w):
        assert p == w


def _std_oracle(w):
    """Unique permutation order-isomorphic to w with left-to-right ties."""
    matches = []
    for sigma in itertools.permutations(range(1, len(w) + 1)):
        ok = True
        for i in range(len(w)):
            for j in range(len(w)):
                lt = w[i] < w[j] or (w[i] == w[j] and i < j)
                if lt != (sigma[i] < sigma[j]):
                    ok = False
        if ok:
            matches.append(sigma)
    assert len(matches) == 1
    return matches[0]


def test_standardize_examples_against_oracle():
    for w in [(1, 3, 1), (1, 2, 3), (3, 1, 1), (2, 2, 2), (5, 1, 5, 2)]:
        assert cb.standardize(w) == _std_oracle(w)
    assert cb.standardize((1, 3, 1)) == (1, 3, 2)
    assert cb.standardize((3, 1, 1)) == (3, 1, 2)


@given(words)
def test_standardize_idempotent_order_isomorphic(w):
    s = cb.standardize(w)
    assert is_permutation(s)
    assert cb.standardize(s) == s
    for i in range(len(w)):
        for j in range(len(w)):
            assert (w[i] < w[j]) <= (s[i] < s[j])


def test_pack_and_evaluations():
    assert pack((2, 4, 4)) == (1, 2, 2)
    assert cb.evaluation((1, 1, 3)) == (2, 0, 1)
    assert cb.packed_evaluation((1, 2, 2)) == (1, 2)
    assert cb.evaluation(()) == ()


@given(words)
def test_pack_is_packed(w):
    assert is_packed(pack(w))


def test_shifted_concats():
    assert cb.shifted_concat_len((1, 2), (1, 1, 3)) == (1, 2, 3, 3, 5)
    assert cb.shifted_concat_len((), (1, 1)) == (1, 1)
    assert cb.shifted_concat_len((1,), (1,)) == (1, 2)
    assert cb.shifted_concat_max((1, 2), (1, 1, 3)) == (1, 2, 2, 2, 4)
    assert cb.shifted_concat_max((1,), (2, 2)) == (1, 2, 2)
    assert cb.shifted_concat_max((1, 1), (1, 2)) == (1, 1, 1, 2)
    with pytest.raises(ValueError):
        cb.shifted_concat_max((), (1,))


def test_shifted_shuffle():
    assert sorted(cb.shifted_shuffle((1,), (1,), 1)) == [(1, 2), (2, 1)]
    assert sorted(cb.shifted_shuffle((1,), (1,), 0)) == [(1, 1), (1, 1)]
    out = cb.shifted_shuffle((1, 2), (1, 1), 2)
    assert len(out) == comb(4, 2)


def _shuffle_oracle(a, b, shift):
    """The interleavings of a and b shifted by ``shift``, letter by letter,
    with a's positions in ``itertools.combinations`` order."""
    a = tuple(a)
    b = tuple(v + shift for v in b)
    n, m = len(a), len(b)
    out = []
    for positions in itertools.combinations(range(n + m), n):
        posset = set(positions)
        word = []
        ia = ib = 0
        for i in range(n + m):
            if i in posset:
                word.append(a[ia])
                ia += 1
            else:
                word.append(b[ib])
                ib += 1
        out.append(tuple(word))
    return out


def test_shifted_shuffle_against_oracle():
    # the same list, order included, for every pair of words over 1..3 of
    # at most 4 letters, at each shift the library uses, and with b given
    # as a generator
    small = [w for k in range(5) for w in itertools.product(range(1, 4),
                                                             repeat=k)]
    for a in small:
        for shift in {0, len(a), max(a, default=1) - 1}:
            for b in small:
                expected = _shuffle_oracle(a, b, shift)
                assert cb.shifted_shuffle(a, b, shift) == expected
                assert cb.shifted_shuffle(iter(a), (v for v in b),
                                          shift) == expected


@given(st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple),
       st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple))
def test_shuffle_multiset_size(u, v):
    assert len(cb.shifted_shuffle(u, v, len(u))) == comb(len(u) + len(v), len(u))


# -- quasi-ribbons --------------------------------------------------------------


def test_hypoplactic_examples():
    q1 = cb.hypoplactic_quasi_ribbon((1, 3, 1))
    q2 = cb.hypoplactic_quasi_ribbon((3, 1, 1))
    assert q1 == q2 == ((1, 1, 3), (2,))
    assert _ribbon_text(q1) == "11|3"
    assert cb.hypoplactic_quasi_ribbon((1, 1, 3)) == ((1, 1, 3), ())
    classes = {cb.hypoplactic_quasi_ribbon(w) for w in cb.parking_functions(3)}
    assert len(classes) == 11


def test_quasi_ribbon_invariant_never_violated():
    # recoil positions of std(a) always sit at strict ascents of sorted(a)
    for n in range(7):
        for w in cb.parking_functions(n):
            assert is_quasi_ribbon(cb.hypoplactic_quasi_ribbon(w))


def test_quasi_ribbon_validation_and_text():
    assert is_quasi_ribbon(((1, 1, 3), (2,)))
    assert is_quasi_ribbon(((), ()))
    assert not is_quasi_ribbon(((1, 1, 3), (1,)))  # not a strict ascent
    assert not is_quasi_ribbon(((2, 2), ()))  # not a parking word
    assert not is_quasi_ribbon(((1, 2, 3), (2, 1)))  # bars out of order
    assert not is_quasi_ribbon(((1, 2, 3), (1, 1)))  # a repeated bar
    for word in [(0,), (1, 3), (2, 1), (1, 1, 0)]:
        assert not is_quasi_ribbon((word, ()))
    for bar in [0, 1, 3, -1]:  # outside the word or at a tie
        assert not is_quasi_ribbon(((1, 1, 2), (bar,)))
    for text in ["1|13", "22", "0", "1|", "|1", "1||2", "12|", "1a", "-1"]:
        with pytest.raises(ValueError, match="not a quasi-ribbon|invalid"):
            text_to_ribbon(text)
    q = text_to_ribbon("1|2|3")
    assert q == ((1, 2, 3), (1, 2))
    assert text_to_ribbon(_ribbon_text(q)) == q
    assert cb.shape(q) == (1, 1, 1)
    assert cb.shape(((1, 1, 3), (2,))) == (2, 1)
    big = (tuple(range(1, 12)), (10,))
    assert _ribbon_text(big) == "1,2,3,4,5,6,7,8,9,10|11"
    assert text_to_ribbon(_ribbon_text(big)) == big


def _segment_text(q):
    """The text of a quasi-ribbon formatted segment by segment, letter by
    letter, with commas once a letter reaches 10."""
    word, bars = q
    cuts = [0, *bars, len(word)]
    segments = [word[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]
    sep = "," if any(v >= 10 for v in word) else ""
    return "|".join(sep.join(str(v) for v in s) for s in segments)


def test_quasi_ribbon_text_matches_segment_formula():
    ribbons = [q for n in range(8) for q in cb.quasi_ribbons(n)]
    ribbons.append(((1, 1, 3, 4, 5, 6, 7, 8, 9, 10, 10), (2, 9)))
    texts = list(map(_segment_text, ribbons))
    assert list(cb.ribbons_to_text(ribbons)) == texts
    for q, text in zip(ribbons, texts):
        assert _ribbon_text(q) == text
        assert text_to_ribbon(text) == q
    assert texts[-1] == "1,1|3,4,5,6,7,8,9|10,10"


@given(_near_ndpf, st.sets(st.integers(0, 8), max_size=3), st.booleans())
@example([1, 1, 2], {1}, False)
@example([1, 2], {1}, True)
@example([1, 2], {2}, False)
def test_quasi_ribbon_accepts_exactly_the_valid_pairs(letters, bars, commas):
    # a bar at i is a "|" before letter i + 1, or at the end for i >= the
    # length; letters are joined by commas, or run together as digits
    sep = "," if commas else ""
    segments = [letters[a:b] for a, b in zip([0, *sorted(bars)],
                                             [*sorted(bars), len(letters)])]
    text = "|".join(sep.join(map(str, s)) for s in segments)
    valid = _is_ndpf_by_generators(letters) and all(
        1 <= i < len(letters) and letters[i - 1] < letters[i] for i in bars)
    if valid:
        assert text_to_ribbon(text) == (tuple(letters),
                                           tuple(sorted(bars)))
    else:
        with pytest.raises(ValueError):
            text_to_ribbon(text)


# -- compositions ----------------------------------------------------------------


def test_composition_ops():
    assert cb.comp_concat((2,), (1, 1)) == (2, 1, 1)
    assert cb.comp_near_concat((2,), (1, 1)) == (3, 1)
    assert cb.comp_conjugate((1, 1, 1, 1)) == (4,)
    assert cb.comp_conjugate(()) == ()
    assert cb.coarser_leq((2, 1), (1, 1, 1))
    assert not cb.coarser_leq((1, 2), (2, 1))
    with pytest.raises(ValueError):
        cb.comp_near_concat((), (1,))


def _coarsenings_oracle(j):
    """All I <= J by explicitly summing consecutive blocks of J."""
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


def test_coarser_leq_against_block_oracle():
    for n in range(7):
        for j in cb.compositions(n):
            coarser = _coarsenings_oracle(j)
            for i in cb.compositions(n):
                assert cb.coarser_leq(i, j) == (i in coarser)


def test_conjugate_is_involution_and_flips_order():
    for n in range(1, 8):
        for i in cb.compositions(n):
            assert cb.comp_conjugate(cb.comp_conjugate(i)) == i
    assert cb.comp_conjugate((2, 1, 1)) == (3, 1)
    assert cb.comp_conjugate((1, 2, 1)) == (2, 2)


# -- trees and canopy --------------------------------------------------------------


def test_tree_text_roundtrip():
    for n in range(6):
        for t in cb.binary_trees(n):
            assert cb.tree_parse(cb.tree_to_text(t)) == t
    assert cb.tree_to_text((None, None)) == "(.,.)"


def test_tree_mirror_reads_the_text_backwards():
    # the text of the mirror is the text reversed, brackets swapped, at
    # every size from the empty tree on
    swap = str.maketrans("()", ")(")
    for n in range(7):
        for t in cb.binary_trees(n):
            assert cb.tree_to_text(cb.tree_mirror(t)) == \
                cb.tree_to_text(t)[::-1].translate(swap)


def test_canopy():
    assert cb.canopy((None, None)) == ""
    left_comb = (((None, None), None), None)
    right_comb = (None, (None, (None, None)))
    assert cb.canopy(left_comb) != cb.canopy(right_comb)
    assert len(cb.canopy(left_comb)) == 2
    # partition of 4-node trees by canopy has 8 blocks
    blocks = {cb.canopy(t) for t in cb.binary_trees(4)}
    assert len(blocks) == 8


# -- enumerators -------------------------------------------------------------------


def test_enumeration_counts():
    assert [len(cb.ndpfs(n)) for n in range(1, 9)] == \
        [1, 2, 5, 14, 42, 132, 429, 1430]
    assert [len(cb.parking_functions(n)) for n in range(1, 8)] == \
        [(n + 1) ** (n - 1) for n in range(1, 8)]
    assert [len(cb.quasi_ribbons(n)) for n in range(1, 9)] == \
        [1, 3, 11, 45, 197, 903, 4279, 20793]
    assert [len(cb.packed_words(n)) for n in range(1, 9)] == \
        [1, 3, 13, 75, 541, 4683, 47293, 545835]
    assert len(cb.compositions(5)) == 16
    assert len(cb.binary_trees(5)) == 42


def test_enumerations_are_sorted_and_duplicate_free():
    for n in range(6):
        for family in (cb.parking_functions, cb.ndpfs, cb.packed_words,
                       cb.permutations, cb.compositions, cb.quasi_ribbons):
            items = family(n)
            assert list(items) == sorted(set(items))


def test_quasi_ribbon_stream_matches_sorted_build():
    # every (ndpf, subset of its strict ascents), sorted as a whole
    for n in range(9):
        built = sorted(
            (pi, bars) for pi in cb.ndpfs(n)
            for r in range(n + 1) for bars in itertools.combinations(
                [i for i in range(1, n) if pi[i - 1] < pi[i]], r))
        stream = list(cb.iter_quasi_ribbons(n))
        assert stream == built
        assert all(map(is_quasi_ribbon, stream))


def _parking_by_brute_force(n):
    # every word on 1..n whose sorted letters satisfy a_(i) <= i
    return [w for w in itertools.product(range(1, n + 1), repeat=n)
            if all(v <= i for i, v in enumerate(sorted(w), 1))]


def _packed_by_brute_force(n):
    return [w for w in itertools.product(range(1, n + 1), repeat=n)
            if set(w) == set(range(1, max(w, default=0) + 1))]


def test_parking_stream_matches_brute_force():
    for n in range(7):
        assert list(cb.iter_parking_functions(n)) == _parking_by_brute_force(n)
    for n in range(6):
        assert list(cb.iter_packed_words(n)) == _packed_by_brute_force(n)


def test_streams_match_cached_tuples():
    for n in range(8):
        assert tuple(cb.iter_ndpfs(n)) == cb.ndpfs(n)
        assert tuple(cb.iter_parking_functions(n)) == cb.parking_functions(n)
        assert tuple(cb.iter_packed_words(n)) == cb.packed_words(n)


def _trees_by_recursion(n):
    # every (left, right) with k and n - 1 - k nodes, k increasing
    if n == 0:
        return [None]
    return [(left, right) for k in range(n) for left in _trees_by_recursion(k)
            for right in _trees_by_recursion(n - 1 - k)]


def test_tree_stream_matches_recursive_build():
    for n in range(9):
        assert list(cb.iter_binary_trees(n)) == _trees_by_recursion(n)
        assert cb.binary_trees(n) == tuple(_trees_by_recursion(n))


def test_enumeration_cap():
    with pytest.raises(ValueError):
        cb.ndpfs(13)
    # the streams check their size when called, before the first item
    for stream in (cb.iter_ndpfs, cb.iter_parking_functions,
                   cb.iter_packed_words, cb.iter_permutations,
                   cb.iter_quasi_ribbons, cb.iter_binary_trees):
        with pytest.raises(ValueError):
            stream(13)


# each row of LIMITS: its (low, top), and a call of the function it bounds
# at size n
_BOUNDED = {
    "super_narayana_count": ((0, 8), chars.super_narayana_count),
    "super_narayana_sym": ((0, 12), chars.super_narayana_sym),
    "s_character_check": ((0, 4), chars.s_character_check),
    # the size of a signed weight is its word's length, never negative
    "fsigma_signed_weight": ((None, 23), lambda n: chars.fsigma_signed_weight(
        tuple(range(n, 0, -1)))),
    "schroder_polynomials": ((0, 8), chars.schroder_polynomials),
    "bar_distribution": ((0, 10), chars.bar_distribution),
    "chi_sqsym": ((1, 7), chars.chi_sqsym),
    "pn_alpha": ((0, 12), chars.pn_alpha),
    "fixed_pair_counts": ((0, 5), chars.fixed_pair_counts),
    "psi_alpha": ((0, 10), chars.psi_alpha),
    "qn_polynomial": ((0, 12), chars.qn_polynomial),
    # no low: q_triangle and the solvers give [] at a negative size
    "q_triangle": ((None, 12), chars.q_triangle),
    "lassalle_narayana": ((1, 12), chars.lassalle_narayana),
    "solve_g": ((None, 8), lagrange.solve_g),
    "solve_f": ((None, 8), lagrange.solve_f),
    "solve_G_cqsym": ((None, 8), lagrange.solve_G_cqsym),
    "solve_X_fqsym": ((None, 8), lagrange.solve_X_fqsym),
    "tamari_poset": ((0, 7), lagrange.tamari_poset),
    "tamari_intervals": ((0, 7), lagrange.tamari_intervals),
    # all_eval_trees and normal_forms are generators, which check their size
    # at their first item
    "all_eval_trees": ((1, 13), lambda n: next(operad.all_eval_trees("dup",
                                                                       n))),
    "normal_forms": ((1, None), lambda n: next(operad.normal_forms("tri", n))),
    "count_normal_forms(tri)": ((1, 8), lambda n: operad.count_normal_forms(
        "tri", n)),
    "count_normal_forms(dup)": ((1, 10), lambda n: operad.count_normal_forms(
        "dup", n)),
    "tridendriform_span_dimension": ((1, 7),
                                     operad.tridendriform_span_dimension),
    "primitive_dimension": ((0, 9), hopf.primitive_dimension),
    "enumeration": ((0, 12), cb.iter_ndpfs),
    "paths": ((0, None), chars.dyck_paths),
}


def test_limits_table():
    assert cb.LIMITS == {name: ends for name, (ends, _) in _BOUNDED.items()}


@pytest.mark.parametrize("name", sorted(
    name for name, ((_, top), _) in _BOUNDED.items() if top is not None))
def test_size_past_its_limit_is_rejected_at_once(name):
    # the function checks its row before any work, so a size one past the
    # top fails fast with the row's name
    (_, top), call = _BOUNDED[name]
    assert cb.LIMITS[name][1] == top
    start = time.monotonic()
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} supports "
                                         rf"n <= {top}, got {top + 1}$"):
        call(top + 1)
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("name", sorted(
    name for name, ((low, _), _) in _BOUNDED.items() if low is not None))
def test_size_below_its_limit_is_rejected_at_once(name):
    # the same guard rejects a size one below the low, with the row's name
    (low, _), call = _BOUNDED[name]
    assert cb.LIMITS[name][0] == low
    start = time.monotonic()
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} needs "
                                         rf"n >= {low}, got {low - 1}$"):
        call(low - 1)
    assert time.monotonic() - start < 1


def test_word_streams_are_lazy():
    # there are 13^11 parking functions of size 12: the first comes at once
    # only if the walk does not build the family first
    for stream in (cb.iter_parking_functions, cb.iter_ndpfs,
                   cb.iter_packed_words):
        assert next(iter(stream(12))) == (1,) * 12
    assert next(cb.iter_permutations(12)) == tuple(range(1, 13))


def test_walkers_leave_no_reference_cycles():
    # the walks keep their caches in arguments, not in closures that refer
    # to themselves, so a drained stream frees them by reference counting
    # and the collector finds nothing
    gc.collect()
    gc.disable()
    try:
        for stream in (cb.iter_ndpfs(6), cb.iter_parking_functions(5),
                       cb.word_texts("pf", 5), chars.schroder_paths(4)):
            collections.deque(stream, maxlen=0)
        for t in cb.binary_trees(5):
            cb.canopy(t)
        collections.deque(operad.all_eval_trees("tri", 4), maxlen=0)
        operad.confluence_check("dup", 4)
        lagrange.tamari_poset.__wrapped__(4)
        cb.tree_parse("((.,.),.)")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_quasi_ribbon_list_n3_matches_known_list():
    expected = {"111", "112", "11|2", "113", "11|3", "122", "1|22",
                "123", "1|23", "12|3", "1|2|3"}
    assert set(cb.ribbons_to_text(cb.quasi_ribbons(3))) == expected


def test_word_text_roundtrip():
    assert cb.word_to_text((1, 10, 2)) == "1,10,2"
    assert cb.word_to_text((1, 2, 3)) == "123"
    assert cb.word_to_text(()) == ""
    assert cb.word_to_text((0, 9)) == "09"
    assert cb.word_to_text((-1, 2)) == "-12"
    assert cb.text_to_word("1,10,2") == (1, 10, 2)
    assert cb.text_to_word("123") == (1, 2, 3)
    assert cb.text_to_word("") == ()
    # an empty comma field is an error, not a skipped letter
    for text in [",,,", "1,,2", "1,2,", ",1"]:
        with pytest.raises(ValueError, match="empty field"):
            cb.text_to_word(text)
    for text in ["1,,2|3", "1,2|", "1,|2"]:
        with pytest.raises(ValueError, match="empty field"):
            text_to_ribbon(text)


def _word_texts_agree(family, n, words, runs=None):
    # each text is one whole run: the texts word_to_text gives the next
    # words of the sorted oracle stream, joined by newlines, the first and
    # the last (so all) of which share all but their last letters, as many
    # as the family's tail length, a prefix the run before did not have
    words = iter(words)
    cut = max(n - cb._WORD_FAMILIES[family][2], 0)
    last = None
    for text in itertools.islice(cb.word_texts(family, n), runs):
        run = list(itertools.islice(words, text.count("\n") + 1))
        assert text == "\n".join(map(cb.word_to_text, run))
        assert run[0][:cut] == run[-1][:cut] != last
        last = run[0][:cut]
    if runs is None:
        assert next(words, None) is None


def test_word_texts_matches_word_to_text():
    # ndpfs of 10 to 12 letters end in runs that mix digit and comma words,
    # after a prefix of digits
    for n in (10, 11, 12):
        _word_texts_agree("ndpf", n, cb.iter_ndpfs(n))
    # permutations of 10 letters are comma words only, the prefix holding
    # the letter 10 from the sixth run on
    _word_texts_agree("perm", 10, itertools.permutations(range(1, 11)), 900)


def test_word_texts_on_every_family():
    for n in range(9):
        _word_texts_agree("ndpf", n, cb.iter_ndpfs(n))
        # the 4,782,969 parking functions of size 8 (26,244 runs) cost
        # seconds of word_to_text, so size 8 reads its first 3,000 runs
        _word_texts_agree("pf", n, cb.iter_parking_functions(n),
                          3000 if n == 8 else None)
        _word_texts_agree("packed", n, cb.iter_packed_words(n))
        _word_texts_agree("perm", n, itertools.permutations(range(1, n + 1)))
    # the size is checked when called, before the first text
    for n in (-1, 13):
        with pytest.raises(ValueError):
            cb.word_texts("pf", n)


def test_comma_lines_rewrites_digit_lines():
    assert cb._comma_lines("") == ""
    assert cb._comma_lines("7") == "7"
    assert cb._comma_lines("123") == "1,2,3"
    assert cb._comma_lines("12\n345\n6\n78") == "1,2\n3,4,5\n6\n7,8"


def test_tail_blocks_straddling_9_and_10():
    # the ndpf state (8, 10): a nondecreasing tail from 8 whose i-th letter
    # is at most 9 + i, so its tails hold digit and comma words, in turn
    state, r = (8, 10), 3
    tails = [t for t in itertools.product(range(8, 13), repeat=r)
             if all(map(le, t, t[1:])) and all(v <= 9 + i
                                              for i, v in enumerate(t, 1))]
    block = functools.partial(cb._tail_blocks, {},
                              functools.cache(cb._ndpf_moves))
    segments = block(state, r, False)
    # the segments alternate, cut where the tails' format changes
    assert [wide for wide, _ in segments] == [
        wide for wide, _ in itertools.groupby(tails, key=lambda t: max(t) > 9)]
    assert len(segments) > 2
    lines = "\n".join(text for _, text in segments).split("\n")
    assert lines == [cb.word_to_text(t) for t in tails]
    # the digit segments rewritten with commas, and the block after a
    # prefix holding 10, all comma words
    for wide, text in segments:
        if not wide:
            assert cb._comma_lines(text).split("\n") == [
                cb.word_to_text((10,) + cb.text_to_word(line))[3:]
                for line in text.split("\n")]
    ((wide, text),) = block(state, r, True)
    assert wide
    assert ["10," + line for line in text.split("\n")] == [
        cb.word_to_text((10,) + t) for t in tails]


def test_permutations_match_itertools():
    for n in range(9):
        assert cb.permutations(n) == tuple(cb.iter_permutations(n)) \
            == tuple(itertools.permutations(range(1, n + 1)))
