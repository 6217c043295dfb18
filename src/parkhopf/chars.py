"""Characters and their combinatorial payloads.

The generating functions of the paper are characters evaluated on the
generic solution g_n of g = sum_k S_k g^k, read through its commutative
image, one term per partition of n (`lagrange.g_partitions`): `evaluate` on
the character's h_k gives the binomial element (`psi_alpha`), the alphabet
1 - x (`lassalle_narayana`, gated by `lagrange.lagrange_coefficient`) and
h_k = 1 + t (`schroder_polynomials`); the alphabet (1-x)/(1-q), whose h_k
are not polynomials, goes by the q-binomial theorem (`super_narayana_sym`),
summed as one packed int (`exact.pack`) and unpacked once.
On the algebras, the characters are `evaluate` after a morphism of `hopf`:
psi after `morphism_psi`, chi after `istar_on_sqsym` and `symfun.R_to_S`.
Each has a second, combinatorial route: signed parking functions and their
statistics, Dyck and Schroeder path encodings, the bars of quasi-ribbons,
fixed pairs of parking functions, and the q-analogue triangle of
(n+1)^(n-1).  The statistics of signed words come from a walk over the
signings of a word, one `_signing_step` per letter, which holds sinv and
smaj of all signings in the byte lanes of two ints; a parking function has
the statistics of its standardization, so `super_narayana_count` walks the
tree of prefixes of the permutations, each distinct prefix stepped once,
and weights each permutation by the number of parking functions that
standardize to it, counted from its recoil set.  The words route of
`schroder_polynomials` reads no statistic, since a word has no signed
inversion exactly when it is nondecreasing with no negative letter
repeated.  A value raises AssertionError when its routes disagree; a check
returns a bool.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache, reduce
from math import factorial, prod
from operator import add, eq, gt, methodcaller, mul, ne

from . import hopf
from .combinat import (LIMITS, _check_size, iter_parking_functions,
                       iter_permutations, iter_quasi_ribbons, ndpfs,
                       parking_functions, permutations, quasi_ribbons,
                       shifted_shuffle, word_texts)
from .exact import P_ONE, LinComb, Poly, monomial, pack, unpack
from .lagrange import g_partitions, lagrange_coefficient
from .symfun import R_to_S, evaluate, ribbon_product, rising_factorial


# -- signed words --------------------------------------------------------------
#
# A signed word is a tuple of nonzero ints: the letter x signed - (the barred
# letter) is -x.  It is a signed parking function when the absolute values
# form a parking function.  The signed statistics compare letters in the
# integer order, so -4 < -1 < 1 < 2.


def signed_to_text(v) -> str:
    """The letters joined by commas, a barred letter x written as -x."""
    return ",".join(map(str, v))


def _signings(word):
    """The 2^len(word) signed words on the letters of a parking word."""
    return itertools.product(*((-x, x) for x in word))


def signed_parking_functions(n: int):
    """All signed parking functions of length n, 2^n (n+1)^(n-1) of them:
    the signings of each parking function in turn."""
    return itertools.chain.from_iterable(
        map(_signings, iter_parking_functions(n)))


# The statistics of all signings of a word are kept in byte lanes: byte k
# of an int holds the statistic of signing k, the signing whose set of
# barred letters is the bit set k (bit i set: letter i is -).  Both sinv and
# smaj of a word of n letters are at most C(n, 2), below 256 up to n = 23,
# the top of the row "fsigma_signed_weight" of `combinat.LIMITS`.


@cache
def _sinv_increments(j: int, above: int) -> int:
    """The lanes of what letter j adds to sinv, given the bit set ``above``
    of the earlier letters greater than it.

    In column k, +x is beaten by the earlier letters above it that are not
    barred, and -x by the earlier letters signed + and the barred ones not
    above it; with p the number of barred letters above x, these are
    |above| - p and j - p."""
    barred_above = [(k & above).bit_count() for k in range(1 << j)]
    n_above = above.bit_count()
    return int.from_bytes(bytes([n_above - p for p in barred_above]
                                + [j - p for p in barred_above]), "little")


@cache
def _smaj_increments(j: int, last_above: bool) -> int:
    """The lanes of what letter j adds to smaj: j in the columns where the
    letter before it beats it.  That letter is + in the first half of the
    columns and - in the second.  It beats +x when it is + and above x,
    and beats -x when it is + or is - and not above x."""
    if not j:
        return 0
    half = [j] * (1 << (j - 1))
    none = [0] * len(half)
    lanes = ((half if last_above else none) + none + half
             + (none if last_above else half))
    return int.from_bytes(bytes(lanes), "little")


# the state of the signings of the empty word: its letters, the bit of each
# letter, and the sinv and smaj lanes of its one signing
_NO_SIGNING = ((), (), 0, 0)


def _signing_step(state, x):
    """The state of the signings of a word followed by the letter x, from
    the state of the word's signings (`_NO_SIGNING` for the empty word).

    Letter j enters as +x or -x, which doubles the columns: +x keeps column
    k and -x makes column k + 2^j.  The new value adds to sinv the number of
    earlier values that beat it, and adds j to smaj when the value just
    before it beats it, where a beats b when a > b, or a == b and both are
    negative.  So a statistic becomes ``stat * (1 + 2^(8*2^j))`` plus its
    increments, cached per (j, the earlier letters above x) for sinv and
    per (j, whether the last letter is above x) for smaj.  A state is never
    changed, so the words that share a prefix can share its state.
    """
    word, bits, sinv, smaj = state
    j = len(word)
    spread = 1 + (1 << (8 << j))  # copies the 2^j lanes into the next 2^j
    above = sum(itertools.compress(bits, map(x.__lt__, word)))
    return (word + (x,), bits + (1 << j,),
            sinv * spread + _sinv_increments(j, above),
            smaj * spread + _smaj_increments(j, j > 0 and word[-1] > x))


def _signing_stats(word):
    """(minus count, sinv, smaj) of each of the 2^len(word) signings of a
    word, by one `_signing_step` per letter, the lanes read as bytes."""
    *_, sinv, smaj = reduce(_signing_step, word, _NO_SIGNING)
    size = 1 << len(word)
    return zip(map(int.bit_count, range(size)), sinv.to_bytes(size, "little"),
               smaj.to_bytes(size, "little"))


# -- super-Narayana polynomials --------------------------------------------------


@cache
def _qpascal_row(n: int) -> tuple:
    """Row n of the q-Pascal table, ([n; 0]_q, ..., [n; n]_q), iterated from
    row 0 by [n; k] = [n-1; k-1] + q^k [n-1; k].  The rows are built here
    and never read through `_qbinom` or the module, so a fault patched into
    `_qbinom` cannot reach this cache."""
    row = (P_ONE,)
    for _ in range(n):
        row = (P_ONE, *(row[k - 1] + row[k] * Poly.var("q", k)
                        for k in range(1, len(row))), P_ONE)
    return row


def _qbinom(n: int, k: int) -> Poly:
    """The q-binomial [n; k]_q, 0 <= k <= n, from the q-Pascal table."""
    return _qpascal_row(n)[k]


@cache
def _standardizing(n: int, recoils: int) -> int:
    """The number of parking functions of length n that standardize to a
    permutation with the recoil set ``recoils`` (bit i set: i + 1 comes
    before i).

    Such a parking function gives the letter at the place of i the value
    b_i, with b_1 <= ... <= b_n, since standardizing breaks ties left to
    right, and b_i < b_(i+1) at each recoil i; it parks iff b_i <= i.  So
    the count is that of the nondecreasing b_1..b_n with 1 <= b_i <= i,
    strict at the recoils, taken by b_i one value at a time.
    """
    ways = [1]  # ways[v - 1]: the choices of b_1..b_i with b_i = v
    for i in range(1, n):
        below = list(itertools.accumulate(ways))
        ways = [0] + below if recoils >> i & 1 else below + below[-1:]
    return sum(ways)


def super_narayana_count(n: int) -> Poly:
    """Sum of t^(minus) q^(sinv) over all signed parking functions of length n.

    A beats b when a > b, or a == b and both are negative: this is the order
    of the standardized letters, ties broken left to right, so the signings
    of a parking function have the statistics of the signings of its
    standardization, lane by lane.  The permutations are walked in order
    down a stack of prefix frames: a permutation pops the frames past the
    prefix it shares with the one before it and takes one `_signing_step`
    per letter after that prefix, so each distinct prefix is stepped once.
    A frame also holds the letters of its prefix and the recoils among them
    as bits, and the joint (minus, sinv, smaj) key of each lane of each
    permutation goes straight into the `Counter` of its weight, the number
    of parking functions that standardize to it, which depends only on its
    recoil set (`_standardizing`).  The distributions of sinv and of smaj
    are both read off the weighted joint counts, and their equality is
    asserted, as is smaj = maj of the permutation in the signing with no
    bar.
    """
    _check_size("super_narayana_count", n)
    size = 1 << n
    # the joint key of a lane is the native int of the four bytes smaj,
    # sinv, minus count and 0, read from one buffer whose minus bytes are
    # written once; the keys of a permutation are counted straight from it
    joint = bytearray(4 * size)
    joint[2::4] = bytes(map(int.bit_count, range(size)))
    keys = memoryview(joint).cast("I")
    descents = range(1, n)
    # the permutations of each weight share one Counter, which counts the
    # stream of their joint keys in C; the distinct keys are then weighted,
    # and both distributions read off them
    by_weight = defaultdict(Counter)
    # a frame: the signing state of a prefix, its letters as bits (bit 0
    # set, as if a letter 0 came first, so that the letter 1 makes no
    # recoil) and its recoils as bits: placing x makes x a recoil if x + 1
    # came before, and x - 1 one if it did not
    frames, last = [(_NO_SIGNING, 1, 0)], ()
    for word in iter_permutations(n):
        shared = next(itertools.compress(itertools.count(),
                                         map(ne, word, last)), 0)
        del frames[shared + 1:]
        for x in word[shared:]:
            state, used, recoils = frames[-1]
            frames.append((_signing_step(state, x), used | 1 << x,
                           recoils | used >> 1 & 1 << x
                           | ~used & 1 << (x - 1)))
        (*_, sinv, smaj), _, recoils = frames[-1]
        # lane 0 is the signing with no bar, where smaj is the major index
        if smaj & 255 != sum(itertools.compress(descents,
                                                 map(gt, word, word[1:]))):
            raise AssertionError(f"smaj of {word} unbarred is not its maj")
        joint[0::4] = smaj.to_bytes(size, "little")
        joint[1::4] = sinv.to_bytes(size, "little")
        by_weight[_standardizing(n, recoils)].update(keys)
        last = word
    weighted = Counter()
    for weight, counts in by_weight.items():
        for key, c in counts.items():
            weighted[key] += weight * c
    by_sinv, by_smaj = Counter(), Counter()
    for key, c in weighted.items():
        smaj, sinv, m, _ = key.to_bytes(4, sys.byteorder)
        by_sinv[m, sinv] += c
        by_smaj[m, smaj] += c
    if by_sinv != by_smaj:
        raise AssertionError("sinv and smaj distributions must agree")
    return Poly((monomial(t=m, q=i), c) for (m, i), c in by_sinv.items())


def super_narayana_sym(n: int) -> Poly:
    """The symmetric-function route: (q)_n times the commutative image of g_n
    on the alphabet (1-x)/(1-q), then x -> -t.

    The commutative image is `g_partitions`, sum_lambda w_lambda h_lambda
    over the partitions lambda of n.  By the q-binomial theorem
    h_k((1-x)/(1-q)) = (x;q)_k / (q;q)_k, so

        (q)_n g_n((1-x)/(1-q)) = sum_lambda w_lambda [n; lambda]_q
                                 prod_j (x;q)_(lambda_j),

    with (q)_k = (q;q)_k and the q-multinomial
    [n; lambda]_q = (q)_n / prod_j (q)_(lambda_j), which is the product
    prod_j [lambda_1 + ... + lambda_j; lambda_j]_q of entries of the
    q-Pascal table (`_qbinom`).  The sum is one int, in the frame of
    `exact.pack` with q inner and x outer: each q-binomial is packed once
    per call, (x;q)_k is built packed, (1 - x q^(k-1)) times (x;q)_(k-1)
    being a shift and a subtraction, and the int is unpacked once, at
    x = -t.  Every q-degree is at most n(n-1)/2, the sum of the q-degrees
    sum_(i<j) lambda_i lambda_j of the q-multinomial and
    sum_j lambda_j (lambda_j - 1)/2 of the Pochhammers, so n(n-1)/2 + 1
    slots hold them.  Every |coefficient| is at most
    2^n sum_lambda |w_lambda| n!/prod_j lambda_j!, the value at q = x = 1
    of the sum with each factor's coefficients taken absolutely: the
    q-multinomial has nonnegative coefficients summing to the multinomial,
    and (x;q)_k has 2^k terms of coefficient +-1.  The width keeps this
    bound below half a digit.
    """
    _check_size("super_narayana_sym", n)
    weights = g_partitions(n)
    bound = sum(abs(w) * factorial(n) // prod(map(factorial, lam))
                for lam, w in weights) << n
    width, slots = 8 * (bound.bit_length() // 8 + 1), n * (n - 1) // 2 + 1
    frame = (width, slots)
    qbinom = cache(lambda m, k: pack(_qbinom(m, k), frame))
    x_poch = [1]
    for k in range(n):
        x_poch.append(x_poch[k] - (x_poch[k] << width * (slots + k)))
    value = sum(w * prod(map(qbinom, itertools.accumulate(lam), lam))
                * prod(map(x_poch.__getitem__, lam)) for lam, w in weights)
    return unpack(value, frame, "q", "t", -1)


def _signed_term(stats: tuple) -> tuple:
    """The signed weight (-x)^(minus) q^(smaj) of a statistics tuple that
    starts with the minus count and ends with smaj, as a pair
    (monomial, coeff)."""
    m, smaj = stats[0], stats[-1]
    return monomial(x=m, q=smaj), (-1) ** m


def fsigma_signed_weight(sigma) -> Poly:
    """Sum over sign words of (-x)^(minus) q^(smaj of the signed permutation).

    Its statistics are byte lanes, so a word has at most 23 letters."""
    _check_size("fsigma_signed_weight", len(sigma))
    return Poly(map(_signed_term, _signing_stats(sigma)))


def _shuffle_identity(a, b) -> bool:
    """W summed over the shifted shuffles of a and b is
    [|a|+|b|; |a|]_q W(a) W(b), W the signed weight `fsigma_signed_weight`.

    Signing the letters of each shuffled word gives the signed shifted
    shuffles of every signing of a with every signing of b, so this is the
    character identity on signed words."""
    n = len(a)
    return (Poly.sum(map(fsigma_signed_weight, shifted_shuffle(a, b, n)))
            == _qbinom(n + len(b), n) * fsigma_signed_weight(a)
            * fsigma_signed_weight(b))


def s_character_check(n: int) -> bool:
    """The sign-spreading map composed with the signed-weight character.

    Verifies that the weight of each permutation of size n is q^maj at
    x = 0 (maj the sum of its descent positions), `_shuffle_identity` for all
    pairs of parking functions of total length n, and that the full degree-n
    sum reproduces the super-Narayana polynomial at x = -t.
    """
    _check_size("s_character_check", n)
    q, t = Poly.var("q"), Poly.var("t")
    return (all(fsigma_signed_weight(s).substitute("x", 0)
                == q ** sum(i for i in range(1, n) if s[i - 1] > s[i])
                for s in permutations(n))
            and all(_shuffle_identity(a, b) for n1 in range(1, n)
                    for a in parking_functions(n1)
                    for b in parking_functions(n - n1))
            and Poly.sum(map(fsigma_signed_weight, parking_functions(n)))
            .substitute("x", -t) == super_narayana_count(n))


# -- Dyck and Schroeder paths ----------------------------------------------------


# a path's word in `combinat.word_texts` to its steps: 1 is u, 2 is d, and
# the two columns 3 4 of a flat step are one h
_STEP_NAMES = str.maketrans({"1": "u", "2": "d", "3": "h", "4": None})


def path_texts(family: str, n: int, sep: str = "\n", quote: str = ""):
    """The paths of semi-length n of ``family`` ("dyck" or "schroder") as
    strings over u, d and h, in the order u < d < h, in counted blocks: one
    pair (text, lines) per run of the walker (`word_texts`, which takes
    ``sep`` and ``quote``), its paths made by one ``translate`` of the
    run's letters.  n is checked before this returns."""
    return ((text.translate(_STEP_NAMES), lines)
            for text, lines in word_texts(family, n, sep, quote))


def paths(family: str, n: int):
    """The paths of semi-length n of ``family`` as strings, one at a time:
    "dyck" over u and d, in the order u < d, and "schroder" with h of width
    2 too, in the order u < d < h."""
    return itertools.chain.from_iterable(
        text.split("\n") for text, _ in path_texts(family, n))


def dyck_encode(path: str) -> tuple:
    """Each up step contributes the number of its diagonal
    (one plus the number of down steps before it); the word is an NDPF.
    This is the Schroeder encoding of a path without h."""
    if "h" in path:
        raise ValueError(f"bad step 'h' in path {path!r}")
    return schroder_encode(path)


def schroder_encode(path: str) -> tuple:
    """Up steps give their diagonal; an h gives the barred diagonal -d of the
    peak it replaces.  The result is a nondecreasing-type signed word.  A
    bad step, a dip below the axis or an end off it raises ValueError."""
    word = []
    diag, height = 1, 0
    for step in path:
        if step == "u":
            word.append(diag)
            height += 1
        elif step == "d":
            diag += 1
            height -= 1
        elif step == "h":
            word.append(-diag)
            diag += 1
        else:
            raise ValueError(f"bad step {step!r} in path {path!r}")
        if height < 0:
            raise ValueError(f"path dips below the axis: {path!r}")
    if height:
        raise ValueError(f"path does not return to the axis: {path!r}")
    return tuple(word)


def _sorted_signed_pfs(n: int):
    """All signed parking functions with zero signed inversions.

    These are exactly the sorted words: distinct negative letters descending
    in absolute value, then the positive letters ascending.  Barring a
    letter of an NDPF takes one copy off its run of equal letters, so the
    words of each NDPF are built in one pass over its runs: each run extends
    every word so far once with the run whole and once with it one copy
    short, that copy barred in front.
    """
    for pi in ndpfs(n):
        words = [((), ())]
        for v, run in itertools.groupby(pi):
            whole = tuple(run)
            short = whole[1:]
            words = ([(negs, pos + whole) for negs, pos in words]
                     + [((-v,) + negs, pos + short) for negs, pos in words])
        yield from itertools.starmap(add, words)


def _minus_counts(words) -> Counter:
    """The number of signed words of a stream by (no signed inversion, minus
    count), by the test of `schroder_polynomials`: nondecreasing, with no
    negative letter repeated.

    The words stream once through C-level passes, keyed by whether each
    equals its sorted copy and by its tuple of negative letters; the few
    distinct keys then give the minus counts and the repeat test."""
    words, copy, again = itertools.tee(words, 3)
    negatives = map(tuple, map(filter, itertools.repeat((0).__gt__), again))
    keys = Counter(zip(map(eq, words, map(tuple, map(sorted, copy))),
                       negatives))
    counts = Counter()
    for (nondecreasing, negs), c in keys.items():
        counts[nondecreasing and len(set(negs)) == len(negs), len(negs)] += c
    return counts


def schroder_polynomials(n: int) -> Poly:
    """P_n(t) = P_n(t, 0) by three routes: Schroeder paths by horizontal
    steps; signed parking functions without signed inversions by minus signs;
    and the character h_k = 1 + t on g_n, since u = sum_n P_n(t) z^n solves
    u = 1 + t z u + z u^2, that is u = 1 + (1 + t) sum_(k>=1) (z u)^k.
    Raises AssertionError unless the three routes agree and no sorted word
    has a signed inversion.

    A signed word has no signed inversion exactly when it is nondecreasing
    and no negative letter repeats.  "a does not beat b" (a <= b, with
    equality only when a > 0) is transitive: a <= b <= c with a == c forces
    a == b, so a > 0.  Hence no pair of the word beats when no adjacent pair
    does, that is when the word is nondecreasing with no two equal negative
    letters side by side; and in a nondecreasing word equal letters are side
    by side.  `_minus_counts` applies this test.
    """
    _check_size("schroder_polynomials", n)
    t = Poly.var("t")
    by_paths = Poly((monomial(t=k), c) for k, c in Counter(
        map(methodcaller("count", "h"), paths("schroder", n))).items())
    counts = _minus_counts(_sorted_signed_pfs(n))
    by_words = Poly((monomial(t=m), c) for (_, m), c in counts.items())
    sorted_ok = all(free for free, _ in counts)
    by_character = evaluate(g_partitions(n), [P_ONE] + [1 + t] * n)
    if not (sorted_ok and by_paths == by_words == by_character):
        raise AssertionError(f"the three routes to P_{n}(t) disagree")
    return by_paths


def narayana_from_pn(pn_t: Poly) -> Poly:
    """c_n with t c_n(t) = P_n(t - 1): substitute and divide by t exactly."""
    return pn_t.substitute("t", Poly.var("t") - 1).divided_by("t")


# -- the bar character on quasi-ribbons -------------------------------------------


def bar_distribution(n: int) -> Poly:
    """Sum of t^(number of bars) over the parking quasi-ribbons of size n."""
    _check_size("bar_distribution", n)
    counts = Counter(len(bars) for _, bars in iter_quasi_ribbons(n))
    return Poly((monomial(t=k), c) for k, c in counts.items())


def _peak_after_last_h(path: str) -> bool:
    last_h = path.rfind("h")
    return "ud" in path[last_h + 1:]


def _peaks(path: str):
    """(number of ud factors, any peak at level one)."""
    count = 0
    level_one = False
    height = 0
    for i, step in enumerate(path):
        if step == "u":
            height += 1
            if i + 1 < len(path) and path[i + 1] == "d":
                count += 1
                if height == 1:
                    level_one = True
        elif step == "d":
            height -= 1
    return count, level_one


def chi_path_model_check(n: int) -> bool:
    """Bar distribution against two Schroeder path statistics.

    #{quasi-ribbons, k bars} equals #{paths, k h-steps, with a peak after the
    last h or no h at all}; equivalently #{paths, k+1 h-steps, no peak after
    the last h}; and also #{paths, k peaks, none at level one}.
    """
    bar_counts = dict(enumerate(bar_distribution(n).coeff_row("t")))
    with_peak, without_peak, by_peaks = Counter(), Counter(), Counter()
    for p in paths("schroder", n):
        k = p.count("h")
        if "h" not in p or _peak_after_last_h(p):
            with_peak[k] += 1
        else:
            without_peak[k] += 1
        npeaks, level_one = _peaks(p)
        if not level_one:
            by_peaks[npeaks] += 1
    return all(with_peak[k] == without_peak[k + 1] == by_peaks[k]
               == bar_counts.get(k, 0)
               for k in range(max(bar_counts, default=0) + 2))


def chi_sqsym(n: int) -> bool:
    """The bar character chi(P_q) = (1+t) t^(bars) is `evaluate` after
    `istar_on_sqsym` and `R_to_S` with h_k = 1+t, since summing
    (-1)^(l(I)-l(J)) (1+t)^l(J) over J <= I gives (1+t) t^(l(I)-1).  Checks
    chi of the degree-n sum against (1+t) times the bar distribution and
    (1+t) c_n(1+t), the path model, and on small products that
    `istar_on_sqsym` sends the product to `ribbon_product` and that chi is
    multiplicative.
    """
    _check_size("chi_sqsym", n)
    t = Poly.var("t")
    h = [P_ONE] + [1 + t] * n

    def chi(x: LinComb) -> Poly:
        return evaluate(R_to_S(hopf.istar_on_sqsym(x)), h)

    dist = bar_distribution(n)
    cn = narayana_from_pn(schroder_polynomials(n))
    total = LinComb((q, 1) for q in quasi_ribbons(n))
    product, small = hopf.sqsym_product, min(n, 4)
    return (chi(total) == (1 + t) * dist
            and dist == cn.substitute("t", 1 + t)
            and chi_path_model_check(n)
            and hopf._is_morphism(quasi_ribbons, product, hopf.istar_on_sqsym,
                                  ribbon_product, small)
            and hopf._is_morphism(quasi_ribbons, product, chi, mul, small))


# -- the binomial-element character ------------------------------------------------


def pn_alpha(n: int) -> Poly:
    """P_n(a) = a (prod over k=1..n-1 of ((n+1) a + k)) for n >= 1, and
    P_0(a) = 1, the value on the one empty parking function."""
    _check_size("pn_alpha", n)
    if n == 0:
        return P_ONE
    alpha = Poly.var("a")
    return prod((alpha.scale(n + 1) + k for k in range(1, n)), start=alpha)


def _cycle_count(sigma) -> int:
    """The number of cycles of a permutation of 0..len(sigma)-1."""
    seen = [False] * len(sigma)
    k = 0
    for i in range(len(sigma)):
        if not seen[i]:
            k += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = sigma[j]
    return k


def fixed_pair_counts(n: int) -> dict[int, int]:
    """#{(a, sigma) : a a parking function, sigma with k cycles, a o sigma = a}
    with (a o sigma)_i = a_(sigma(i)); keyed by k.

    The permutations fixing a are the products of permutations inside its
    blocks of equal letters, and the cycles of such a product are the cycles
    of its factors; so the counts of a depend only on its block sizes, which
    its rearrangements share.  The parking functions are walked as their
    classes, the ndpfs, each weighted by its n! / prod_i m_i! rearrangements,
    and the counts of a class combine the cycle counts of the permutations
    of each block size, each listed once.
    """
    _check_size("fixed_pair_counts", n)
    cycles = {m: Counter(map(_cycle_count, itertools.permutations(range(m))))
              for m in range(n + 1)}
    counts = Counter()
    for pi in ndpfs(n):
        sizes = Counter(pi).values()
        weight = factorial(n) // prod(map(factorial, sizes))
        for blocks in itertools.product(*(cycles[m].items() for m in sizes)):
            counts[sum(k for k, _ in blocks)] += weight * prod(
                ways for _, ways in blocks)
    return counts


def psi_alpha(n: int) -> bool:
    """The binomial character psi_a is `evaluate` after `morphism_psi` with
    h_k = (a)_k the rising factorial, so psi_a(F_w) = Z_t(w)(a) / n!.
    Checks that n! psi_a of the degree-n sum and n! times the character on
    g_n (`evaluate` on `g_partitions(n)` with h_k = (a)_k / k!) are
    `pn_alpha(n)`, multiplicativity on small products, that i*
    (F_a -> F_std(a)) is an algebra morphism on the same products, and (up
    to the top of `fixed_pair_counts`) the fixed-pair counts of its
    coefficients.  psi_a(F_w) reads
    only the letters of w, so the degree-n sum is taken over the NDPFs, each
    weighted by its n! / prod_i m_i! rearrangements.
    """
    _check_size("psi_alpha", n)
    alpha = Poly.var("a")
    rising = [rising_factorial(alpha, k) for k in range(n + 1)]

    def psi(x: LinComb) -> Poly:
        return evaluate(hopf.morphism_psi(x), rising)

    target = pn_alpha(n)
    total = psi(LinComb((pi, factorial(n) // prod(
        map(factorial, Counter(pi).values()))) for pi in ndpfs(n)))
    on_g = evaluate(g_partitions(n), [r.scale(Fraction(1, factorial(k)))
                                      for k, r in enumerate(rising)])
    product, small = hopf.pqsym_product, min(n, 4)
    ok = (total.scale(factorial(n)) == target == on_g.scale(factorial(n))
          and hopf._is_morphism(parking_functions, product, psi, mul, small)
          and hopf._is_morphism(parking_functions, product,
                                hopf.morphism_istar, product, small))
    if ok and n <= LIMITS["fixed_pair_counts"][1]:
        counts = fixed_pair_counts(n)
        ok = target.coeff_row("a") == [counts[k] for k in range(n + 1)]
    return ok


# -- the q-triangle -----------------------------------------------------------------


def qn_polynomial(n: int) -> Poly:
    """Q_n(q) = prod over k=2..n of ((n+1-k) q + k), a q-analogue of (n+1)^(n-1)."""
    _check_size("qn_polynomial", n)
    q = Poly.var("q")
    return prod((q.scale(n + 1 - k) + k for k in range(2, n + 1)), start=P_ONE)


def q_triangle(n_max: int) -> list[list[int]]:
    """Coefficient rows of Q_n(q), n = 1..n_max, constant term first.

    Checks the reciprocal identity Q_n(q) = (q-1)^n P_n(1/(q-1))
    (P_n has degree n and no constant term, so Q_n has degree n-1)
    and that column 0 is n!.
    """
    _check_size("q_triangle", n_max)
    q = Poly.var("q")
    rows = []
    for n in range(1, n_max + 1):
        qn = qn_polynomial(n)
        # reciprocal identity through the alpha-coefficients of P_n
        recip = Poly.sum((q - 1) ** (n - k) * c
                         for k, c in enumerate(pn_alpha(n).coeff_row("a")))
        if recip != qn:
            raise AssertionError(f"reciprocal identity fails at n={n}")
        row = [int(c) for c in qn.coeff_row("q")]
        if row[0] != factorial(n):
            raise AssertionError(f"column 0 is not n! at n={n}")
        rows.append(row)
    return rows


# -- the Narayana cross-check ---------------------------------------------------------


def lassalle_narayana(n: int) -> Poly:
    """c_n(q) from the character 1 - x on g_n: `evaluate` on
    `g_partitions(n)` with h_k = 1 - x, then x = 1-q and a division by q.
    The value is checked against the Lagrange coefficient
    [z^n] phi^(n+1)/(n+1) of phi = 1 + (1-x)(z + z^2 + ...)
    (`lagrange_coefficient`), which does not read the partition weights."""
    _check_size("lassalle_narayana", n)
    x, q = Poly.var("x"), Poly.var("q")
    h = [P_ONE] + [1 - x] * n
    value = evaluate(g_partitions(n), h)
    if value != lagrange_coefficient(h, n):
        raise AssertionError(f"evaluate(g_n, 1-x) is not its Lagrange "
                             f"coefficient at n={n}")
    return value.substitute("x", 1 - q).divided_by("q")
