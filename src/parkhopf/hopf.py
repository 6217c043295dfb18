"""The five combinatorial algebras on parking-function-like objects.

Elements are LinComb values over the natural basis keys of each algebra:

* parking-word algebra, F basis, keys = parking functions (tuples);
* Catalan subalgebra, P basis, keys = nondecreasing parking functions;
* Schroeder subalgebra, P basis, keys = parking quasi-ribbons (word, bars);
* permutation algebra, G basis, keys = permutations;
* packed-word algebra, M basis, keys = packed words.

The morphisms into noncommutative symmetric functions return LinComb values
on composition keys as well, in the S or R basis of `symfun`.

Products, the duplicial / dendriform / tridendriform partial operations, the
duplicial coproduct, and the morphisms between the algebras all live here as
module-level functions; everything is pure.

The duplicial (dup) and triduplicial (tri) rules are defined here once,
for the axiom suites and for `operad`'s rewriting: `NOT_RULES` holds the
(root, left) pairs that are not rules, and `DUPLICIAL_ALGEBRAS` the
operation of each symbol in each algebra the suites cover.

The permutation and packed-word products relabel each pair of keys through
index tables that depend on the pair's shape only and are cached per shape
(never per word).  The tables are split by the tag that selects a half or a
third, so a partial product walks only the terms it keeps.  The terms of
one pair of keys, over the rows of all its kept tags, share a coefficient
and form a run, which is merged into the result whole by one
``dict.fromkeys`` and one ``update``; for a product of two basis elements,
which is every product the axiom checks form, that run is the result.  A
run that repeats a term (two tags may share one), or meets a term already
in the result, goes through `exact._collect` instead, so sums and
cancellations stay exact; a pair whose coefficients multiply to 0 adds
nothing.

Two caches spare the per-key work of the checks: `_packed_fibers`, the
packed words over a permutation, per permutation (the last 256 read); and
`_dup_weight`, the weight of `pqsym_dup_prec`, per pair of letter counts.
Each holds values of a pure function of its arguments that calls no
function of the package (only itertools and integer factorials), and
neither holds a product, a table or a morphism.  So a check run clean and then with a
fault planted in a library function, as the fault tests of the verify
rows do, calls the faulty function on every key it reads, and no cached
value can hide the fault.  The index tables are looked up through the
module on every product, so a patched table function is the one read.

The dendriform relations of the permutation algebra and the tridendriform
relations of the packed-word algebra are proven without walking the key
triples (`_relations_proven`).  Each of their operations is checked to be
natural on the pairs of keys the relations apply it to: op(x, y) is
op(id, id) on the identity words of the same maxima, relabelled by x and y.
A relation (a f b) g c = a h (b k c) up to size n applies g and h to pairs
of total size <= n, and f and k to pairs of total size <= n - 1; so the
pieces, which some relation applies outermost, are checked up to n, and
the product, which the relations apply only inside, up to n - 1.
Relabelling then carries each relation from one identity triple per split
of maxima to every triple.  The other axiom suites walk their triples
(`_relations_hold`): their operations shift by a length or a max - 1, not
by the maxima alone, so they are not natural in this sense.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import itemgetter

from .combinat import (NotInSubalgebraError, _check_size,
                       hypoplactic_quasi_ribbon, ndpfs, packed_evaluation,
                       packed_words, parking_functions, parkize, permutations,
                       quasi_ribbons, shape, shifted_concat_len,
                       shifted_concat_max, shifted_shuffle, standardize,
                       word_to_text)
from .exact import LinComb, _collect, span_dimension


def unit() -> LinComb:
    """The empty word is the unit of every full product here."""
    return LinComb.term(())


# -- parking-word algebra (F basis) -------------------------------------------


def pqsym_product(a: LinComb, b: LinComb) -> LinComb:
    """F_a F_b: length-shifted shuffle, one c1 * c2 per pair of keys."""
    return LinComb(itertools.chain.from_iterable(
        zip(shifted_shuffle(k1, k2, len(k1)), itertools.repeat(c1 * c2))
        for k1, c1 in a for k2, c2 in b))


@lru_cache(maxsize=None)
def _dup_weight(am: int, b1: int) -> Fraction:
    """The weight |a|_m! |b|_1! / (|a|_m + |b|_1)! of `pqsym_dup_prec`."""
    return Fraction(factorial(am) * factorial(b1), factorial(am + b1))


def pqsym_dup_prec(a: LinComb, b: LinComb) -> LinComb:
    """The normalized left duplicial operation on parking words.

    With m = max(a): F_a < F_b = (|a|_m! |b|_1! / (|a|_m + |b|_1)!) times the
    sum over the shuffle of a with b shifted by m - 1.  The weight is read
    from `_dup_weight`, cached per (|a|_m, |b|_1).
    """
    def terms():
        for k1, c1 in a:
            if not k1:
                raise ValueError(
                    "left duplicial operation needs a nonempty left key")
            m = max(k1)
            am = k1.count(m)
            for k2, c2 in b:
                if not k2:
                    raise ValueError(
                        "duplicial operations live on the augmentation ideal")
                coeff = _dup_weight(am, k2.count(1)) * (c1 * c2)
                for w in shifted_shuffle(k1, k2, m - 1):
                    yield w, coeff

    return LinComb(terms())


# -- Catalan subalgebra (P basis on nondecreasing parking functions) ----------


def cqsym_succ(a: LinComb, b: LinComb) -> LinComb:
    """P^alpha > P^beta = P^(alpha.beta[len]) - the multiplicative product."""
    return LinComb((shifted_concat_len(k1, k2), c1 * c2)
                   for k1, c1 in a for k2, c2 in b)


def cqsym_prec(a: LinComb, b: LinComb) -> LinComb:
    """P^alpha < P^beta = P^(alpha.beta[max-1]); empty left keys are rejected."""
    return LinComb((shifted_concat_max(k1, k2), c1 * c2)
                   for k1, c1 in a for k2, c2 in b)


def cqsym_expand_F(a: LinComb) -> LinComb:
    """P^pi = sum of F_a over the rearrangements a of pi."""
    return LinComb((w, c) for pi, c in a
                   for w in set(itertools.permutations(pi)))


# parkize of every NDPF suffix met so far, and every cut key met so far,
# interned (see `dup_coproduct`)
_PARKED: dict = {}
_CUT_KEYS: dict = {}


def _cut_keys(pi):
    """The keys (prefix, parkize(suffix)) of the proper cuts of an NDPF, in
    order of the prefix length: distinct, as their prefixes have different
    lengths, and each the one object `_CUT_KEYS` holds for its value."""
    parked, keys = _PARKED, _CUT_KEYS
    for k in range(1, len(pi)):
        suffix = pi[k:]
        p = parked.get(suffix)
        if p is None:
            # parkize is a closure, so its value is a word it fixes
            p = parkize(suffix)
            p = parked[suffix] = parked.setdefault(p, p)
        key = (pi[:k], p)
        yield keys.setdefault(key, key)


def dup_coproduct(a: LinComb) -> LinComb:
    """The reduced duplicial coproduct on the P basis, whose keys are NDPFs.

    delta(P^pi) = sum over proper cuts k of
    P^park(prefix) (x) P^park(suffix starting at k+1); single letters are
    primitive.  A prefix of an NDPF is an NDPF, which parkize leaves as it
    is, so only the suffix is parkized.

    ``parkize`` runs once per distinct suffix in the process, and equal keys
    are one object across calls (`_cut_keys`), so the rows of a rank hold
    each key once.  The cuts of one NDPF are distinct keys, so a one-term
    input becomes its term dict directly; any other input collects its
    terms through `exact._collect`, where repeated keys add and cancel.

    The two tables outlive a call and grow with the suffixes met.  They
    hold only values of the pure `parkize` and pairs of a prefix with one,
    never a coproduct: a check that runs clean and then with a fault
    planted in this function or its callers recomputes every value, as
    `primitive_dimension` looks this function up for each basis element.
    """
    if len(a.terms) != 1:
        return LinComb((key, c) for pi, c in a for key in _cut_keys(pi))
    ((pi, c),) = a.terms.items()
    res = LinComb.__new__(LinComb)
    res.terms = dict.fromkeys(_cut_keys(pi), c) if c else {}
    return res


def dup_bracket(a: LinComb, b: LinComb) -> LinComb:
    """{a, b} = a < b - a > b (magmatic, preserves primitives)."""
    return cqsym_prec(a, b) - cqsym_succ(a, b)


def primitive_dimension(n: int) -> int:
    """Kernel dimension of the duplicial coproduct in degree n."""
    _check_size("primitive_dimension", n)
    basis = ndpfs(n)
    return len(basis) - span_dimension(
        dup_coproduct(LinComb.term(pi)) for pi in basis)


# -- Schroeder subalgebra (P basis on parking quasi-ribbons) -------------------


@lru_cache(maxsize=None)
def _hypoplactic_classes(n: int) -> dict:
    classes: dict[tuple, list] = {}
    for w in parking_functions(n):
        classes.setdefault(hypoplactic_quasi_ribbon(w), []).append(w)
    return {q: tuple(ws) for q, ws in classes.items()}


def sqsym_expand_F(a: LinComb) -> LinComb:
    """P_q = sum of F_a over the hypoplactic class of q."""
    def terms():
        for q, c in a:
            members = _hypoplactic_classes(len(q[0])).get(q)
            if members is None:
                raise ValueError(
                    f"no parking function has hypoplactic class {q}")
            for w in members:
                yield w, c

    return LinComb(terms())


def pqsym_project_sqsym(a: LinComb) -> LinComb:
    """Regroup an F-expansion on hypoplactic classes; fail unless each class
    met is all of its members with one constant coefficient."""
    groups: dict = {}
    for w, c in a:
        groups.setdefault(hypoplactic_quasi_ribbon(w), {})[w] = c

    def terms():
        for q, members in groups.items():
            coeffs = set(members.values())
            if set(members) != set(_hypoplactic_classes(len(q[0]))[q]) \
                    or len(coeffs) != 1:
                raise NotInSubalgebraError(
                    f"not constant on the hypoplactic class of {q}")
            yield q, coeffs.pop()

    return LinComb(terms())


def sqsym_product(a: LinComb, b: LinComb) -> LinComb:
    """Product computed in F coordinates and regrouped; closure is asserted."""
    return pqsym_project_sqsym(
        pqsym_product(sqsym_expand_F(a), sqsym_expand_F(b)))


def qr_succ(q1, q2) -> tuple:
    """Shift the second factor by the length of the first; bars carried along."""
    (w1, b1), (w2, b2) = q1, q2
    k = len(w1)
    return (w1 + tuple([v + k for v in w2]),
            b1 + tuple([v + k for v in b2]) if b2 else b1)


def qr_prec(q1, q2) -> tuple:
    """Shift the second factor by max - 1; bars carried along, none added."""
    (w1, b1), (w2, b2) = q1, q2
    if not w1:
        raise ValueError(
            "left factor of the max-shifted concatenation is empty")
    m, k = max(w1) - 1, len(w1)
    return (w1 + tuple([v + m for v in w2]),
            b1 + tuple([v + k for v in b2]) if b2 else b1)


def qr_mid(q1, q2) -> tuple:
    """Length-shifted concatenation with a new bar at the junction."""
    (w1, b1), (w2, b2) = q1, q2
    if not (w1 and w2):
        raise ValueError("the middle operation needs two nonempty factors")
    k = len(w1)
    return w1 + tuple([v + k for v in w2]), b1 + (k, *[v + k for v in b2])


# -- products by relabelling: the permutation and packed-word algebras --------


def _relabelled(a: LinComb, b: LinComb, tables, keep) -> LinComb:
    """The terms of a product whose tag is in ``keep``, from index tables.

    For basis keys k1, k2 with maxima s1, s2, let w be k1 followed by k2
    shifted by s1.  Each row T of ``tables(s1, s2)[tag]`` maps the letters of
    w to one term, tuple(T[x] for x in w), with coefficient c1 * c2.  The
    tables depend on the shape (s1, s2) only and are cached.  One
    ``itemgetter(*w)`` per pair of keys reads every row; a w of fewer than
    two letters, for which itemgetter gives no tuple, maps each row directly.

    The terms of one pair of keys form a run with one coefficient, built by
    one ``dict.fromkeys`` over the rows of all the kept tags.  A run whose
    terms are distinct becomes the result when the result is still empty,
    as for every pair of basis elements, and is merged whole by ``update``
    when its terms are new to the result; a run that repeats a term (within
    a tag, or across two tags) or meets one already in the result is added
    term by term through `exact._collect`, so coefficients add and zero
    sums drop as in any LinComb.  A pair whose coefficients multiply to 0
    adds nothing.
    """
    data = {}
    for k1, c1 in a.terms.items():
        s1 = max(k1, default=0)
        for k2, c2 in b.terms.items():
            c = c1 * c2
            if not c:
                continue
            w = k1 + tuple([v + s1 for v in k2])
            rows = tables(s1, max(k2, default=0))
            kept = rows[keep[0]]
            for tag in keep[1:]:
                kept = kept + rows[tag]
            get = itemgetter(*w) if len(w) > 1 else \
                (lambda row, w=w: tuple(map(row.__getitem__, w)))
            run = dict.fromkeys(map(get, kept), c)
            if len(run) < len(kept):
                _collect(zip(map(get, kept), itertools.repeat(c)), data)
            elif not data:
                data = run
            elif run.keys().isdisjoint(data.keys()):
                data.update(run)
            else:
                _collect(run, data)
    res = LinComb.__new__(LinComb)
    res.terms = data
    return res


# -- permutation algebra (G basis) --------------------------------------------


@lru_cache(maxsize=None)
def _shuffle_tables(n: int, m: int) -> dict:
    """Index rows (0,) + chosen + rest over the n-subsets ``chosen`` of
    [n+m], ``rest`` its complement, keyed by whether n+m is chosen."""
    values = range(1, n + m + 1)
    rows: dict = {True: [], False: []}
    for chosen in itertools.combinations(values, n):
        rest = tuple(sorted(set(values).difference(chosen)))
        rows[(n + m) in chosen].append((0,) + chosen + rest)
    return rows


def fqsym_product(a: LinComb, b: LinComb) -> LinComb:
    """G_alpha G_beta: the convolution product."""
    return _relabelled(a, b, _shuffle_tables, (True, False))


def fqsym_left(a: LinComb, b: LinComb) -> LinComb:
    """Terms of the convolution whose maximum letter falls in the left factor."""
    return _relabelled(a, b, _shuffle_tables, (True,))


def fqsym_right(a: LinComb, b: LinComb) -> LinComb:
    """Complementary half: the maximum letter falls in the right factor."""
    return _relabelled(a, b, _shuffle_tables, (False,))


# -- packed-word algebra (M basis) --------------------------------------------


@lru_cache(maxsize=None)
def _packed_tables(k1: int, k2: int) -> dict:
    """Index rows (0,) + img1 + img2 over the images img1, img2 of [k1] and
    [k2] in [k] that cover [k], keyed by the sign of max(img2) - max(img1).

    img2 is the complement of img1 plus k1 + k2 - k letters of img1, for
    max(k1, k2) <= k <= k1 + k2, so no non-covering pair is formed.
    """
    rows: dict = {-1: [], 0: [], 1: []}
    for k in range(max(k1, k2), k1 + k2 + 1):
        for img1 in itertools.combinations(range(1, k + 1), k1):
            free = set(range(1, k + 1)).difference(img1)
            for extra in itertools.combinations(img1, k1 + k2 - k):
                img2 = tuple(sorted(free.union(extra)))
                m1, m2 = max(img1, default=0), max(img2, default=0)
                rows[(m2 > m1) - (m2 < m1)].append((0,) + img1 + img2)
    return rows


def wqsym_product(a: LinComb, b: LinComb) -> LinComb:
    return _relabelled(a, b, _packed_tables, (-1, 0, 1))


def wqsym_left(a, b):
    """The terms whose maximum letter occurs only in the left factor."""
    return _relabelled(a, b, _packed_tables, (-1,))


def wqsym_mid(a, b):
    """The terms whose maximum letter occurs in both factors."""
    return _relabelled(a, b, _packed_tables, (0,))


def wqsym_right(a, b):
    """The terms whose maximum letter occurs only in the right factor."""
    return _relabelled(a, b, _packed_tables, (1,))


@lru_cache(maxsize=256)
def _packed_fibers(sigma: tuple) -> tuple:
    """All packed words u with std(u) = sigma, cached per permutation.

    The cache keeps the 256 permutations last read, more than the 154 of
    sizes 0 to 5 that the WQSym morphism check reads; a fibre of size n
    holds up to 2^(n-1) words, so an unbounded cache would grow with
    every permutation ever embedded.

    Merging the values j and j+1 of sigma is allowed exactly when j+1 occurs
    to the right of j (left-to-right tie breaking).
    """
    n = len(sigma)
    if n == 0:
        return ((),)
    pos = {v: i for i, v in enumerate(sigma)}
    mergeable = [j for j in range(1, n) if pos[j + 1] > pos[j]]
    fibers = []
    for r in range(len(mergeable) + 1):
        for merges in itertools.combinations(mergeable, r):
            label = {}
            nxt = 0
            for v in range(1, n + 1):
                if v > 1 and (v - 1) in merges:
                    label[v] = label[v - 1]
                else:
                    nxt += 1
                    label[v] = nxt
            fibers.append(tuple(label[v] for v in sigma))
    return tuple(fibers)


def embed_fqsym_wqsym(a: LinComb) -> LinComb:
    """G_sigma -> sum of M_u over packed words with std(u) = sigma."""
    return LinComb((u, c) for sigma, c in a for u in _packed_fibers(sigma))


# -- morphisms ----------------------------------------------------------------


def morphism_istar(a: LinComb) -> LinComb:
    """F_a -> F_std(a): parking words onto permutations (F coordinates)."""
    return a.map_keys(standardize)


def istar_on_cqsym(a: LinComb) -> LinComb:
    """P^pi -> S^t(pi) with t the packed evaluation (S-basis keys)."""
    return a.map_keys(packed_evaluation)


def istar_on_sqsym(a: LinComb) -> LinComb:
    """P_q -> R_I with I the shape (segment lengths) of the quasi-ribbon q
    (R-basis keys)."""
    return a.map_keys(shape)


def morphism_psi(a: LinComb) -> LinComb:
    """F_a -> S^t(a) / n!: the algebra morphism onto symmetric functions
    (S-basis keys)."""
    return LinComb((packed_evaluation(w), Fraction(c) / factorial(len(w)))
                   for w, c in a)


# -- the duplicial and triduplicial rules ---------------------------------------


# The (root, left) pairs (r, l) of operation symbols that are not rules; for
# every other pair, (A l B) r C = A l (B r C), oriented left to right.  A dup
# tree holds no "o", so the one set serves both modes.
NOT_RULES = frozenset({(">", "<"), ("o", "<")})

# algebra: (its basis keys of a size, the lift of a key to its element or
# None, symbol -> operation) for each algebra a duplicial or triduplicial
# suite covers; the keys of the map are its mode's symbols.  A row is built
# when it is read, so a patched operation is the one called.
DUPLICIAL_ALGEBRAS = {
    "cqsym": lambda: (ndpfs, None,
                      {"<": shifted_concat_max, ">": shifted_concat_len}),
    "pqsym": lambda: (parking_functions, LinComb.term,
                      {"<": pqsym_dup_prec, ">": pqsym_product}),
    "sqsym": lambda: (quasi_ribbons, None,
                      {"<": qr_prec, ">": qr_succ, "o": qr_mid}),
}


def is_rule(root: str, left: str) -> bool:
    return (root, left) not in NOT_RULES


def mode_operations(mode: str) -> tuple:
    """(the generator, symbol -> operation) of the algebra of words of
    ``mode``: CQSym's in "dup" mode, the quasi-ribbons in "tri" mode."""
    if mode not in ("dup", "tri"):
        raise ValueError(f"unknown mode {mode!r} (use 'dup' or 'tri')")
    family, _, ops = DUPLICIAL_ALGEBRAS["cqsym" if mode == "dup"
                                       else "sqsym"]()
    (generator,) = family(1)
    return generator, ops


def _pair_relations(ops: dict, rules: bool = True) -> list:
    """(l, r, l, r) through ``ops``, that is (a l b) r c = a l (b r c), for
    each pair (r, l) of its symbols that is a rule, or is not one when
    ``rules`` is False."""
    return [(ops[left], ops[root], ops[left], ops[root])
            for root in ops for left in ops
            if is_rule(root, left) is rules]


# -- axiom suites ---------------------------------------------------------------


def _splits(max_total: int, arity: int):
    """The tuples of ``arity`` positive sizes summing to at most max_total."""
    return (split for split in itertools.product(range(1, max_total),
                                                 repeat=arity)
            if sum(split) <= max_total)


def _keys_by_total(family, max_total: int, arity: int):
    """Tuples of basis keys with positive sizes summing to at most max_total."""
    for split in _splits(max_total, arity):
        yield from itertools.product(*map(family, split))


def _is_morphism(family, product, f, target_product, n: int) -> bool:
    """f(x y) = f(x) f(y) for basis keys x, y of total degree <= n, where
    x y is ``product`` and f(x) f(y) is ``target_product``; f is a linear
    map on LinComb values, and a character passes `operator.mul`.

    f runs once on each basis key of degree < n, and the images are kept
    for this call only, so a patched f is the one read on the next call."""
    images = {key: f(LinComb.term(key))
              for size in range(1, n) for key in family(size)}
    return all(f(product(LinComb.term(x), LinComb.term(y)))
               == target_product(images[x], images[y])
               for x, y in _keys_by_total(family, n, 2))


def _relations_hold(family, max_total: int, relations, lift=None) -> bool:
    """(a f b) g c == a h (b k c) for every (f, g, h, k) in ``relations`` and
    every triple of basis keys of total size <= max_total, each key passed
    through ``lift`` first when given.

    The keys of each size are lifted once.  The triples are walked one size
    split at a time, in the order of `_keys_by_total`, and each distinct
    inner operation runs once per pair of keys: b k c for every pair of the
    split before its first triple, a f b once before the keys c.  Only the
    outer operations g and h run per triple.
    """
    pools = {size: family(size) if lift is None
             else tuple(map(lift, family(size)))
             for size in range(1, max_total - 1)}
    fs = list(dict.fromkeys(f for f, _, _, _ in relations))
    ks = list(dict.fromkeys(k for _, _, _, k in relations))
    checks = [(fs.index(f), g, h, ks.index(k)) for f, g, h, k in relations]
    for s1, s2, s3 in _splits(max_total, 3):
        xs, ys, zs = pools[s1], pools[s2], pools[s3]
        yz = [[[k(b, c) for k in ks] for c in zs] for b in ys]
        for a in xs:
            for b, b_yz in zip(ys, yz):
                ab = [f(a, b) for f in fs]
                for c, bc in zip(zs, b_yz):
                    for i, g, h, j in checks:
                        if g(ab[i], c) != h(a, bc[j]):
                            return False
    return True


def duplicial_axioms_cqsym(max_total: int) -> bool:
    """The dup rules on the multiplicative basis."""
    family, lift, ops = DUPLICIAL_ALGEBRAS["cqsym"]()
    return _relations_hold(family, max_total, _pair_relations(ops), lift)


def duplicial_axioms_pqsym(max_total: int) -> bool:
    """The dup rules for the normalized duplicial pair on parking words, on
    basis triples, and the Catalan subalgebra as a duplicial subalgebra:
    P^pi -> sum of F_a over the rearrangements a of pi sends < to the
    normalized < and > to the product, on basis pairs."""
    family, lift, ops = DUPLICIAL_ALGEBRAS["pqsym"]()
    return _relations_hold(family, max_total, _pair_relations(ops),
                           lift) and all(
        _is_morphism(ndpfs, op, cqsym_expand_F, ops[symbol], max_total)
        for op, symbol in [(cqsym_prec, "<"), (cqsym_succ, ">")])


def triduplicial_axioms(max_total: int) -> bool:
    """The seven tri rules on quasi-ribbons, with the three operations
    pairwise distinct on the generator: all seven relations also hold when
    two of them coincide."""
    family, lift, ops = DUPLICIAL_ALGEBRAS["sqsym"]()
    return _distinct_on_generator(ops.values(), *family(1)) and \
        _relations_hold(family, max_total, _pair_relations(ops), lift)


def non_rules_fail() -> bool:
    """Each pair (r, l) of an algebra's symbols that is not a rule fails on
    the generator x, (x l x) r x != x l (x r x), in every algebra of
    `DUPLICIAL_ALGEBRAS`: x is the one key of size 1, so the triples of
    total size 3 are the one triple (x, x, x)."""
    return not any(_relations_hold(family, 3, [relation], lift)
                   for family, lift, ops in (
                       row() for row in DUPLICIAL_ALGEBRAS.values())
                   for relation in _pair_relations(ops, rules=False))


def _identities(m: int) -> tuple:
    """The one identity word of max m, as a family of basis keys."""
    return (tuple(range(1, m + 1)),)


def _natural(family, max_total: int, pieces, product, inner=()) -> bool:
    """Each of ``pieces`` and ``product`` is natural on every pair of basis
    keys of total size <= max_total, or <= max_total - 1 for an operation in
    ``inner``; and the pieces sum to the product on the identity pairs of
    every split of total <= max_total.

    Natural means op(x, y) is op(id_s1, id_s2) relabelled by w = x followed
    by y shifted by s1, where s1, s2 are the maxima of x and y: each term u
    becomes tuple(u[v - 1] for v in w).  The identity products are built
    once per pair of maxima, and the pieces are checked to sum to the
    product there; naturality carries that sum to every pair on which all
    of them are checked.
    """
    ops = (*pieces, product)
    images = {}
    for s1, s2 in _splits(max_total, 2):
        ids = [LinComb.term(*_identities(s)) for s in (s1, s2)]
        values = [op(*ids) for op in ops]
        if sum(values[:-1], LinComb()) != values[-1]:
            return False
        checks = [(op, list(value.terms), list(value.terms.values()))
                  for op, value in zip(ops, values)]
        # indexed by whether the pair is of total max_total
        images[s1, s2] = checks, [check for check in checks
                                  if check[0] not in inner]
    pools = {size: [(x, max(x), LinComb.term(x)) for x in family(size)]
             for size in range(1, max_total)}
    for l1, l2 in _splits(max_total, 2):
        at_top = l1 + l2 == max_total
        for x, s1, a in pools[l1]:
            head = [v - 1 for v in x]
            shift = s1 - 1
            for y, s2, b in pools[l2]:
                get = itemgetter(*head, *[v + shift for v in y])
                for op, keys, coeffs in images[s1, s2][at_top]:
                    if op(a, b).terms != dict(zip(map(get, keys), coeffs)):
                        return False
    return True


def _relations_proven(family, max_total: int, pieces, product,
                      relations) -> bool:
    """`_relations_hold` on ``family`` with every key lifted to its basis
    element, proven from the identity triples.

    Relabelling by a followed by b shifted by max(a) and c shifted by
    max(a) + max(b) is linear and injective on terms.  In each relation
    (a f b) g c = a h (b k c) on keys of total size <= max_total, the outer
    operations g and h meet pairs of total size <= max_total, and the inner
    operations f and k meet pairs of total size <= max_total - 1, as the
    third key has size >= 1.  So when every operation is `_natural` on the
    pairs it meets, relabelling carries both sides of each relation on
    (id_m1, id_m2, id_m3) to the same side on (a, b, c) for the keys a, b, c
    of maxima m1, m2, m3, and the relations are checked on one identity
    triple per split of maxima.  An operation that no relation applies
    outermost is checked only on the smaller pairs, as nothing reads it on
    the others.
    """
    outer = {op for _, g, h, _ in relations for op in (g, h)}
    inner = [op for op in (*pieces, product) if op not in outer]
    return _natural(family, max_total, pieces, product, inner) \
        and _relations_hold(_identities, max_total, relations, LinComb.term)


def _distinct_on_generator(pieces, one=LinComb.term((1,))) -> bool:
    """The pieces are nonzero and pairwise distinct on the generator pair,
    so no piece is empty and none is another piece again."""
    values = [piece(one, one) for piece in pieces]
    return all(values) and all(
        u != v for u, v in itertools.combinations(values, 2))


def dendriform_axioms_fqsym(max_total: int) -> bool:
    """(x<y)<z = x<(yz), (x>y)<z = x>(y<z) and (xy)>z = x>(y>z), proven for
    every triple of basis keys of total size <= max_total by
    `_relations_proven`, with the halves nonzero and distinct.  The halves,
    which some relation applies outermost, are checked natural on every pair
    of total size <= max_total; the product, which the relations apply only
    inside, on every pair of total size <= max_total - 1, the largest pair
    a triple feeds it.  So no size is sampled, and the halves sum to the
    product on every pair of total size < max_total and on the identity
    pairs of total max_total."""
    left, right, prod = fqsym_left, fqsym_right, fqsym_product
    return _distinct_on_generator((left, right)) and _relations_proven(
        permutations, max_total, (left, right), prod, [
            (left, left, left, prod), (right, left, right, left),
            (prod, right, right, right)])


def tridendriform_axioms_wqsym(max_total: int) -> bool:
    """The seven relations of the three-piece splitting on packed words,
    proven for every triple of basis keys of total size <= max_total by
    `_relations_proven`, with the thirds nonzero and distinct; and the
    embedding of the permutation algebra as an algebra morphism, checked on
    every basis pair of total size <= max_total.  Each third is applied
    outermost by some relation and is checked natural on every pair of
    total size <= max_total; the product is applied only inside, and is
    checked natural on every pair of total size <= max_total - 1."""
    left, mid, right = wqsym_left, wqsym_mid, wqsym_right
    prod = wqsym_product
    return _distinct_on_generator((left, mid, right)) and _relations_proven(
        packed_words, max_total, (left, mid, right), prod, [
            (left, left, left, prod), (right, left, right, left),
            (prod, right, right, right), (right, mid, right, mid),
            (left, mid, mid, right), (mid, left, mid, left),
            (mid, mid, mid, mid)]) and _is_morphism(
                permutations, fqsym_product, embed_fqsym_wqsym, prod,
                max_total)


def bialgebra_axiom_check(max_total: int) -> bool:
    """delta(x*y) = x(x)y + sum x1 (x) (x2*y) + sum (x*y1) (x) y2
    for * in {<, >} on pairs of basis keys of total degree <= max_total."""
    for op in (cqsym_prec, cqsym_succ):
        for a, b in _keys_by_total(ndpfs, max_total, 2):
            x, y = LinComb.term(a), LinComb.term(b)
            lhs = dup_coproduct(op(x, y))
            rhs = LinComb(itertools.chain(
                [((a, b), 1)],
                (((x1, k), c * c2) for (x1, x2), c in dup_coproduct(x)
                 for k, c2 in op(LinComb.term(x2), y)),
                (((k, y2), c * c2) for (y1, y2), c in dup_coproduct(y)
                 for k, c2 in op(x, LinComb.term(y1)))))
            if lhs != rhs:
                return False
    return True


def coassociativity_check(max_degree: int) -> bool:
    """(delta (x) id) delta = (id (x) delta) delta, flattened to triples."""
    for n in range(1, max_degree + 1):
        for pi in ndpfs(n):
            delta = dup_coproduct(LinComb.term(pi))
            lhs = LinComb(((a, b, k2), c * c2) for (k1, k2), c in delta
                          for (a, b), c2 in dup_coproduct(LinComb.term(k1)))
            rhs = LinComb(((k1, a, b), c * c2) for (k1, k2), c in delta
                          for (a, b), c2 in dup_coproduct(LinComb.term(k2)))
            if lhs != rhs:
                return False
    return True


# -- serialization -------------------------------------------------------------


def element_to_json(a: LinComb, basis: str) -> dict:
    terms = sorted((word_to_text(k), str(c)) for k, c in a)
    return {"basis": basis,
            "terms": [{"key": k, "coeff": c} for k, c in terms]}
