"""Word-like combinatorial objects, their statistics, and exhaustive enumerators.

Words are 1-indexed tuples of machine integers.  All values are immutable and
all operations are pure functions.  Every family comes in a fixed canonical
order, free of duplicates: lexicographic on letter sequences, and for binary
trees by left-subtree size then recursively.  The word families (ndpfs,
parking functions, packed words, permutations, and the Dyck and Schroeder
paths, one letter per column) are walked one letter at a time by `_words`,
which gives one run of words per prefix: the prefix and the state it leads
to, whose tails end the run's words.  The tuple streams chain one map of
the prefix over the state's tails, a table built once per state, so each
word passes through one `itertools.chain`.  The walks recurse through
module-level functions that take their caches as arguments, so a stream
frees its caches by reference counting.  `word_texts`
renders each run as one text: the prefix text put before each line of the
state's block, the texts of all its tails, built once per state from the
blocks of the next states by `str.replace` (`_tail_blocks`).
`iter_ndpfs`, `iter_parking_functions`, `iter_packed_words`,
`iter_permutations`, `iter_quasi_ribbons` and `iter_binary_trees` yield
their items as they are found, and the tuples the algebra code reuses (`ndpfs`,
`parking_functions`, `packed_words`, `quasi_ribbons`, `binary_trees`,
cached, and `permutations`) are built from the same streams.  Every size
limit of the library, the enumeration range included, is one row of
`LIMITS`, a pair (low, top) with None for no bound at that end, checked by
`_check_size` as the first statement of the function it bounds: below the
low it raises "<row> needs n >= <low>, got <n>", past the top
"<row> supports n <= <top>, got <n>", and no other code raises a size
error.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cache, lru_cache
from operator import itemgetter, le

# the sizes each bounded function accepts, keyed by function name: a pair
# (low, top), None for no bound at that end; "enumeration" bounds every
# enumerator here, and "paths" the Dyck and Schroeder paths
LIMITS = {
    # chars
    "super_narayana_count": (0, 8), "super_narayana_sym": (0, 12),
    "s_character_check": (0, 4), "fsigma_signed_weight": (None, 23),
    "schroder_polynomials": (0, 8), "bar_distribution": (0, 10),
    "chi_sqsym": (1, 7), "pn_alpha": (0, 12), "fixed_pair_counts": (0, 5),
    "psi_alpha": (0, 10), "qn_polynomial": (0, 12),
    "q_triangle": (None, 12), "lassalle_narayana": (1, 12),
    # lagrange
    "solve_g": (None, 8), "solve_f": (None, 8), "solve_G_cqsym": (None, 8),
    "solve_X_fqsym": (None, 8), "tamari_poset": (0, 7),
    "tamari_intervals": (0, 7),
    # operad
    "all_eval_trees": (1, 13), "normal_forms": (1, None),
    "count_normal_forms(tri)": (1, 8), "count_normal_forms(dup)": (1, 10),
    "tridendriform_span_dimension": (1, 7),
    # hopf
    "primitive_dimension": (0, 9),
    "enumeration": (0, 12), "paths": (0, None),
}


def _check_size(name: str, n: int):
    """Reject a size n outside the row ``name`` of `LIMITS`."""
    low, top = LIMITS[name]
    if low is not None and n < low:
        raise ValueError(f"{name} needs n >= {low}, got {n}")
    if top is not None and n > top:
        raise ValueError(f"{name} supports n <= {top}, got {n}")


class NotInSubalgebraError(ValueError):
    """An element fails to regroup on the classes of a subalgebra basis."""


# -- predicates --------------------------------------------------------------


def is_parking(w) -> bool:
    """True iff the nondecreasing reordering a^ satisfies 1 <= a^_i <= i."""
    return all(1 <= v <= i for i, v in enumerate(sorted(w), start=1))


def is_ndpf(w) -> bool:
    """True iff 1 <= w_1 <= w_2 <= ... and w_i <= i for every position i."""
    return not w or (w[0] >= 1 and all(map(le, w, w[1:]))
                     and all(map(le, w, range(1, len(w) + 1))))


# -- basic word operations ---------------------------------------------------


def parkize(w) -> tuple:
    """Closure sending any word of positive integers to a parking function.

    The closure repeats "find the least i whose prefix count
    #{j : w_j <= i} falls short of i, and decrement every letter above it"
    until the word is parking.  It is computed in one pass over the distinct
    letters v_1 < v_2 < ...: with g_0 = v_0 = 0, the letter v_k becomes

        g_k = min(g_(k-1) + v_k - v_(k-1), 1 + #{letters < v_k}),

    so the gap below each letter is kept until it would open a deficit.
    """
    w = tuple(w)
    letters = sorted(w)
    if letters and letters[0] < 1:
        raise ValueError(f"letters must be >= 1: {w}")
    value, prev, g = {}, 0, 0
    for below, v in enumerate(letters):
        if v != prev:
            g = value[v] = min(g + v - prev, below + 1)
            prev = v
    return tuple(map(value.__getitem__, w))


def standardize(w) -> tuple:
    """The permutation order-isomorphic to w, ties broken left to right."""
    order = sorted(range(len(w)), key=lambda i: (w[i], i))
    std = [0] * len(w)
    for rank, i in enumerate(order, start=1):
        std[i] = rank
    return tuple(std)


def evaluation(w) -> tuple:
    """(|w|_1, ..., |w|_max): occurrence counts of each letter up to the max."""
    if not w:
        return ()
    counts = [0] * max(w)
    for v in w:
        counts[v - 1] += 1
    return tuple(counts)


def packed_evaluation(w) -> tuple:
    """t(w): the evaluation with zeros removed, as a composition."""
    return tuple(c for c in evaluation(w) if c)


def shifted_concat_len(alpha, beta) -> tuple:
    """alpha . beta[k] with k = |alpha| (the bullet concatenation); beta is
    shifted by one list comprehension."""
    k = len(alpha)
    return tuple(alpha) + tuple([v + k for v in beta])


def shifted_concat_max(alpha, beta) -> tuple:
    """alpha . beta[max(alpha) - 1] (the circle concatenation); beta is
    shifted as in `shifted_concat_len`."""
    if not alpha:
        raise ValueError("left factor of the max-shifted concatenation is empty")
    k = max(alpha) - 1
    return tuple(alpha) + tuple([v + k for v in beta])


@lru_cache(maxsize=None)
def _interleavings(n: int, m: int) -> tuple:
    """One ``itemgetter`` per interleaving of n letters with m, for n + m >= 2,
    reading a word of n + m letters: the first n go to the positions chosen
    by `itertools.combinations`, in that order, and the last m to the rest."""
    getters = []
    for chosen in itertools.combinations(range(n + m), n):
        slots = chosen + tuple(sorted(set(range(n + m)).difference(chosen)))
        getters.append(itemgetter(*sorted(range(n + m),
                                          key=slots.__getitem__)))
    return tuple(getters)


def shifted_shuffle(a, b, shift: int):
    """All interleavings of a and b shifted by ``shift``, as a list (multiset).

    The result has C(|a|+|b|, |a|) entries counted with multiplicity, with
    a's positions in `itertools.combinations` order.  Each is one cached
    getter of `_interleavings` applied to a followed by the shifted b; a
    word of fewer than two letters, for which itemgetter gives no tuple, is
    its own one interleaving.
    """
    a, b = tuple(a), tuple(b)
    word = a + tuple([v + shift for v in b])
    if len(word) < 2:
        return [word]
    return [get(word) for get in _interleavings(len(a), len(b))]


def recoils(sigma) -> frozenset:
    """Positions i such that i+1 appears before i in the permutation."""
    pos = {v: i for i, v in enumerate(sigma)}
    return frozenset(i for i in range(1, len(sigma)) if pos[i + 1] < pos[i])


# -- quasi-ribbons -----------------------------------------------------------
#
# A parking quasi-ribbon is a pair (word, bars): a nondecreasing parking
# function and the increasing tuple of its bar positions, a bar at i sitting
# between letters i and i + 1, at a strict ascent.  Tuple order is the
# canonical order: by word, then by bars.  The enumerators and the
# operations on quasi-ribbons build valid pairs without checking them, and
# no input is read as a quasi-ribbon.


def shape(q) -> tuple:
    """Composition of segment lengths between consecutive bars."""
    word, bars = q
    cuts = (0, *bars, len(word))
    return tuple(b - a for a, b in zip(cuts, cuts[1:]) if b > a)


def hypoplactic_quasi_ribbon(a) -> tuple:
    """The hypoplactic class P(a): sorted word with bars at the recoils of std(a)."""
    if not is_parking(a):
        raise ValueError(f"not a parking function: {a}")
    return tuple(sorted(a)), tuple(sorted(recoils(standardize(a))))


# -- compositions ------------------------------------------------------------


def comp_concat(i, j) -> tuple:
    return tuple(i) + tuple(j)


def comp_near_concat(i, j) -> tuple:
    """(i_1,...,i_r) |> (j_1,...,j_s) fuses the touching parts."""
    if not i or not j:
        raise ValueError("near-concatenation needs nonempty compositions")
    return tuple(i[:-1]) + (i[-1] + j[0],) + tuple(j[1:])


def comp_descents(i) -> frozenset:
    out, s = set(), 0
    for p in i[:-1]:
        s += p
        out.add(s)
    return frozenset(out)


def comp_from_descents(descents, n) -> tuple:
    cuts = [0, *sorted(descents), n]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


def comp_conjugate(i) -> tuple:
    """Ribbon-diagram conjugate: reverse, then complement the descent set."""
    n = sum(i)
    if n == 0:
        return ()
    rev = tuple(reversed(i))
    complement = set(range(1, n)) - comp_descents(rev)
    return comp_from_descents(complement, n)


def coarser_leq(i, j) -> bool:
    """Reverse refinement: the parts of i are sums of consecutive parts of j."""
    if sum(i) != sum(j):
        return False
    it = iter(j)
    for part in i:
        acc = 0
        while acc < part:
            try:
                acc += next(it)
            except StopIteration:
                return False
        if acc != part:
            return False
    return next(it, None) is None


# -- binary trees ------------------------------------------------------------
#
# A binary tree is either None (the empty tree / a leaf of the enclosing node)
# or a pair (left, right).  The size is the number of internal nodes.


def tree_to_text(t) -> str:
    return "." if t is None else f"({tree_to_text(t[0])},{tree_to_text(t[1])})"


def tree_parse(text: str):
    out, pos = _parse_tree(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing characters in tree text: {text!r}")
    return out


def _parse_tree(text: str, pos: int):
    # the tree whose text starts at pos, and the position past it; a slice
    # past the end is empty, so truncated text is a ValueError
    if text[pos:pos + 1] == ".":
        return None, pos + 1
    if text[pos:pos + 1] != "(":
        raise ValueError(f"bad tree text at {pos}: {text!r}")
    left, pos = _parse_tree(text, pos + 1)
    if text[pos:pos + 1] != ",":
        raise ValueError(f"expected ',' at {pos}: {text!r}")
    right, pos = _parse_tree(text, pos + 1)
    if text[pos:pos + 1] != ")":
        raise ValueError(f"expected ')' at {pos}: {text!r}")
    return (left, right), pos + 1


def tree_mirror(t):
    return None if t is None else (tree_mirror(t[1]), tree_mirror(t[0]))


def canopy(t) -> str:
    """Left/right word of the internal leaves (first and last leaf dropped)."""
    sides, stack = [], [(t, "L")]
    while stack:
        node, side = stack.pop()
        if node is None:
            sides.append(side)
        else:
            stack += (node[1], "R"), (node[0], "L")
    return "".join(sides[1:-1])


# -- enumerators -------------------------------------------------------------


def _words(family: str, n: int, head, empty):
    """The words of size n of ``family``, in lexicographic order, as runs:
    one (prefix, state, r) per prefix of all but r letters, r being the
    family's tail length, whose words are the prefix followed by each
    r-letter tail of ``state``.  A prefix is ``empty`` plus ``head(v)`` for
    each of its letters v in turn, so the walk carries it in the form its
    caller renders.

    n is checked against the family's row of `LIMITS` before this
    returns.  Returns the runs and the family's ``moves(state)``, cached,
    which list the (letter, next state) pairs by increasing letter.  Each
    move should lead to a state that can finish the word, so that no time
    goes to dead ends.
    """
    start, moves, tail, limit, letters = _WORD_FAMILIES[family]
    _check_size(limit, n)
    moves = cache(moves)
    n *= letters
    return _runs(moves, cache(head), tail, empty, start(n), n), moves


def _runs(moves, head, tail, prefix, state, r):
    # the runs of `_words` below one prefix
    if r <= tail:
        yield prefix, state, r
        return
    for v, after in moves(state):
        yield from _runs(moves, head, tail, prefix + head(v), after, r - 1)


def _ndpf_moves(state):
    # state (lo, hi): the next letter is at least the last one and at most
    # the next position
    lo, hi = state
    return [(v, (v, hi + 1)) for v in range(lo, hi + 1)]


def _parking_moves(free):
    # free: the spots no car has taken.  A car preferring spot v takes the
    # first free spot >= v, so it parks iff v <= the last free spot.
    out = []
    for v in range(1, free[-1] + 1):
        j = bisect_left(free, v)
        out.append((v, free[:j] + free[j + 1:]))
    return out


def _packed_moves(state):
    # state (r, top, missing): r letters still to place, the largest letter
    # so far, and the letters below it not used yet, which the r letters
    # must all fill
    r, top, missing = state
    out = [(v, (r - 1, top, tuple(m for m in missing if m != v)))
           for v in range(1, top + 1) if v in missing or len(missing) < r]
    out += [(v, (r - 1, v, missing + tuple(range(top + 1, v))))
            for v in range(top + 1, top + r - len(missing) + 1)]
    return out


def _perm_moves(unused):
    # unused: the letters not placed yet, increasing
    return [(v, unused[:i] + unused[i + 1:]) for i, v in enumerate(unused)]


def _path_moves(state):
    # state (r, h, flat): r columns left at height h, and whether flat
    # steps may come.  The state between the letters 3 and 4 of a flat step
    # is (r, ~h, flat).  The path stays between the axis and the height it
    # can come down from in r columns.
    r, h, flat = state
    if h < 0:
        return [(4, (r - 1, ~h, flat))]
    out = [(v, (r - 1, h + rise, flat)) for v, rise in ((1, 1), (2, -1))
           if 0 <= h + rise < r]
    return out + [(3, (r - 1, ~h, flat))] if flat and h + 2 <= r else out


# word family: (its start state at length n, its moves, its tail length,
# the row of `LIMITS` its size is checked on, its letters per unit of size).
# The last letters of every word come from its state's tails, a table of
# tuples or a block of texts built once per state, so most words cost one
# tuple concatenation, or a share of one `str.replace`.  Each family's tail
# length makes its runs long while its tables stay small: 3 for ndpf, and
# for pf, whose tables grow fastest (at tail 4, the tuple stream of pf of
# size 7 runs slower and peaks 2 MB higher); 4 for packed (about 190 words
# a run at n = 9); 5 for perm, whose runs are the 5! = 120 orders of the
# letters left.  A path's word has a letter per column, u 1, d 2 and h 3 4,
# so u < d < h, and a path of semi-length n has 2n; 8 columns keep at most
# 90 tails a state.
_WORD_FAMILIES = {
    "ndpf": (lambda n: (1, 1), _ndpf_moves, 3, "enumeration", 1),
    "pf": (lambda n: tuple(range(1, n + 1)), _parking_moves, 3,
           "enumeration", 1),
    "packed": (lambda n: (n, 0, ()), _packed_moves, 4, "enumeration", 1),
    "perm": (lambda n: tuple(range(1, n + 1)), _perm_moves, 5,
             "enumeration", 1),
    "dyck": (lambda n: (n, 0, False), _path_moves, 8, "paths", 2),
    "schroder": (lambda n: (n, 0, True), _path_moves, 8, "paths", 2),
}


def _word_stream(family: str, n: int):
    """The words of length n of ``family`` as tuples, one at a time, n
    checked first: each run is one map over its state's tails, a table
    built once per state, so a word passes through one `itertools.chain`
    and no generator frame."""
    runs, moves = _words(family, n, lambda v: (v,), ())
    tails = {}
    return itertools.chain.from_iterable(
        map(prefix.__add__, _tails(tails, moves, state, r))
        for prefix, state, r in runs)


def _tails(tails, moves, state, r):
    # the r-letter tails of state as tuples, memoised in the dict tails
    if (state, r) not in tails:
        tails[state, r] = ((),) if r == 0 else tuple(
            (v,) + t for v, after in moves(state)
            for t in _tails(tails, moves, after, r - 1))
    return tails[state, r]


def iter_ndpfs(n: int):
    """The nondecreasing parking functions of length n, lexicographically,
    one at a time."""
    return _word_stream("ndpf", n)


@lru_cache(maxsize=None)
def ndpfs(n: int) -> tuple:
    """All nondecreasing parking functions of length n, lexicographically."""
    return tuple(iter_ndpfs(n))


def iter_parking_functions(n: int):
    """The parking functions of length n, lexicographically, one at a time.

    Letter v may follow a prefix with r letters still to place iff every
    i < v has i - #{prefix letters <= i} <= r - 1.  Equivalently, when each
    letter is a car that parks at the first free spot at or after it, the
    letters allowed next are 1 up to the last free spot.
    """
    return _word_stream("pf", n)


@lru_cache(maxsize=None)
def parking_functions(n: int) -> tuple:
    """All parking functions of length n, lexicographically."""
    return tuple(iter_parking_functions(n))


def iter_packed_words(n: int):
    """The packed words of length n, lexicographically, one at a time.

    A letter may come next iff the letters still to place can fill every
    gap below the largest letter so far.
    """
    return _word_stream("packed", n)


@lru_cache(maxsize=None)
def packed_words(n: int) -> tuple:
    """All packed words of length n, lexicographically (ordered Bell many)."""
    return tuple(iter_packed_words(n))


def iter_permutations(n: int):
    """The permutations of 1..n, lexicographically, one at a time."""
    return _word_stream("perm", n)


def permutations(n: int) -> tuple:
    """All permutations of 1..n, lexicographically."""
    return tuple(iter_permutations(n))


def iter_quasi_ribbons(n: int):
    """The parking quasi-ribbons of size n in tuple order, one at a time:
    for each ndpf in turn, the subsets of its strict ascents as bars, in
    lexicographic order."""
    def bar_sets(pi):
        ascents = [i for i in range(1, n) if pi[i - 1] < pi[i]]
        return sorted(itertools.chain.from_iterable(
            itertools.combinations(ascents, r)
            for r in range(len(ascents) + 1)))

    # iter_ndpfs checks n now, before the first quasi-ribbon is asked for
    return ((pi, bars) for pi in iter_ndpfs(n) for bars in bar_sets(pi))


@lru_cache(maxsize=None)
def quasi_ribbons(n: int) -> tuple:
    """All parking quasi-ribbons of size n (little Schroeder many)."""
    return tuple(iter_quasi_ribbons(n))


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple:
    """The compositions of n, lexicographically: each first part p, then
    the cached compositions of n - p."""
    _check_size("enumeration", n)
    return ((),) if n == 0 else tuple(
        (p, *rest) for p in range(1, n + 1) for rest in compositions(n - p))


def iter_binary_trees(n: int):
    """The binary trees with n internal nodes, by left-subtree size, one at
    a time, each built from the cached trees of the smaller sizes."""
    _check_size("enumeration", n)
    if n == 0:
        return iter((None,))
    return ((left, right) for k in range(n) for left in binary_trees(k)
            for right in binary_trees(n - 1 - k))


@lru_cache(maxsize=None)
def binary_trees(n: int) -> tuple:
    """All binary trees with n internal nodes, by left-subtree size."""
    return tuple(iter_binary_trees(n))


# -- text encodings ----------------------------------------------------------


# byte v -> the digit v, for words whose letters are all digits
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def word_to_text(w) -> str:
    """Digit string, with comma separation as soon as a letter exceeds 9."""
    if w and (min(w) < 0 or max(w) >= 10):
        return ("," if max(w) >= 10 else "").join(map(str, w))
    return bytes(w).translate(_DIGITS).decode()


def _comma_lines(text: str) -> str:
    """The lines of ``text``, words whose letters are all digits, each
    rewritten as its comma text: the line "12" becomes "1,2"."""
    return ",".join(text).replace(",\n,", "\n")


def _tail_blocks(blocks, moves, state, r, wide_prefix):
    """The texts `word_to_text` gives the r-letter tails of ``state``, in
    order, joined by newlines, as (wide, text) segments cut where their
    format changes, memoised in the dict ``blocks``.  A segment is wide
    when its tails hold a letter past 9, and then its texts are comma
    texts, "1,10"; else they are digit texts, "12".  After a
    ``wide_prefix`` (a prefix holding a letter past 9) every tail takes
    commas, and the block is one wide segment.

    Each block is built once, from the blocks of the next states: a move
    to letter v puts its head, "v" or "v," before each line of the next
    state's block by one ``replace``, and a letter past 9 takes the wide
    block of its next state.
    """
    if (key := (state, r, wide_prefix)) in blocks:
        return blocks[key]
    if wide_prefix:
        out = ((True, "\n".join(
            text if wide else _comma_lines(text)
            for wide, text in _tail_blocks(blocks, moves, state, r, False))),)
    elif r == 0:
        out = ((False, ""),)
    else:
        segments = []
        for v, after in moves(state):
            for wide, text in _tail_blocks(blocks, moves, after, r - 1,
                                           v >= 10):
                # the last letter of a tail takes no comma after it
                head = f"{v}," if wide and r > 1 else str(v)
                segments.append((wide, head + text.replace("\n", "\n" + head)))
        out = tuple((wide, "\n".join(map(itemgetter(1), group)))
                    for wide, group in itertools.groupby(
                        segments, key=itemgetter(0)))
    blocks[key] = out
    return out


def word_texts(family: str, n: int):
    """The texts `word_to_text` gives the words of size n of ``family``
    (a row of `_WORD_FAMILIES`), in order, one text per run of words that
    share all but their last letters, as many as the family's tail length:
    the words' texts joined by newlines, with no newline at the end.  n is
    checked before this returns.

    A run is its prefix text put before each line of its state's block
    (`_tail_blocks`) by one ``replace`` per segment: the prefix's digits
    before a segment of digit texts, and its letters each followed by a
    comma before a segment of comma texts.  The walk carries the prefix's
    comma text, "1,10,", and its digit text is that with the commas taken
    out, so no run joins its letters one by one.
    """
    runs, moves = _words(family, n, "{},".format, "")
    return _run_texts(runs, {}, moves)


def _run_texts(runs, blocks, moves):
    for comma_prefix, state, r in runs:
        digit_prefix = comma_prefix.replace(",", "")
        # a digit text longer than the prefix's commas holds a 10 or more
        segments = _tail_blocks(blocks, moves, state, r,
                                2 * len(digit_prefix) > len(comma_prefix))
        if len(segments) == 1:
            wide, text = segments[0]
            q = comma_prefix if wide else digit_prefix
            yield q + text.replace("\n", "\n" + q)
        else:
            yield "\n".join(
                (q := comma_prefix if wide else digit_prefix)
                + text.replace("\n", "\n" + q) for wide, text in segments)


def comma_ints(text: str) -> tuple:
    """The ints of the comma-separated fields of text.  ValueError on an
    empty field, so "1,,2" and "1,2," are rejected, not read as (1, 2)."""
    fields = text.split(",")
    if not all(map(str.strip, fields)):
        raise ValueError(f"empty field in {text!r}")
    return tuple(map(int, fields))


def text_to_word(s: str) -> tuple:
    """The word `word_to_text` writes as s: letters split at commas if s
    holds one, else one digit each; the empty text is the empty word."""
    s = s.strip()
    if not s:
        return ()
    if "," in s:
        return comma_ints(s)
    return tuple(int(ch) for ch in s)


def ribbons_to_text(ribbons):
    """The texts of the quasi-ribbons, one at a time: the word's text with
    "|" at each bar, "11|3", or "1,2,3,4,5,6,7,8,9|10" once a letter exceeds
    9.  Each run of ribbons on one word renders the word once and cuts that
    text at the bars of each."""
    for word, run in itertools.groupby(ribbons, key=itemgetter(0)):
        text = word_to_text(word)
        ends = (len(word),)
        if "," in text:
            letters = text.split(",")
            yield from ("|".join(map(",".join, map(letters.__getitem__, map(
                slice, (0, *bars), bars + ends)))) for _, bars in run)
        else:
            yield from ("|".join(map(text.__getitem__, map(
                slice, (0, *bars), bars + ends))) for _, bars in run)
