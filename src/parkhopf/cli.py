"""Command-line front end: enumeration, series expansion, polynomial tables,
bijections, and the verification suites.

Every verify check is one row of ``_CHECKS``: its suite, its name, the
largest size it runs at, and the check itself.  A check runs at
min(--max-n, its top), and --max-n takes 1 up to the largest top (8).  A
check that raises fails: its row reads false with the message in an "error"
field, and the other rows still run.

Every enumerate family is one row of ``_ENUM_FAMILIES``: its items as text
in the library's order, in counted blocks, and its count from a closed
form.  Every family, tree included, streams: enumerate renders and writes
its items in blocks as they are produced, so no format holds the family in
memory, and JSON prints the formula count before it streams the items.  A
counted block is a pair (text, lines): its items already in the output
format, joined by the format's separator ("\\n", CRLF, or '", "' in JSON;
in CSV the items that hold a comma, and the empty item, between quotes),
and their number.  ``_coalesced`` joins blocks into writes of at
least ``_WRITE`` characters and sums their counts, and one write loop puts
them out after the format's head and before its end: the bytes of
``json.dumps`` and of ``csv.writer``, which is not imported.  No item holds
a quote, a backslash or a line end, so no other escaping is needed, and no
text is scanned or rewritten after its rendering.  A
block of a word family (pf, ndpf, packed, perm) is one run of words that
share all but their last letters, as many as the family's tail length: the
run's prefix text put before each line of its state's block, the texts of
the state's tails cached per state with their line count, by one
``str.replace`` that also puts in the separators and quotes
(``combinat.word_texts``); a Dyck or Schroeder path block
is such a run turned into steps by one ``str.translate``
(``chars.path_texts``).  Every other family is cut into blocks of
``_BLOCK`` items.  A family whose count is over ``_ENUM_BUDGET`` items
exits 2 before it enumerates anything, and a stream whose counts sum to
other than its formula exits 1.

Every size bound of the library is one row of ``combinat.LIMITS``, a pair
(low, top), and each command checks it before any work: a bounded function
checks its row first, and table checks the row of its --which before its
first row.  Below a low the error reads "<row> needs n >= <low>, got <n>",
past a top "<row> supports n <= <top>, got <n>".  bijection
takes at most ``_MAX_INPUT`` characters of input, which keeps the recursive
tree bijections inside Python's recursion limit.

Exit codes: 0 ok, 1 a check failed, 2 usage error or malformed input.  A
reader that closes stdout early is no error: the command stops quietly.  All
output is UTF-8 text; JSON payloads carry a top-level "schema": "parkhopf/1".

Once the command has returned and its output is flushed, `main` calls
``gc.freeze()``, whatever its exit code.  At exit CPython runs full cyclic
collections over every tracked object while it tears the modules down,
although the OS is about to reclaim the whole heap; frozen objects are
skipped, which saves a few milliseconds per command.  stdout and stderr are
still flushed and atexit handlers still run.  ``gc.disable()`` would not
do: the collections at exit do not read that flag.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from functools import partial
from math import comb, factorial

from . import chars, combinat, hopf, lagrange, operad
from .exact import LinComb, Poly

SCHEMA = "parkhopf/1"


# -- enumerate ----------------------------------------------------------------


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _large_schroder(n: int) -> int:
    """OEIS A006318: the sum over k of C(n+k, 2k) C_k."""
    return sum(comb(n + k, 2 * k) * _catalan(k) for k in range(n + 1))


def _little_schroder(n: int) -> int:
    """OEIS A001003: half the large Schroeder number, for n >= 1."""
    return _large_schroder(n) // 2 if n else 1


def _ordered_bell(n: int) -> int:
    """OEIS A000670: sum over k of k! S(n, k), with the Stirling numbers
    counted by inclusion-exclusion."""
    return sum((-1) ** (k - j) * comb(k, j) * j ** n
               for k in range(n + 1) for j in range(k + 1))


def _parking_count(n: int) -> int:
    return (n + 1) ** (n - 1) if n else 1


# items per block of `enumerate` for the families rendered an item at a
# time: enough to spread the per-call costs over many items, while larger
# blocks raise peak memory and gain no speed.  A block stays one text from
# its rendering until `_coalesced` joins it into a write.
_BLOCK = 256


def _joined(texts, sep, quote):
    """The texts as counted blocks: `_BLOCK` at a time joined by ``sep``,
    each text holding a comma, and the empty text, between two
    ``quote``s, with their number."""
    texts = iter(texts)
    for chunk in iter(lambda: list(itertools.islice(texts, _BLOCK)), []):
        if quote:
            chunk = [f"{quote}{text}{quote}" if "," in text or not text
                     else text for text in chunk]
        yield sep.join(chunk), len(chunk)


# the least text per write of `enumerate`, the default capacity of a Linux
# pipe: each write to a pipe may wake its reader, which costs more than the
# bytes of a run of a few hundred words (about 1 KB for pf of size 7)
_WRITE = 1 << 16


def _coalesced(blocks, sep):
    """The counted blocks joined by ``sep`` into counted texts of at least
    `_WRITE` characters each, the last one shorter, every text but the
    first starting with ``sep``, and the sum of their lines."""
    pending, size, lines = [], 0, 0
    for text, k in blocks:
        pending.append(text)
        size += len(text)
        lines += k
        if size >= _WRITE:
            yield sep.join(pending), lines
            pending, size, lines = [""], 0, 0
    if lines:
        yield sep.join(pending), lines


# format: (the text before its items, the text between two items, the
# quote around an item that holds a comma or is empty, the text after its
# items); json puts the report's other fields before its items.  These are
# the bytes of json.dumps of the whole report and of csv.writer, as no item
# holds a quote, a backslash or a control character.
_FORMATS = {"lines": ("", "\n", "", "\n"),
            "json": ('"', '", "', "", '"]}\n'),
            "csv": ("item\r\n", "\r\n", '"', "\r\n")}

# family: (its items of size n, joined by a format's separator and quote,
# as text in the library's order, in counted blocks, with every size check
# made before the first block; their number, from a closed form).  A
# counted block is a pair (text, lines): the text of its items and their
# number.  A word or path family's block is one run of words sharing a
# prefix, rendered from the cached block of its state's tail texts, which
# carries its count (`word_texts`); every other family's is `_BLOCK` items.
_ENUM_FAMILIES = {
    "pf": (partial(combinat.word_texts, "pf"), _parking_count),
    "ndpf": (partial(combinat.word_texts, "ndpf"), _catalan),
    "qribbon": (lambda n, *form: _joined(combinat.ribbons_to_text(
                    combinat.iter_quasi_ribbons(n)), *form),
                _little_schroder),
    "packed": (partial(combinat.word_texts, "packed"), _ordered_bell),
    "perm": (partial(combinat.word_texts, "perm"), factorial),
    "signed-pf": (lambda n, *form: _joined(map(
                      chars.signed_to_text,
                      chars.signed_parking_functions(n)), *form),
                  lambda n: 2 ** n * _parking_count(n)),
    "dyck": (partial(chars.path_texts, "dyck"), _catalan),
    "schroder": (partial(chars.path_texts, "schroder"), _large_schroder),
    "tree": (lambda n, *form: _joined(map(combinat.tree_to_text,
                                          combinat.iter_binary_trees(n)),
                                      *form),
             _catalan),
}
# the most items one enumerate run may print: parking functions of size 8
# (4,782,969) fit, signed parking functions of size 7 (33,554,432) do not
_ENUM_BUDGET = 10_000_000


def _cmd_enumerate(args) -> int:
    render, count_of = _ENUM_FAMILIES[args.family]
    # no count falls as n grows, so the scan stops at the first size over
    # the budget, and a huge n never evaluates its formula
    if any(count_of(k) > _ENUM_BUDGET for k in range(args.n + 1)):
        print(f"error: {args.family} of size {args.n} has more than "
              f"{_ENUM_BUDGET:,} items, the enumeration budget",
              file=sys.stderr)
        return 2
    count = count_of(args.n)
    head, sep, quote, end = _FORMATS[args.format]
    if args.format == "json":
        head = json.dumps({"schema": SCHEMA, "family": args.family,
                           "n": args.n, "count": count, "items": []})[:-2] \
            + head
    # the family checks its size here, before anything is written
    blocks = _coalesced(render(args.n, sep, quote), sep)
    # each write is one text of `_coalesced`, already in the format, with
    # the head before the first; the items are counted from the blocks'
    # counts, so no text is scanned again and no family is held in memory
    write = sys.stdout.write
    written = 0
    for text, lines in blocks:
        write(head + text)
        head = ""
        written += lines
    write(end)
    if written != count:
        raise AssertionError(f"{args.family} of size {args.n} gave {written} "
                             f"items, its closed form {count}")
    return 0


# -- series -------------------------------------------------------------------


def _nsym_json(elem: LinComb) -> list[dict]:
    """The terms of a LinComb on composition keys, in key order."""
    return [{"key": combinat.word_to_text(k), "coeff": str(c)}
            for k, c in sorted(elem)]


# series: (its solver, up to a degree; the JSON fields of one component).
# Rows look the library up when they run, as the ``_CHECKS`` rows do.
_SERIES = {
    "g": (lambda n: lagrange.solve_g(n),
          lambda comp: {"terms": _nsym_json(comp)}),
    "f": (lambda n: lagrange.solve_f(n),
          lambda comp: {"terms": _nsym_json(comp)}),
    "G": (lambda n: lagrange.solve_G_cqsym(n),
          lambda comp: hopf.element_to_json(comp, "P")),
    "X": (lambda n: lagrange.solve_X_fqsym(n),
          lambda comp: hopf.element_to_json(comp, "G")),
}


def _cmd_series(args) -> int:
    solve, component_json = _SERIES[args.which]
    components = [{"degree": d, **component_json(comp)}
                  for d, comp in enumerate(solve(args.degree))]
    print(json.dumps({"schema": SCHEMA, "series": args.which,
                      "degree": args.degree, "components": components}))
    return 0


# -- poly -----------------------------------------------------------------------


# poly: the text printed for size n.  Rows look the library up when they
# run, as the ``_CHECKS`` rows do.
_POLY = {
    "super-narayana": lambda n: chars.super_narayana_sym(n),
    "pn-t": lambda n: chars.schroder_polynomials(n),
    "narayana": lambda n: chars.lassalle_narayana(n),
    "pn-alpha": lambda n: chars.pn_alpha(n),
    "qn": lambda n: ",".join(str(int(c)) for c in
                             chars.qn_polynomial(n).coeff_row("q")),
}


def _cmd_poly(args) -> int:
    print(_POLY[args.which](args.n))
    return 0


# -- bijection --------------------------------------------------------------------


# bijection: the text printed for an input text.  Rows look the library up
# when they run, as the ``_CHECKS`` rows do.
_BIJECTIONS = {
    "tree-to-ndpf": lambda text: combinat.word_to_text(
        lagrange.tree_to_ndpf(combinat.tree_parse(text))),
    "ndpf-to-tree": lambda text: combinat.tree_to_text(
        lagrange.ndpf_to_tree(combinat.text_to_word(text))),
    "dyck-encode": lambda text: combinat.word_to_text(chars.dyck_encode(text)),
    "schroder-encode": lambda text: chars.signed_to_text(
        chars.schroder_encode(text)),
}


def _cmd_bijection(args) -> int:
    print(_BIJECTIONS[args.direction](args.input))
    return 0


# -- table ------------------------------------------------------------------------


def _t_rows(poly_of):
    """The t-coefficient rows of ``poly_of(n)`` for n = 1..n_max."""
    return lambda n_max: [[int(c) for c in poly_of(n).coeff_row("t")]
                          for n in range(1, n_max + 1)]


# table: (its rows for n = 1..n_max; the ``combinat.LIMITS`` row bounding
# n_max).  Rows look the library up when they run, as the ``_CHECKS`` rows
# do.
_TABLES = {
    "qn-triangle": (lambda n_max: chars.q_triangle(n_max), "q_triangle"),
    "a060693": (_t_rows(lambda n: chars.schroder_polynomials(n)),
                "schroder_polynomials"),
    "bar-distribution": (_t_rows(lambda n: chars.bar_distribution(n)),
                         "bar_distribution"),
}


def _cmd_table(args) -> int:
    rows_of, limit = _TABLES[args.which]
    combinat._check_size(limit, args.n_max)
    rows = rows_of(args.n_max)
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "table": args.which,
                          "rows": rows}))
    else:
        # the bytes of csv.writer: the ints of each row joined by commas
        sys.stdout.write("".join(",".join(map(str, row)) + "\r\n"
                                 for row in rows))
    return 0


# -- verify -----------------------------------------------------------------------


def _each(check):
    """A check of size n that holds when ``check(k)`` holds for k = 1..n."""
    return lambda n: all(check(k) for k in range(1, n + 1))


def _brackets_primitive(n: int) -> bool:
    x = LinComb.term((1,))
    xx = hopf.dup_bracket(x, x)
    return all(not hopf.dup_coproduct(b) for b in
               (xx, hopf.dup_bracket(xx, x), hopf.dup_bracket(x, xx)))


def _eval_bijective(mode: str, family):
    """Evaluating the size-k normal forms of ``mode`` is a bijection onto
    ``family(k)``."""
    def check(k: int) -> bool:
        values = [operad.eval_tree(t, mode)
                  for t in operad.normal_forms(mode, k)]
        return len(set(values)) == len(values) \
            and set(values) == set(family(k))
    return _each(check)


def _G_is_sum_of_all_ndpf(n: int) -> bool:
    """G_k is the sum of all ndpfs of size k, for k <= n, and the term
    B_T(1) of each tree T with at most n nodes is the one key P^pi with pi
    the tree's ndpf."""
    sums = all(set(g_k.terms) == set(combinat.ndpfs(k))
               and all(c == 1 for _, c in g_k)
               for k, g_k in enumerate(lagrange.solve_G_cqsym(n)))
    return sums and all(term == LinComb.term(lagrange.tree_to_ndpf(t))
                        for t, term in lagrange.tree_terms(n).items())


def _g_closed_forms(n: int) -> bool:
    """g_k is its closed form, and its coefficients summed over the
    compositions with the same parts are `lagrange.g_partitions`, for
    k <= n."""
    return all(lagrange.g_closed_form(k) == g_k
               and g_k.map_keys(lambda key: tuple(sorted(key, reverse=True)))
               == lagrange.g_partitions(k)
               for k, g_k in enumerate(lagrange.solve_g(n)))


def _iota_involution(k: int) -> bool:
    """iota is an involution on the ndpfs of size k, and conjugates their
    packed evaluations."""
    def holds(pi) -> bool:
        image = lagrange.iota(pi)
        return lagrange.iota(image) == pi \
            and combinat.packed_evaluation(image) \
            == combinat.comp_conjugate(combinat.packed_evaluation(pi))
    return all(map(holds, combinat.ndpfs(k)))


def _classes_are_intervals(n: int) -> bool:
    """Each packed-evaluation class of size k <= n is a Tamari interval
    whose size is the coefficient of its composition in g_k."""
    g = lagrange.solve_g(n)

    def holds(k: int) -> bool:
        classes = lagrange.tamari_intervals(k)
        return all(classes.get(comp, (False, 0)) == (True, g[k].coeff(comp))
                   for comp in combinat.compositions(k))
    return all(map(holds, range(1, n + 1)))


# (suite, check, top, check of size n): each check runs at min(--max-n, top),
# and a size-free check has top 1.  Rows look the library up when they run,
# so a patched or traced function is the one called.
_CHECKS = (
    ("duplicial", "cqsym-duplicial-axioms", 8,
     lambda n: hopf.duplicial_axioms_cqsym(n)),
    ("duplicial", "cqsym-cross-relation-counterexample", 1,
     lambda n: hopf.non_rules_fail()),
    ("duplicial", "pqsym-duplicial-axioms", 5,
     lambda n: hopf.duplicial_axioms_pqsym(n)),
    ("duplicial", "fqsym-dendriform-axioms", 8,
     lambda n: hopf.dendriform_axioms_fqsym(n)),
    ("triduplicial", "sqsym-triduplicial-axioms", 8,
     lambda n: hopf.triduplicial_axioms(n)),
    ("triduplicial", "wqsym-tridendriform-axioms", 5,
     lambda n: hopf.tridendriform_axioms_wqsym(n)),
    ("triduplicial", "wqsym-tridendriform-span", 5,
     _each(lambda k: operad.tridendriform_span_dimension(k)
           == _little_schroder(k))),
    ("bialgebra", "generator-primitive", 1,
     lambda n: not hopf.dup_coproduct(LinComb.term((1,)))),
    ("bialgebra", "small-primitives-in-kernel", 1, _brackets_primitive),
    ("bialgebra", "bialgebra-axiom", 5,
     lambda n: hopf.bialgebra_axiom_check(n)),
    ("bialgebra", "coassociativity", 5,
     lambda n: hopf.coassociativity_check(n)),
    ("bialgebra", "primitive-dimensions", 6,
     _each(lambda k: hopf.primitive_dimension(k) == _catalan(k - 1))),
    ("rewriting", "tri-normal-form-counts", 5,
     _each(lambda k: operad.count_normal_forms("tri", k)
           == _little_schroder(k))),
    ("rewriting", "dup-normal-form-counts", 6,
     _each(lambda k: operad.count_normal_forms("dup", k) == _catalan(k))),
    ("rewriting", "shape-characterization", 5,
     _each(lambda k: operad.normal_form_shape_check("tri", k)
           and operad.normal_form_shape_check("dup", k))),
    ("rewriting", "tri-eval-bijection", 5,
     _eval_bijective("tri", lambda k: combinat.quasi_ribbons(k))),
    ("rewriting", "dup-eval-bijection", 6,
     _eval_bijective("dup", lambda k: combinat.ndpfs(k))),
    # proven at every size, whatever n: the rules terminate, and arity 4
    # holds every critical monomial, so by the diamond lemma for operads
    # confluence there gives confluence at every arity
    ("rewriting", "confluence-empirical", 6,
     lambda n: operad.confluence_check("dup", 4)
     and operad.confluence_check("tri", 4)),
    ("lagrange", "f-unit-specialization", 6,
     lambda n: all(lagrange.f_unit_specialization(f_k)
                   == lagrange.g_closed_form(k)
                   for k, f_k in enumerate(lagrange.solve_f(n)))),
    ("lagrange", "f-closed-form", 6,
     lambda n: all(lagrange.f_closed_form(k) == f_k
                   for k, f_k in enumerate(lagrange.solve_f(n)))),
    ("lagrange", "g-closed-form", 7, _g_closed_forms),
    ("lagrange", "g-symmetry", 7, lambda n: lagrange.symmetry_of_g(n)),
    ("lagrange", "G-is-sum-of-all-ndpf", 7, _G_is_sum_of_all_ndpf),
    ("lagrange", "phi-of-G", 6, lambda n: lagrange.phi_of_G(n)),
    ("lagrange", "tree-bijection-roundtrip", 8,
     lambda n: all(lagrange.tree_to_ndpf(lagrange.ndpf_to_tree(pi)) == pi
                   for k in range(n + 1) for pi in combinat.ndpfs(k))),
    ("lagrange", "iota-involution", 8, _each(_iota_involution)),
    ("lagrange", "q-basis-product", 5,
     lambda n: lagrange.q_basis_product_check(n)),
    ("intervals", "packed-evaluation-classes-are-intervals", 6,
     _classes_are_intervals),
    ("intervals", "canopy-partition", 6,
     _each(lambda k: lagrange.canopy_evaluation_correspondence(k)[0])),
    ("characters", "super-narayana-routes", 5,
     _each(lambda k: chars.super_narayana_count(k)
           == chars.super_narayana_sym(k))),
    ("characters", "schroder-polynomial-routes", 6,
     _each(lambda k: chars.schroder_polynomials(k).substitute("t", 1)
           == _large_schroder(k))),
    ("characters", "chi-checks", 6, lambda n: chars.chi_sqsym(n)),
    ("characters", "psi-alpha-checks", 5, lambda n: chars.psi_alpha(n)),
    ("characters", "narayana-cross-check", 6,
     _each(lambda k: chars.lassalle_narayana(k)
           == chars.narayana_from_pn(chars.schroder_polynomials(k))
           .substitute("t", Poly.var("q")))),
    ("characters", "q-triangle", 6,
     lambda n: chars.q_triangle(n)[:4]
     == [[1], [2, 1], [6, 8, 2], [24, 58, 37, 6]][:n]),
    ("characters", "signed-character", 3,
     lambda n: chars.s_character_check(n)),
)
_SUITES = sorted({suite for suite, *_ in _CHECKS})


def _outcome(run, n: int) -> dict:
    """The result fields of one check: a check that raises fails, and its
    message goes into the report in place of ending the run."""
    try:
        return {"ok": bool(run(n))}
    except (AssertionError, ArithmeticError, ValueError) as exc:
        return {"ok": False, "error": str(exc)}


def _cmd_verify(args) -> int:
    names = _SUITES if args.suite == "all" else [args.suite]
    results = [{"suite": suite, "check": check,
                **_outcome(run, min(args.max_n, top))}
               for name in names
               for suite, check, top, run in _CHECKS if suite == name]
    all_ok = all(r["ok"] for r in results)
    print(json.dumps({"schema": SCHEMA, "ok": all_ok, "max_n": args.max_n,
                      "results": results}, indent=2))
    return 0 if all_ok else 1


# -- argument parsing ----------------------------------------------------------


# the longest bijection input: the tree bijections recurse once per letter
# or tree node, so 500 characters stay inside Python's recursion limit
_MAX_INPUT = 500


def _int_in(low: int, high: int | None = None):
    """An argparse type for an integer in ``low..high`` (no upper bound when
    ``high`` is None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be at most {high}, got {value}")
        return value
    return parse


def _text_up_to(limit: int):
    """An argparse type for a text of at most ``limit`` characters."""
    def parse(text: str) -> str:
        if len(text) > limit:
            raise argparse.ArgumentTypeError(
                f"must be at most {limit} characters, got {len(text)}")
        return text
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkhopf",
        description="Exact computations in the parking-function algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list a combinatorial family")
    p.add_argument("--family", required=True, choices=sorted(_ENUM_FAMILIES))
    p.add_argument("--n", type=_int_in(0), required=True)
    p.add_argument("--format", default="lines",
                   choices=("lines", "json", "csv"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("series", help="expand a functional-equation series")
    p.add_argument("--which", required=True, choices=tuple(_SERIES))
    p.add_argument("--degree", type=_int_in(0), required=True)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("poly", help="print a polynomial")
    p.add_argument("--which", required=True, choices=tuple(_POLY))
    p.add_argument("--n", type=_int_in(0), required=True)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("bijection", help="apply an encoding or bijection")
    p.add_argument("--direction", required=True, choices=tuple(_BIJECTIONS))
    p.add_argument("--input", type=_text_up_to(_MAX_INPUT), required=True)
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=(*_SUITES, "all"))
    p.add_argument("--max-n", default=5,
                   type=_int_in(1, max(top for _, _, top, _ in _CHECKS)))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="emit a coefficient table")
    p.add_argument("--which", required=True, choices=tuple(_TABLES))
    p.add_argument("--n-max", type=_int_in(0), required=True)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = 0
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, which fails no check: stop quietly,
        # and point stdout at devnull so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except AssertionError as exc:
        print(f"error: a check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # the output is out, so the collections the interpreter runs at exit
        # would only walk a heap the OS reclaims anyway: frozen, it is skipped
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
