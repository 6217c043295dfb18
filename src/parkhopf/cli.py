"""Command-line front end: enumeration, series expansion, polynomial tables,
bijections, and the verification suites.

Exit codes: 0 ok, 1 a check failed, 2 usage error or malformed input.  All
output is UTF-8 text; JSON payloads carry a top-level "schema": "parkhopf/1".
The environment variable PARKHOPF_MAX_N caps the enumeration size (default 8).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import chars, combinat, hopf, lagrange, operad
from .exact import LinComb, Poly

SCHEMA = "parkhopf/1"


def _max_n() -> int:
    raw = os.environ.get("PARKHOPF_MAX_N", "8")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(
            f"PARKHOPF_MAX_N must be a non-negative integer, got {raw!r}")
    return int(raw)


# -- enumerate ----------------------------------------------------------------


_ENUM_FAMILIES = {
    "pf": lambda n: [combinat.word_to_text(w)
                     for w in combinat.parking_functions(n)],
    "ndpf": lambda n: [combinat.word_to_text(w) for w in combinat.ndpfs(n)],
    "qribbon": lambda n: [str(q) for q in combinat.quasi_ribbons(n)],
    "packed": lambda n: [combinat.word_to_text(w)
                         for w in combinat.packed_words(n)],
    "perm": lambda n: [combinat.word_to_text(w)
                       for w in combinat.permutations(n)],
    "signed-pf": lambda n: [str(s)
                            for s in chars.signed_parking_functions(n)],
    "dyck": chars.dyck_paths,
    "schroder": chars.schroder_paths,
    "tree": lambda n: [combinat.tree_to_text(t)
                       for t in combinat.binary_trees(n)],
}


def _cmd_enumerate(args) -> int:
    cap = _max_n()
    if args.n > cap:
        print(f"error: n={args.n} exceeds the enumeration cap {cap} "
              "(set PARKHOPF_MAX_N to raise it)", file=sys.stderr)
        return 2
    items = list(_ENUM_FAMILIES[args.family](args.n))
    if args.format == "lines":
        for item in items:
            print(item)
    elif args.format == "json":
        print(json.dumps({"schema": SCHEMA, "family": args.family,
                          "n": args.n, "count": len(items), "items": items}))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["item"])
        for item in items:
            writer.writerow([item])
    return 0


# -- series -------------------------------------------------------------------


def _symelem_json(elem) -> list[dict]:
    keys = sorted(elem.terms.terms.items(), key=lambda kv: kv[0])
    return [{"key": "".join(str(p) for p in k), "coeff": str(c)}
            for k, c in keys]


def _cmd_series(args) -> int:
    n = args.degree
    components: list[dict] = []
    if args.which == "g":
        series = lagrange.solve_g(n)
        for d, comp in enumerate(series):
            components.append({"degree": d, "terms": _symelem_json(comp)})
    elif args.which == "f":
        series = lagrange.solve_f(n)
        for d, comp in enumerate(series):
            components.append({"degree": d, "terms": _symelem_json(comp)})
    elif args.which == "G":
        series = lagrange.solve_G_cqsym(n)
        for d, comp in enumerate(series):
            components.append(
                {"degree": d, **hopf.element_to_json(comp, "P")})
    else:
        series = lagrange.solve_X_fqsym(n)
        for d, comp in enumerate(series):
            components.append(
                {"degree": d, **hopf.element_to_json(comp, "G")})
    print(json.dumps({"schema": SCHEMA, "series": args.which,
                      "degree": n, "components": components}))
    return 0


# -- poly -----------------------------------------------------------------------


def _cmd_poly(args) -> int:
    n = args.n
    if args.which == "super-narayana":
        print(chars.super_narayana_sym(n))
    elif args.which == "pn-t":
        pn, ok = chars.schroder_polynomials(n)
        if not ok:
            print("error: the three routes disagree", file=sys.stderr)
            return 1
        print(pn)
    elif args.which == "narayana":
        print(chars.lassalle_narayana(n))
    elif args.which == "pn-alpha":
        print(chars.pn_alpha(n))
    else:  # qn
        print(",".join(str(int(c))
                       for c in chars.qn_polynomial(n).coeff_row("q")))
    return 0


# -- bijection --------------------------------------------------------------------


def _cmd_bijection(args) -> int:
    text = args.input
    if args.direction == "tree-to-ndpf":
        print(combinat.word_to_text(
            lagrange.tree_to_ndpf(combinat.tree_parse(text))))
    elif args.direction == "ndpf-to-tree":
        print(combinat.tree_to_text(
            lagrange.ndpf_to_tree(combinat.text_to_word(text))))
    elif args.direction == "dyck-encode":
        print(combinat.word_to_text(chars.dyck_encode(text)))
    else:  # schroder-encode
        print(str(chars.schroder_encode(text)))
    return 0


# -- table ------------------------------------------------------------------------


def _cmd_table(args) -> int:
    rows: list[list[int]] = []
    if args.which == "qn-triangle":
        rows = chars.q_triangle(args.n_max)
    elif args.which == "a060693":
        for n in range(1, args.n_max + 1):
            pn, ok = chars.schroder_polynomials(n)
            if not ok:
                print("error: the three routes disagree", file=sys.stderr)
                return 1
            rows.append([int(c) for c in pn.coeff_row("t")])
    else:  # bar-distribution
        for n in range(1, args.n_max + 1):
            rows.append([int(c)
                         for c in chars.bar_distribution(n).coeff_row("t")])
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "table": args.which,
                          "rows": rows}))
    else:
        out = io.StringIO()
        writer = csv.writer(out)
        for row in rows:
            writer.writerow(row)
        sys.stdout.write(out.getvalue())
    return 0


# -- verify -----------------------------------------------------------------------


def _suite_duplicial(max_n: int):
    yield "cqsym-duplicial-axioms", hopf.duplicial_axioms_cqsym(max_n)
    yield "cqsym-cross-relation-counterexample", hopf.cross_relation_fails_cqsym()
    yield "pqsym-duplicial-axioms", hopf.duplicial_axioms_pqsym(min(max_n, 5))
    yield "fqsym-dendriform-axioms", hopf.dendriform_axioms_fqsym(max_n)


def _suite_triduplicial(max_n: int):
    yield "sqsym-triduplicial-axioms", hopf.triduplicial_axioms(max_n)
    yield "wqsym-tridendriform-axioms", \
        hopf.tridendriform_axioms_wqsym(min(max_n, 5))
    dims = [operad.tridendriform_span_dimension(k)
            for k in range(1, min(max_n, 4) + 1)]
    yield "wqsym-tridendriform-span", dims == [1, 3, 11, 45][:len(dims)]


def _suite_bialgebra(max_n: int):
    x = LinComb.term((1,))
    yield "generator-primitive", not hopf.dup_coproduct(x)
    brackets = [
        hopf.dup_bracket(x, x),
        hopf.dup_bracket(hopf.dup_bracket(x, x), x),
        hopf.dup_bracket(x, hopf.dup_bracket(x, x)),
    ]
    yield "small-primitives-in-kernel", \
        all(not hopf.dup_coproduct(b) for b in brackets)
    yield "bialgebra-axiom", hopf.bialgebra_axiom_check(min(max_n, 5))
    yield "coassociativity", hopf.coassociativity_check(min(max_n, 5))
    catalan = [1, 1, 2, 5, 14, 42, 132]
    dims = [hopf.primitive_dimension(n) for n in range(1, min(max_n, 6) + 1)]
    yield "primitive-dimensions", dims == catalan[:len(dims)]


def _suite_rewriting(max_n: int):
    tri = [operad.count_normal_forms("tri", n)
           for n in range(1, min(max_n, 5) + 1)]
    dup = [operad.count_normal_forms("dup", n)
           for n in range(1, min(max_n, 6) + 1)]
    yield "tri-normal-form-counts", tri == [1, 3, 11, 45, 197][:len(tri)]
    yield "dup-normal-form-counts", dup == [1, 2, 5, 14, 42, 132][:len(dup)]
    yield "shape-characterization", all(
        operad.normal_form_shape_check(mode, n)
        for mode in ("tri", "dup") for n in range(1, min(max_n, 5) + 1))
    ok = True
    for n in range(1, min(max_n, 5) + 1):
        values = [operad.eval_tree(t, "tri")
                  for t in operad.normal_forms("tri", n)]
        ok = ok and len(set(values)) == len(values) \
            and set(values) == set(combinat.quasi_ribbons(n))
    yield "tri-eval-bijection", ok
    ok = True
    for n in range(1, min(max_n, 6) + 1):
        values = [operad.eval_tree(t, "dup")
                  for t in operad.normal_forms("dup", n)]
        ok = ok and len(set(values)) == len(values) \
            and set(values) == set(combinat.ndpfs(n))
    yield "dup-eval-bijection", ok
    yield "confluence-empirical", all(
        operad.confluence_check("dup", n) for n in range(1, min(max_n, 6) + 1)
    ) and all(operad.confluence_check("tri", n)
              for n in range(1, min(max_n, 5) + 1))


def _suite_lagrange(max_n: int):
    yield "f-residual", lagrange.residual_f(lagrange.solve_f(min(max_n, 6)))
    yield "f-closed-form", all(
        lagrange.f_closed_form(n) == lagrange.solve_f(min(max_n, 6))[n]
        for n in range(min(max_n, 6) + 1))
    yield "g-residual", lagrange.residual_g(lagrange.solve_g(min(max_n, 7)))
    yield "g-symmetry", lagrange.symmetry_of_g(min(max_n, 7))
    big_g = lagrange.solve_G_cqsym(min(max_n, 7))
    ok = all(set(big_g[n].terms) == set(combinat.ndpfs(n))
             and all(c == 1 for _, c in big_g[n])
             for n in range(min(max_n, 7) + 1))
    yield "G-is-sum-of-all-ndpf", ok
    yield "phi-of-G", lagrange.phi_of_G(min(max_n, 6))
    yield "tree-bijection-roundtrip", all(
        lagrange.tree_to_ndpf(lagrange.ndpf_to_tree(pi)) == pi
        for n in range(min(max_n, 8) + 1) for pi in combinat.ndpfs(n))
    yield "iota-involution", all(
        lagrange.iota(lagrange.iota(pi)) == pi
        for n in range(1, min(max_n, 8) + 1) for pi in combinat.ndpfs(n))
    yield "q-basis-product", lagrange.q_basis_product_check(min(max_n, 5))


def _suite_intervals(max_n: int):
    ok = True
    g = lagrange.solve_g(min(max_n, 6))
    for n in range(1, min(max_n, 6) + 1):
        for comp in combinat.compositions(n):
            is_interval, size = lagrange.tamari_interval_check(comp)
            ok = ok and is_interval and size == g[n].coeff(comp)
    yield "packed-evaluation-classes-are-intervals", ok
    yield "canopy-partition", all(
        lagrange.canopy_evaluation_correspondence(n)[0]
        for n in range(1, min(max_n, 6) + 1))


def _suite_characters(max_n: int):
    n_count = min(max_n, 4)
    yield "super-narayana-routes", all(
        chars.super_narayana_count(n) == chars.super_narayana_sym(n)
        for n in range(1, n_count + 1))
    yield "schroder-polynomial-routes", all(
        chars.schroder_polynomials(n)[1] for n in range(1, min(max_n, 6) + 1))
    yield "chi-checks", chars.chi_sqsym(min(max_n, 6))[1]
    yield "psi-alpha-checks", chars.psi_alpha(min(max_n, 5))[1]
    yield "narayana-cross-check", all(
        chars.lassalle_narayana(n)
        == chars.narayana_from_pn(chars.schroder_polynomials(n)[0])
        .substitute("t", Poly.var("q"))
        for n in range(1, min(max_n, 6) + 1))
    rows = chars.q_triangle(min(max_n, 6))[:4]
    yield "q-triangle", rows == [
        [1], [2, 1], [6, 8, 2], [24, 58, 37, 6]][:len(rows)]
    yield "signed-character", chars.s_character_check(min(max_n, 3))


_SUITES = {
    "duplicial": _suite_duplicial,
    "triduplicial": _suite_triduplicial,
    "bialgebra": _suite_bialgebra,
    "rewriting": _suite_rewriting,
    "lagrange": _suite_lagrange,
    "intervals": _suite_intervals,
    "characters": _suite_characters,
}


def _cmd_verify(args) -> int:
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        for check, ok in _SUITES[name](args.max_n):
            results.append({"suite": name, "check": check, "ok": bool(ok)})
    all_ok = all(r["ok"] for r in results)
    print(json.dumps({"schema": SCHEMA, "ok": all_ok, "max_n": args.max_n,
                      "results": results}, indent=2))
    return 0 if all_ok else 1


# -- argument parsing ----------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type for an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkhopf",
        description="Exact computations in the parking-function algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list a combinatorial family")
    p.add_argument("--family", required=True, choices=sorted(_ENUM_FAMILIES))
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--format", default="lines",
                   choices=("lines", "json", "csv"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("series", help="expand a functional-equation series")
    p.add_argument("--which", required=True, choices=("g", "f", "G", "X"))
    p.add_argument("--degree", type=_int_at_least(0), required=True)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("poly", help="print a polynomial")
    p.add_argument("--which", required=True,
                   choices=("super-narayana", "pn-t", "narayana",
                            "pn-alpha", "qn"))
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("bijection", help="apply an encoding or bijection")
    p.add_argument("--direction", required=True,
                   choices=("tree-to-ndpf", "ndpf-to-tree",
                            "dyck-encode", "schroder-encode"))
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=(*sorted(_SUITES), "all"))
    p.add_argument("--max-n", type=_int_at_least(1), default=5)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="emit a coefficient table")
    p.add_argument("--which", required=True,
                   choices=("qn-triangle", "a060693", "bar-distribution"))
    p.add_argument("--n-max", type=_int_at_least(0), required=True)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as exc:
        print(f"error: a check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
