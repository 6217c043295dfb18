import argparse
import contextlib
import csv
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import parkhopf
from parkhopf import chars, combinat, exact, hopf, lagrange, operad, symfun
from parkhopf.cli import (_CHECKS, _ENUM_FAMILIES, _SUITES, _TABLES,
                          _coalesced, _outcome, build_parser, main)
from parkhopf.exact import P_ONE, LinComb, Poly
from test_combinat import pack


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_lines(capsys):
    code, out = run(capsys, "enumerate", "--family", "ndpf", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["111", "112", "113", "122", "123"]


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "--family", "qribbon", "--n", "2",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "parkhopf/1"
    assert data["count"] == 3
    assert data["items"] == ["11", "12", "1|2"]


def test_enumerate_csv(capsys):
    code, out = run(capsys, "enumerate", "--family", "tree", "--n", "2",
                    "--format", "csv")
    assert code == 0
    lines = [l.strip() for l in out.strip().splitlines()]
    assert lines[0] == "item"
    assert '"((.,.),.)"' in lines or "((.,.),.)" in lines


# each family as the cached library tuples give it, rendered in the test
_LIBRARY_ITEMS = {
    "pf": lambda n: map(combinat.word_to_text, combinat.parking_functions(n)),
    "ndpf": lambda n: map(combinat.word_to_text, combinat.ndpfs(n)),
    "qribbon": lambda n: (next(combinat.ribbons_to_text([q]))
                          for q in combinat.quasi_ribbons(n)),
    "packed": lambda n: map(combinat.word_to_text, combinat.packed_words(n)),
    "perm": lambda n: map(combinat.word_to_text, combinat.permutations(n)),
    "signed-pf": lambda n: (
        chars.signed_to_text(e * x for e, x in zip(signs, w))
        for w in combinat.parking_functions(n)
        for signs in itertools.product((-1, 1), repeat=n)),
    "dyck": chars.dyck_paths,
    "schroder": chars.schroder_paths,
    "tree": lambda n: map(combinat.tree_to_text, combinat.binary_trees(n)),
}


def _rendered(family, n, fmt):
    items = list(_LIBRARY_ITEMS[family](n))
    if fmt == "lines":
        return "".join(f"{item}\n" for item in items)
    if fmt == "json":
        return json.dumps({"schema": "parkhopf/1", "family": family, "n": n,
                           "count": len(items), "items": items}) + "\n"
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["item"])
    for item in items:
        writer.writerow([item])
    return out.getvalue()


def test_every_family_streams_the_library_rendering(capsys):
    assert set(_LIBRARY_ITEMS) == set(_ENUM_FAMILIES)
    for family in _LIBRARY_ITEMS:
        for n in range(6):
            for fmt in ("lines", "json", "csv"):
                code, out = run(capsys, "enumerate", "--family", family,
                                "--n", str(n), "--format", fmt)
                assert code == 0
                assert out == _rendered(family, n, fmt), (family, n, fmt)


def test_block_rendering_matches_item_rendering(capsys):
    # sizes with many blocks of items, a last partial block among them
    sizes = [(family, n) for family in ("pf", "ndpf", "packed", "perm")
             for n in (6, 7)]
    # ndpfs of 10 and 11 letters: runs that mix digit and comma words
    sizes += [("ndpf", 10), ("ndpf", 11)]
    sizes += [("qribbon", 7), ("tree", 8), ("dyck", 8), ("schroder", 6),
              ("signed-pf", 4)]
    for family, n in sizes:
        for fmt in ("lines", "json", "csv"):
            code, out = run(capsys, "enumerate", "--family", family,
                            "--n", str(n), "--format", fmt)
            assert code == 0
            assert out == _rendered(family, n, fmt), (family, n, fmt)


def test_enumerate_csv_writes_once_per_text(monkeypatch):
    # the rows of each coalesced text, the header with the first, go out
    # in one write, not one write per item
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "--family", "pf", "--n", "6",
                 "--format", "csv"]) == 0
    texts = list(_coalesced(combinat.word_texts("pf", 6)))
    assert len(texts) > 1 and len(writes) == len(texts)
    assert out.getvalue() == _rendered("pf", 6, "csv")


def test_enumerate_counts_come_from_closed_forms():
    # an independent count of every family, compared with its formula
    for family, (_, count) in _ENUM_FAMILIES.items():
        for n in range(6 if family == "signed-pf" else 8):
            assert count(n) == sum(1 for _ in _LIBRARY_ITEMS[family](n)), \
                (family, n)
    assert isinstance(_ENUM_FAMILIES["pf"][1](0), int)


def test_enumerate_over_budget_exits_2_at_once(capsys):
    start = time.monotonic()
    code = main(["enumerate", "--family", "signed-pf", "--n", "8"])
    assert time.monotonic() - start < 2
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1
    assert _exit_code(["enumerate", "--family", "signed-pf", "--n", "7"]) == 2
    capsys.readouterr()


def test_enumerate_budget_ignores_huge_raised_caps(capsys):
    # far past the budget no formula is evaluated at size n, so a huge size
    # fails at once, with a one-line message
    for family in _ENUM_FAMILIES:
        start = time.monotonic()
        code = main(["enumerate", "--family", family, "--n", "100000"])
        assert time.monotonic() - start < 2
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
    for _, count in _ENUM_FAMILIES.values():
        assert all(count(n) <= count(n + 1) for n in range(20))


def test_enumerate_trees_past_the_old_cap(capsys):
    code, out = run(capsys, "enumerate", "--family", "tree", "--n", "9")
    assert code == 0
    assert out.splitlines() == [combinat.tree_to_text(t)
                                for t in combinat.binary_trees(9)]


def _plant_ndpf_stream_short(monkeypatch):
    # the ndpf stream loses its first block, one short of its formula
    items, count = _ENUM_FAMILIES["ndpf"]
    monkeypatch.setitem(_ENUM_FAMILIES, "ndpf",
                        (lambda n: itertools.islice(items(n), 1, None), count))


def test_enumerate_short_stream_exits_1(capsys, monkeypatch):
    _plant_ndpf_stream_short(monkeypatch)
    assert main(["enumerate", "--family", "ndpf", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a check failed") and err.count("\n") == 1


def test_series_g_degree_four_terms(capsys):
    code, out = run(capsys, "series", "--which", "g", "--degree", "4")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "parkhopf/1"
    deg4 = data["components"][4]["terms"]
    table = {item["key"]: item["coeff"] for item in deg4}
    assert table == {"4": "1", "31": "3", "22": "2", "13": "1",
                     "211": "3", "121": "2", "112": "1", "1111": "1"}


def test_series_f(capsys):
    code, out = run(capsys, "series", "--which", "f", "--degree", "2")
    data = json.loads(out)
    keys = {item["key"] for item in data["components"][2]["terms"]}
    assert keys == {"110", "200"}


def test_series_G_and_X(capsys):
    code, out = run(capsys, "series", "--which", "G", "--degree", "3")
    data = json.loads(out)
    assert [item["key"] for item in data["components"][3]["terms"]] == \
        ["111", "112", "113", "122", "123"]
    code, out = run(capsys, "series", "--which", "X", "--degree", "2")
    data = json.loads(out)
    assert {item["key"] for item in data["components"][2]["terms"]} == \
        {"12", "21"}


def test_poly_outputs(capsys):
    code, out = run(capsys, "poly", "--which", "qn", "--n", "4")
    assert code == 0 and out.strip() == "24,58,37,6"
    code, out = run(capsys, "poly", "--which", "pn-t", "--n", "3")
    assert out.strip() == "5 + 10t + 6t^2 + t^3"
    # the top of schroder_polynomials, gated in tests/test_chars.py
    code, out = run(capsys, "poly", "--which", "pn-t", "--n", "8")
    assert code == 0 and out == ("1430 + 6435t + 12012t^2 + 12012t^3 + "
                                 "6930t^4 + 2310t^5 + 420t^6 + 36t^7 + t^8\n")
    code, out = run(capsys, "poly", "--which", "narayana", "--n", "3")
    assert out.strip() == "1 + 3q + q^2"
    code, out = run(capsys, "poly", "--which", "pn-alpha", "--n", "2")
    assert out.strip() == "a + 3a^2"
    code, out = run(capsys, "poly", "--which", "pn-alpha", "--n", "0")
    assert code == 0 and out.strip() == "1"
    code, out = run(capsys, "poly", "--which", "super-narayana", "--n", "2")
    assert out.strip() == "2 + q + 3t + 3qt + t^2 + 2qt^2"


def test_bijection_directions(capsys):
    code, out = run(capsys, "bijection", "--direction", "ndpf-to-tree",
                    "--input", "1133444")
    assert code == 0
    tree_text = out.strip()
    code, out = run(capsys, "bijection", "--direction", "tree-to-ndpf",
                    "--input", tree_text)
    assert out.strip() == "1133444"
    code, out = run(capsys, "bijection", "--direction", "dyck-encode",
                    "--input", "uuududdudd")
    assert out.strip() == "11124"
    code, out = run(capsys, "bijection", "--direction", "schroder-encode",
                    "--input", "uuhuddhd")
    assert out.strip() == "1,1,-1,2,-4"


def test_table_bar_distribution(capsys):
    code, out = run(capsys, "table", "--which", "bar-distribution",
                    "--n-max", "3")
    assert code == 0
    rows = [line.strip() for line in out.strip().splitlines()]
    assert rows == ["1", "2,1", "5,5,1"]


def test_table_a060693(capsys):
    code, out = run(capsys, "table", "--which", "a060693", "--n-max", "3")
    rows = [line.strip() for line in out.strip().splitlines()]
    assert rows == ["1,1", "2,3,1", "5,10,6,1"]


@pytest.mark.parametrize("which", sorted(_TABLES))
def test_table_checks_its_size_before_any_row(capsys, monkeypatch, which):
    # each table's LIMITS row is named after the library function that
    # builds its rows, which must not run for an --n-max past the top
    _, limit = _TABLES[which]
    calls = []
    monkeypatch.setattr(chars, limit, lambda n: calls.append(n))
    n_max = combinat.LIMITS[limit][1] + 1
    assert main(["table", "--which", which, "--n-max", str(n_max)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err == f"error: {limit} supports n <= {n_max - 1}, got {n_max}\n"


def test_verify_suite_ok(capsys):
    code, out = run(capsys, "verify", "--suite", "bialgebra", "--max-n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(r["ok"] for r in data["results"])


def test_verify_all_deterministic(capsys):
    code1, out1 = run(capsys, "verify", "--suite", "all", "--max-n", "3")
    code2, out2 = run(capsys, "verify", "--suite", "all", "--max-n", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_table(capsys):
    names = [check for _, check, _, _ in _CHECKS]
    assert len(names) == len(set(names)) == 36  # the bench verify gate count
    assert all(type(top) is int and top >= 1 for _, _, top, _ in _CHECKS)
    assert _SUITES == sorted({suite for suite, _, _, _ in _CHECKS})
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions
                 if a.dest == "suite")
    assert list(suite.choices) == [*_SUITES, "all"]
    code, out = run(capsys, "verify", "--suite", "all", "--max-n", "1")
    assert code == 0
    assert [r["check"] for r in json.loads(out)["results"]] == \
        [check for name in _SUITES
         for s, check, _, _ in _CHECKS if s == name]
    # --max-n stops at the largest top in the table
    top = max(top for _, _, top, _ in _CHECKS)
    assert build_parser().parse_args(
        ["verify", "--suite", "all", "--max-n", str(top)]).max_n == top == 8
    assert _exit_code(["verify", "--suite", "all",
                       "--max-n", str(top + 1)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "must be at most 8" in err


def _plant_qn_plus_one(monkeypatch):
    qn = chars.qn_polynomial
    monkeypatch.setattr(chars, "qn_polynomial", lambda n: qn(n) + 1)


def _plant_pn_not_divisible(monkeypatch):
    # P_n(t) + 1 has a constant term, so t no longer divides P_n(t - 1)
    divide = chars.narayana_from_pn
    monkeypatch.setattr(chars, "narayana_from_pn", lambda pn: divide(pn + 1))


@pytest.mark.parametrize("plant, faulty", [
    (_plant_qn_plus_one, {"q-triangle": "reciprocal identity fails"}),
    (_plant_pn_not_divisible, {"chi-checks": "is not divisible by",
                               "narayana-cross-check": "is not divisible by"}),
], ids=["qn-plus-one", "pn-not-divisible"])
def test_raising_check_fails_its_row_only(capsys, monkeypatch, plant, faulty):
    plant(monkeypatch)
    assert main(["verify", "--suite", "characters", "--max-n", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["ok"] is False
    results = report["results"]
    assert [r["check"] for r in results] == \
        [check for suite, check, _, _ in _CHECKS if suite == "characters"]
    for r in results:
        if r["check"] in faulty:
            assert r["ok"] is False
            assert faulty[r["check"]] in r["error"]
        else:
            assert r["ok"] is True and "error" not in r


def _plant_psi_without_factorial(monkeypatch):
    # F_w -> S^t(w), without the 1/n!
    monkeypatch.setattr(hopf, "morphism_psi", lambda a: LinComb(
        (combinat.packed_evaluation(w), c) for w, c in a))


def _plant_istar_one_part(monkeypatch):
    # every quasi-ribbon q -> R_(len(word)), its bars ignored
    monkeypatch.setattr(hopf, "istar_on_sqsym",
                        lambda a: a.map_keys(lambda q: (len(q[0]),)))


def _plant_schroder_path_dropped(monkeypatch):
    paths = chars.schroder_paths
    monkeypatch.setattr(chars, "schroder_paths",
                        lambda n: list(paths(n))[:-1])


def _plant_sorted_word_inverted(monkeypatch):
    # the last sorted word, n..1 all barred, comes reversed: its minus count
    # is kept, so the three counts still agree and only the inversion test
    # sees it
    words = chars._sorted_signed_pfs

    def last_reversed(n):
        *rest, last = words(n)
        return [*rest, last[::-1]]

    monkeypatch.setattr(chars, "_sorted_signed_pfs", last_reversed)


def _plant_signing_dropped(monkeypatch):
    # every step of the signing walk zeroes the lanes of the signings with
    # the first letter barred, as if they had been dropped; the count route
    # and the signed weight both read them
    step = chars._signing_step

    def first_barred_zeroed(state, x):
        word, bits, sinv, smaj = step(state, x)
        unbarred = int.from_bytes(b"\xff\x00" * (1 << (len(word) - 1)),
                                  "little")
        return word, bits, sinv & unbarred, smaj & unbarred

    monkeypatch.setattr(chars, "_signing_step", first_barred_zeroed)


def _plant_smaj_reads_sinv(monkeypatch):
    # every signing step gives sinv in place of smaj: the two distributions
    # of the count route then agree trivially
    step = chars._signing_step

    def sinv_as_smaj(state, x):
        *letters, sinv, _ = step(state, x)
        return (*letters, sinv, sinv)

    monkeypatch.setattr(chars, "_signing_step", sinv_as_smaj)


def _plant_qbinom_plus_qn(monkeypatch):
    qbinom = chars._qbinom
    monkeypatch.setattr(chars, "_qbinom", lambda n, k: (
        qbinom(n, k) + Poly.var("q") ** n))


def _plant_narayana_off_by_one(monkeypatch):
    divide = chars.narayana_from_pn
    monkeypatch.setattr(chars, "narayana_from_pn", lambda pn: divide(pn) + 1)


def _plant_s_product_reversed(monkeypatch):
    # S^I S^J = S^(J.I): f and g are both solved with the faulty product
    s_product = lagrange.s_product
    monkeypatch.setattr(lagrange, "s_product", lambda a, b: s_product(b, a))


def _plant_partition_weight_off_by_one(monkeypatch):
    # the first partition, (n), weighs one more, in lagrange and in the
    # characters that import it
    partitions = lagrange.g_partitions

    def off_by_one(n):
        return partitions(n) + LinComb.term((n,) if n else ())

    monkeypatch.setattr(lagrange, "g_partitions", off_by_one)
    monkeypatch.setattr(chars, "g_partitions", off_by_one)


def _plant_lagrange_power_n(monkeypatch):
    # [z^n] phi^n / (n+1): the power of phi one short, in lagrange and in
    # the characters that import it
    def power_n(c, n):
        power = [P_ONE] + [Poly()] * n  # phi^0, through z^n
        for _ in range(n):
            power = [Poly.sum(power[i] * c[k - i] for i in range(k + 1))
                     for k in range(n + 1)]
        return power[n].scale(Fraction(1, n + 1))

    monkeypatch.setattr(lagrange, "lagrange_coefficient", power_n)
    monkeypatch.setattr(chars, "lagrange_coefficient", power_n)


def _plant_ndpf_dropped(monkeypatch):
    ndpfs = combinat.ndpfs
    monkeypatch.setattr(combinat, "ndpfs", lambda n: ndpfs(n)[:-1])


def _plant_quasi_ribbon_dropped(monkeypatch):
    ribbons = combinat.quasi_ribbons
    monkeypatch.setattr(combinat, "quasi_ribbons", lambda n: ribbons(n)[:-1])


def _plant_iota_identity(monkeypatch):
    monkeypatch.setattr(lagrange, "iota", lambda pi: pi)


def _plant_conjugate_is_reversal(monkeypatch):
    # the conjugate of a composition read as its reversal; lagrange imports
    # it by name
    monkeypatch.setattr(lagrange, "comp_conjugate",
                        lambda i: tuple(reversed(i)))


def _plant_istar_evaluation_reversed(monkeypatch):
    # P^pi -> S^t with t the packed evaluation of pi read backwards
    monkeypatch.setattr(lagrange, "istar_on_cqsym", lambda a: a.map_keys(
        lambda pi: combinat.packed_evaluation(pi)[::-1]))


def _plant_shuffle_row_dropped(monkeypatch):
    # the left half of every convolution loses its last term
    tables = hopf._shuffle_tables
    monkeypatch.setattr(hopf, "_shuffle_tables", lambda n, m: {
        True: tables(n, m)[True][:-1], False: tables(n, m)[False]})


def _plant_packed_row_dropped(monkeypatch):
    # the middle third of every packed-word product loses its last term
    tables = hopf._packed_tables
    monkeypatch.setattr(hopf, "_packed_tables", lambda k1, k2: {
        **tables(k1, k2), 0: tables(k1, k2)[0][:-1]})


def _plant_shuffle_all_left(monkeypatch):
    # every term of the convolution goes to the left half and none to the
    # right: the three relations still hold, with the right half zero
    tables = hopf._shuffle_tables
    monkeypatch.setattr(hopf, "_shuffle_tables", lambda n, m: {
        True: tables(n, m)[True] + tables(n, m)[False], False: []})


def _plant_packed_all_left(monkeypatch):
    # every term of the packed-word product goes to the left third: the
    # seven relations still hold, with the other two thirds zero
    tables = hopf._packed_tables
    monkeypatch.setattr(hopf, "_packed_tables", lambda k1, k2: {
        -1: [row for rows in tables(k1, k2).values() for row in rows],
        0: [], 1: []})


def _plant_relabelled_off_identity(monkeypatch):
    # a product of two factors that hold no identity word comes out
    # doubled: every product the identity triples form has an identity
    # factor, so they all stay right
    relabelled = hopf._relabelled

    def doubled_off_identity(a, b, tables, keep):
        value = relabelled(a, b, tables, keep)
        if any(k == tuple(range(1, len(k) + 1)) for k, _ in [*a, *b]):
            return value
        return value.scale(2)

    monkeypatch.setattr(hopf, "_relabelled", doubled_off_identity)


def _plant_max_shift_too_far(monkeypatch):
    # a left word of two or more letters shifts beta by max, not max - 1
    concat = hopf.shifted_concat_max
    monkeypatch.setattr(hopf, "shifted_concat_max", lambda alpha, beta: (
        concat(alpha, beta) if len(alpha) < 2
        else tuple(alpha) + tuple(v + max(alpha) for v in beta)))


def _plant_right_labels_shifted_by_m(monkeypatch):
    # right-subtree labels shifted by m, not m - 1
    def tree_to_ndpf(t):
        if t is None:
            return ()
        left, right = t
        lw = tree_to_ndpf(left)
        m = len(lw) + 1
        return lw + (m,) + tuple(v + m for v in tree_to_ndpf(right))

    monkeypatch.setattr(lagrange, "tree_to_ndpf", tree_to_ndpf)


def _plant_mid_is_succ(monkeypatch):
    # every relation of the row also holds with this degenerate middle
    monkeypatch.setattr(hopf, "qr_mid", hopf.qr_succ)


def _plant_coproduct_unreduced(monkeypatch):
    # the cuts at either end are kept, so not even the generator is primitive
    monkeypatch.setattr(hopf, "dup_coproduct", lambda a: LinComb(
        ((combinat.parkize(pi[:k]), combinat.parkize(pi[k:])), c)
        for pi, c in a for k in range(len(pi) + 1)))


def _plant_last_cut_dropped(monkeypatch):
    # the cut before the last letter is lost
    monkeypatch.setattr(hopf, "dup_coproduct", lambda a: LinComb(
        ((combinat.parkize(pi[:k]), combinat.parkize(pi[k:])), c)
        for pi, c in a for k in range(1, len(pi) - 1)))


def _plant_span_one_short(monkeypatch):
    # the elimination keeps one vector too few; operad imports it by name
    monkeypatch.setattr(operad, "independent",
                        lambda vectors: exact.independent(vectors)[:-1])


def _plant_o_over_succ_kept(monkeypatch):
    # o(>(A, B), C) rewrites to o(A, >(B, C)), each operation kept at its
    # depth, in place of >(A, o(B, C)); the rules still terminate
    steps = operad.rewrite_all_steps

    def rewrite_all_steps(t):
        if t is None or t[0] != "o" or t[1] is None or t[1][0] != ">":
            return steps(t)
        _, (_, a, b), c = t
        _, *rest = steps(t)
        return [("o", a, (">", b, c)), *rest]

    monkeypatch.setattr(operad, "rewrite_all_steps", rewrite_all_steps)


def _plant_bracket_is_sum(monkeypatch):
    # {a, b} = a < b + a > b, which takes primitives out of the kernel
    monkeypatch.setattr(hopf, "dup_bracket", lambda a, b: (
        hopf.cqsym_prec(a, b) + hopf.cqsym_succ(a, b)))


def _plant_prec_is_succ(monkeypatch):
    # both concatenations shift by the length, so the cross relation holds
    monkeypatch.setattr(hopf, "shifted_concat_max", hopf.shifted_concat_len)


def _plant_expand_to_one_word(monkeypatch):
    # P^pi -> F_pi, the sorted word alone
    monkeypatch.setattr(hopf, "cqsym_expand_F", lambda a: a)


def _plant_embed_permutations_only(monkeypatch):
    # G_sigma -> M_sigma, the packed words with repeated letters left out
    monkeypatch.setattr(hopf, "embed_fqsym_wqsym", lambda a: a)


def _plant_istar_packs(monkeypatch):
    # F_a -> F_pack(a), which keeps ties: the identity would still be a
    # morphism
    monkeypatch.setattr(hopf, "morphism_istar",
                        lambda a: a.map_keys(pack))


def _plant_ribbon_product_concat_only(monkeypatch):
    # R_I R_J = R_(I.J), the near-concatenation dropped
    monkeypatch.setattr(chars, "ribbon_product", symfun.s_product)


# the size a row runs at in the test below when not at its top: the fqsym
# and sqsym rows cost about 0.4 s and 0.2 s a run at their top of 8
_FAULT_SIZES = {"fqsym-dendriform-axioms": 5, "wqsym-tridendriform-axioms": 5,
                "cqsym-duplicial-axioms": 6, "tree-bijection-roundtrip": 6,
                "sqsym-triduplicial-axioms": 6}


# (row, a fault in a library function it reads, whether the row raises)
_FAULTS = [
    ("psi-alpha-checks", _plant_psi_without_factorial, False),
    ("chi-checks", _plant_istar_one_part, False),
    ("schroder-polynomial-routes", _plant_schroder_path_dropped, True),
    ("schroder-polynomial-routes", _plant_sorted_word_inverted, True),
    ("super-narayana-routes", _plant_signing_dropped, False),
    ("super-narayana-routes", _plant_smaj_reads_sinv, True),
    ("signed-character", _plant_signing_dropped, False),
    ("signed-character", _plant_smaj_reads_sinv, False),
    ("signed-character", _plant_qbinom_plus_qn, False),
    ("narayana-cross-check", _plant_narayana_off_by_one, False),
    ("narayana-cross-check", _plant_partition_weight_off_by_one, True),
    ("narayana-cross-check", _plant_lagrange_power_n, True),
    ("psi-alpha-checks", _plant_partition_weight_off_by_one, False),
    ("f-unit-specialization", _plant_s_product_reversed, False),
    ("f-closed-form", _plant_s_product_reversed, False),
    ("g-closed-form", _plant_partition_weight_off_by_one, False),
    ("G-is-sum-of-all-ndpf", _plant_ndpf_dropped, False),
    ("dup-eval-bijection", _plant_ndpf_dropped, False),
    ("tri-eval-bijection", _plant_quasi_ribbon_dropped, False),
    ("iota-involution", _plant_iota_identity, False),
    ("q-basis-product", _plant_iota_identity, False),
    ("packed-evaluation-classes-are-intervals", _plant_s_product_reversed,
     False),
    ("g-symmetry", _plant_conjugate_is_reversal, False),
    ("phi-of-G", _plant_istar_evaluation_reversed, False),
    ("fqsym-dendriform-axioms", _plant_shuffle_row_dropped, False),
    ("wqsym-tridendriform-axioms", _plant_packed_row_dropped, False),
    ("fqsym-dendriform-axioms", _plant_shuffle_all_left, False),
    ("wqsym-tridendriform-axioms", _plant_packed_all_left, False),
    ("cqsym-duplicial-axioms", _plant_max_shift_too_far, False),
    ("tree-bijection-roundtrip", _plant_right_labels_shifted_by_m, False),
    ("sqsym-triduplicial-axioms", _plant_mid_is_succ, False),
    ("generator-primitive", _plant_coproduct_unreduced, False),
    ("small-primitives-in-kernel", _plant_bracket_is_sum, False),
    ("cqsym-cross-relation-counterexample", _plant_prec_is_succ, False),
    ("q-triangle", _plant_qn_plus_one, True),
    ("primitive-dimensions", _plant_last_cut_dropped, False),
    ("coassociativity", _plant_last_cut_dropped, False),
    ("bialgebra-axiom", _plant_last_cut_dropped, False),
    ("confluence-empirical", _plant_o_over_succ_kept, False),
    ("wqsym-tridendriform-span", _plant_span_one_short, False),
    # the morphisms folded into rows that also check other statements
    ("pqsym-duplicial-axioms", _plant_expand_to_one_word, False),
    ("wqsym-tridendriform-axioms", _plant_embed_permutations_only, False),
    ("psi-alpha-checks", _plant_istar_packs, False),
    ("chi-checks", _plant_ribbon_product_concat_only, False),
    ("G-is-sum-of-all-ndpf", _plant_right_labels_shifted_by_m, False),
]


@pytest.mark.parametrize("check, plant, raises", _FAULTS)
def test_rewritten_row_fails_under_its_fault(monkeypatch, check, plant,
                                             raises):
    # each row holds at its size, and a planted fault in a library function
    # it reads turns it false; a fault that breaks a value's own routes
    # fails the row with the message in "error"
    top, run = next((top, run) for _, name, top, run in _CHECKS
                    if name == check)
    n = _FAULT_SIZES.get(check, top)
    assert _outcome(run, n) == {"ok": True}
    plant(monkeypatch)
    result = _outcome(run, n)
    assert result["ok"] is False
    assert ("error" in result) is raises


def test_rows_without_a_planted_fault():
    # a new row comes with its fault in _FAULTS, and a row leaves this set
    # when it gets one
    assert {name for _, name, _, _ in _CHECKS} \
        - {check for check, _, _ in _FAULTS} == {
            "tri-normal-form-counts", "dup-normal-form-counts",
            "shape-characterization", "canopy-partition"}


@pytest.mark.parametrize("check, n", [
    ("primitive-dimensions", 8), ("tri-normal-form-counts", 6),
    ("dup-normal-form-counts", 7), ("wqsym-tridendriform-span", 6)])
def test_sequence_row_holds_past_its_top(check, n):
    # each row is gated by a closed form, not a list that ends at its top
    run = next(run for _, name, _, run in _CHECKS if name == check)
    assert _outcome(run, n) == {"ok": True}


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--family", "bogus", "--n", "2"])
    assert err.value.code == 2
    code = main(["bijection", "--direction", "ndpf-to-tree", "--input", "21"])
    assert code == 2  # 21 is not nondecreasing


@pytest.mark.parametrize("argv, plant, code", [
    (["enumerate", "--family", "ndpf", "--n", "3"], None, 0),
    (["enumerate", "--family", "ndpf", "--n", "3"], _plant_ndpf_stream_short,
     1),
    (["bijection", "--direction", "ndpf-to-tree", "--input", "21"], None, 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_main_freezes_the_collector_at_every_exit(capsys, monkeypatch, argv,
                                                  plant, code):
    # the collections at interpreter exit skip frozen objects, so main
    # freezes the heap once its output is out, whatever it returns
    if plant:
        plant(monkeypatch)
    gc.unfreeze()
    try:
        assert main(argv) == code
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_help_runs(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


# a tree nested 1,200 deep
_DEEP_TREE = "(" * 1200 + "." + ",.)" * 1200


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["bijection", "--direction", "tree-to-ndpf", "--input", "(.,"],
    ["bijection", "--direction", "tree-to-ndpf", "--input", "("],
    ["series", "--which", "g", "--degree", "-1"],
    ["series", "--which", "X", "--degree", "9"],
    ["enumerate", "--family", "dyck", "--n", "-1"],
    ["poly", "--which", "qn", "--n", "-1"],
    ["table", "--which", "qn-triangle", "--n-max", "-1"],
    ["verify", "--suite", "rewriting", "--max-n", "-3"],
    ["verify", "--suite", "all", "--max-n", "0"],
    ["poly", "--which", "narayana", "--n", "0"],
    ["bijection", "--direction", "ndpf-to-tree", "--input", "0"],
    # empty comma fields are rejected, not skipped
    ["bijection", "--direction", "ndpf-to-tree", "--input", ",,,"],
    ["bijection", "--direction", "ndpf-to-tree", "--input", "1,,2"],
    ["verify", "--suite", "all", "--max-n", "9"],
    # within the budget but past the library's n <= 12, checked before the
    # first byte of any format
    ["enumerate", "--family", "ndpf", "--n", "13", "--format", "json"],
    ["enumerate", "--family", "tree", "--n", "13", "--format", "csv"],
    # inputs over 500 characters, which the tree bijections would recurse
    # through past Python's limit
    ["bijection", "--direction", "ndpf-to-tree", "--input", "1" * 1200],
    ["bijection", "--direction", "tree-to-ndpf", "--input", _DEEP_TREE],
    ["bijection", "--direction", "dyck-encode", "--input", "u" * 501],
    ["poly", "--which", "pn-alpha", "--n", "13"],
    ["poly", "--which", "super-narayana", "--n", "13"],
    ["poly", "--which", "narayana", "--n", "13"],
    ["poly", "--which", "qn", "--n", "1500"],
    ["table", "--which", "bar-distribution", "--n-max", "11"],
    ["table", "--which", "a060693", "--n-max", "9"],
    ["series", "--which", "g", "--degree", "9"],
])
def test_malformed_input_exits_2(capsys, argv):
    start = time.monotonic()
    assert _exit_code(argv) == 2
    assert time.monotonic() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("error:") == 1


@pytest.mark.parametrize("which, row", [
    ("super-narayana", "super_narayana_sym"),
    ("narayana", "lassalle_narayana")])
def test_character_poly_at_its_top(capsys, which, row):
    # n = 12 is the top of the row, gated in tests/test_chars.py; 13 is
    # rejected with the row's name
    code, out = run(capsys, "poly", "--which", which, "--n", "12")
    assert code == 0 and out.count("\n") == 1
    assert _exit_code(["poly", "--which", which, "--n", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{row} supports n <= 12, got 13" in captured.err


def test_bijection_input_at_the_bound(capsys):
    # 500 characters is the longest input, and the deepest recursion: a word
    # of ones is a right comb, in digits or with commas
    code, out = run(capsys, "bijection", "--direction", "ndpf-to-tree",
                    "--input", "1" * 500)
    assert code == 0 and out == "(.," * 500 + "." + ")" * 500 + "\n"
    code, out = run(capsys, "bijection", "--direction", "ndpf-to-tree",
                    "--input", ",".join(["1"] * 250))
    assert code == 0 and out == "(.," * 250 + "." + ")" * 250 + "\n"
    code, back = run(capsys, "bijection", "--direction", "tree-to-ndpf",
                     "--input", "(" * 124 + "." + ",.)" * 124)
    assert code == 0 and back == ",".join(map(str, range(1, 125))) + "\n"


def test_failed_check_exits_1(capsys, monkeypatch):
    from parkhopf import chars

    def fail(n):
        raise AssertionError("the super-Narayana routes must agree")

    monkeypatch.setattr(chars, "super_narayana_sym", fail)
    assert main(["poly", "--which", "super-narayana", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, n", [
    (("poly", "--which", "pn-t", "--n", "3"), 3),
    (("table", "--which", "a060693", "--n-max", "3"), 1),
], ids=["poly-pn-t", "table-a060693"])
def test_disagreeing_schroder_routes_exit_1(capsys, monkeypatch, argv, n):
    # the path route loses a path, so it disagrees with the other two; the
    # table fails at its first row
    _plant_schroder_path_dropped(monkeypatch)
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: a check failed: the three routes to P_{n}(t) disagree\n"


def _module_env():
    src = os.path.dirname(os.path.dirname(parkhopf.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_module_entry_point_writes_no_stderr():
    # `python -m parkhopf.cli` must not find the module already imported by
    # the package, which makes runpy warn on stderr
    proc = subprocess.run(
        [sys.executable, "-m", "parkhopf.cli", "poly", "--which", "qn",
         "--n", "4"], capture_output=True, text=True, env=_module_env(),
        timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "24,58,37,6\n"
    assert proc.stderr == ""


def test_package_import_skips_dataclasses_and_inspect():
    # every process pays for what `import parkhopf` loads
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, parkhopf; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=_module_env(), timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "pf", "--n", "6"],
    # 4,782,969 lines: it ends in time only if it writes as it enumerates
    ["enumerate", "--family", "pf", "--n", "8"],
    # blocks that leave the one-translate path, split for csv
    ["enumerate", "--family", "perm", "--n", "10", "--format", "csv"],
    # blocks of an item family, split for json
    ["enumerate", "--family", "qribbon", "--n", "11", "--format", "json"],
    ["verify", "--suite", "all", "--max-n", "2"],
])
def test_closed_stdout_ends_quietly(argv):
    # like `parkhopf ... | head -1`: the reader is gone before the first
    # write, which is no failure and prints no traceback.  stdout is block
    # buffered, as by default, so the small verify output fails only when
    # flushed and the large enumeration fails while it is printed.
    env = _module_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "parkhopf.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_verify_runs_under_optimize_flag():
    # the checks raise instead of asserting, so -O changes nothing
    argv = ["-m", "parkhopf.cli", "verify", "--suite", "all", "--max-n", "4"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                       env=_module_env(), timeout=120)
        for flags in ([], ["-O"]))
    assert optimized.returncode == plain.returncode == 0
    assert optimized.stdout == plain.stdout
    assert optimized.stderr == b""


# Small sizes are drawn in -2..4 to bound the runtime, and 100000 is past
# every cap and budget; the other size texts are not integers at all.
_SIZE = st.one_of(st.integers(-2, 4).map(str),
                  st.sampled_from(["", "abc", "2.5", "-0", "+3", "1e2", "0x3",
                                   "100000"]))
_TEXT = st.one_of(
    st.sampled_from(["", "(", "(.,", "(.,.)", "((.,.),.)", "(.,.", "x",
                     "uuddd", "ud", "uhd", "uuhuddhd", "du", "h", "21",
                     "1133444", "1a2", "-1", "0", "11,2", "1 2",
                     "1" * 1200, "u" * 600 + "d" * 600, "uh" * 600,
                     "(" * 300 + "." + ",.)" * 300, _DEEP_TREE]),
    st.text(alphabet="(),.udh0123456789- ", max_size=10))


def _choice(options):
    return st.sampled_from([*options, "bogus"])


_ARGV = st.one_of(
    st.tuples(st.just("enumerate"), st.just("--family"),
              _choice(sorted(_ENUM_FAMILIES)), st.just("--n"), _SIZE,
              st.just("--format"), _choice(("lines", "json", "csv"))),
    st.tuples(st.just("series"), st.just("--which"),
              _choice(("g", "f", "G", "X")), st.just("--degree"), _SIZE),
    st.tuples(st.just("poly"), st.just("--which"),
              _choice(("super-narayana", "pn-t", "narayana", "pn-alpha",
                       "qn")), st.just("--n"), _SIZE),
    st.tuples(st.just("bijection"), st.just("--direction"),
              _choice(("tree-to-ndpf", "ndpf-to-tree", "dyck-encode",
                       "schroder-encode")), st.just("--input"), _TEXT),
    st.tuples(st.just("verify"), st.just("--suite"),
              _choice((*sorted(_SUITES), "all")), st.just("--max-n"), _SIZE),
    st.tuples(st.just("table"), st.just("--which"),
              _choice(("qn-triangle", "a060693", "bar-distribution")),
              st.just("--n-max"), _SIZE, st.just("--format"),
              _choice(("csv", "json"))),
).map(list)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ARGV)
def test_exit_code_contract(argv):
    # any argv of any subcommand: exit 0, 1 or 2, and never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
