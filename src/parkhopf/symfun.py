"""Noncommutative symmetric functions: S and R bases on composition keys,
the extended algebra with a degree-zero generator, and `evaluate`, the one
commutative specialization S^I -> h_(i_1) h_(i_2) ... through which the
characters are applied to the generic solution g_n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod

from .combinat import (coarser_leq, comp_concat, comp_near_concat,
                       compositions)
from .exact import P_ONE, LinComb, Poly


class SymElem:
    """An element of the free algebra on S_1, S_2, ... (or its R-basis form).

    ``extended`` admits zero parts in the keys, for words like ev(pi).0 in
    the algebra with the extra degree-zero indeterminate.
    """

    __slots__ = ("basis", "terms", "extended")

    def __init__(self, basis: str, terms: LinComb | None = None,
                 extended: bool = False):
        if basis not in ("S", "R"):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.terms = terms if terms is not None else LinComb()
        self.extended = extended
        floor = 0 if extended else 1
        for key, _ in self.terms:
            if any(p < floor for p in key):
                raise ValueError(f"invalid composition key {key} (extended={extended})")
        if extended and basis != "S":
            raise ValueError("the extended algebra only carries the S basis")

    @classmethod
    def s(cls, key, coeff=1, extended: bool = False) -> "SymElem":
        return cls("S", LinComb.term(tuple(key), coeff), extended)

    @classmethod
    def r(cls, key, coeff=1) -> "SymElem":
        return cls("R", LinComb.term(tuple(key), coeff))

    @classmethod
    def one(cls, basis: str = "S", extended: bool = False) -> "SymElem":
        return cls(basis, LinComb.term((), 1), extended)

    @classmethod
    def zero(cls, basis: str = "S", extended: bool = False) -> "SymElem":
        return cls(basis, LinComb(), extended)

    def _like(self, terms: LinComb) -> "SymElem":
        return SymElem(self.basis, terms, self.extended)

    def __add__(self, other: "SymElem") -> "SymElem":
        self._check_compatible(other)
        return self._like(self.terms + other.terms)

    def __sub__(self, other: "SymElem") -> "SymElem":
        self._check_compatible(other)
        return self._like(self.terms - other.terms)

    def __neg__(self):
        return self._like(-self.terms)

    def scale(self, c) -> "SymElem":
        return self._like(self.terms.scale(c))

    def _check_compatible(self, other: "SymElem"):
        if not isinstance(other, SymElem):
            raise TypeError(f"not a SymElem: {other!r}")
        if self.basis != other.basis or self.extended != other.extended:
            raise ValueError(
                f"basis mismatch: {self.basis}/{self.extended} vs "
                f"{other.basis}/{other.extended}")

    def __mul__(self, other: "SymElem") -> "SymElem":
        self._check_compatible(other)
        rule = _concat_rule if self.basis == "S" else _ribbon_rule
        return self._like(LinComb(
            (k, c1 * c2) for k1, c1 in self.terms for k2, c2 in other.terms
            for k in rule(k1, k2)))

    def __eq__(self, other):
        return (isinstance(other, SymElem) and self.basis == other.basis
                and self.extended == other.extended and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.basis, self.extended, frozenset(self.terms.terms.items())))

    def coeff(self, key):
        return self.terms.coeff(tuple(key))

    def __str__(self):
        if not self.terms:
            return "0"
        def key_str(k):
            return self.basis + "^{" + ("".join(map(str, k)) or "()") + "}"
        bits = []
        for k, c in sorted(self.terms, key=lambda kv: (sum(kv[0]), kv[0])):
            bits.append(f"{c}*{key_str(k)}" if c != 1 else key_str(k))
        return " + ".join(bits)

    def __repr__(self):
        return f"SymElem({self})"


def _concat_rule(i, j) -> tuple:
    """S^I S^J = S^{I.J}."""
    return (comp_concat(i, j),)


def _ribbon_rule(i, j) -> tuple:
    """R_I R_J = R_{I.J} + R_{I |> J}."""
    if not i or not j:
        return (comp_concat(i, j),)
    return comp_concat(i, j), comp_near_concat(i, j)


def s_product(a: SymElem, b: SymElem) -> SymElem:
    if a.basis != "S" or b.basis != "S":
        raise ValueError("s_product needs both factors in the S basis")
    return a * b


def ribbon_product(a: SymElem, b: SymElem) -> SymElem:
    if a.basis != "R" or b.basis != "R":
        raise ValueError("ribbon_product needs both factors in the R basis")
    return a * b


def _check_not_extended(a: SymElem):
    if a.extended:
        raise ValueError("basis change is not defined on extended keys")


def S_to_R(a: SymElem) -> SymElem:
    """S^I = sum of R_J over all J coarser than or equal to I."""
    _check_not_extended(a)
    if a.basis == "R":
        return a
    return SymElem("R", LinComb((j, c) for i, c in a.terms
                                for j in compositions(sum(i))
                                if coarser_leq(j, i)))


def R_to_S(a: SymElem) -> SymElem:
    """R_I = sum over J <= I of (-1)^(l(I)-l(J)) S^J (Moebius inversion)."""
    _check_not_extended(a)
    if a.basis == "S":
        return a
    return SymElem("S", LinComb((j, (-1) ** (len(i) - len(j)) * c)
                                for i, c in a.terms
                                for j in compositions(sum(i))
                                if coarser_leq(j, i)))


def as2_axioms_check(n: int) -> bool:
    """(I *1 J) *2 K = I *1 (J *2 K) for *i in {concat, near-concat},
    over all composition triples of total size n, lifted to R-basis elements.
    """
    if n > 8:
        raise ValueError("as2_axioms_check supports n <= 8")
    ops = (comp_concat, comp_near_concat)
    for p in range(1, n - 1):
        for q in range(1, n - p):
            r = n - p - q
            if r < 1:
                continue
            for i in compositions(p):
                for j in compositions(q):
                    for k in compositions(r):
                        for op1, op2 in itertools.product(ops, repeat=2):
                            if op2(op1(i, j), k) != op1(i, op2(j, k)):
                                return False
                        lhs = SymElem.r(comp_concat(i, j)) * SymElem.r(k)
                        rhs = SymElem.r(i) * (SymElem.r(j) * SymElem.r(k))
                        if (SymElem.r(i) * SymElem.r(j)) * SymElem.r(k) != rhs or not lhs:
                            return False
    return True


# -- commutative evaluation ---------------------------------------------------


def evaluate(a: SymElem, h) -> Poly:
    """Commutative evaluation S^I -> prod_k h[i_k], for a character given by
    its complete-function values h[0] = 1, h[1], h[2], ... (polynomials or
    scalars), e.g. ``[binomial_poly(k - 1, k) for k in range(n + 1)]`` for
    the binomial element, or ``[1] + [1 - x] * n`` for the alphabet 1 - x."""
    if a.basis != "S":
        raise ValueError("evaluate expects the S basis")
    if a.extended:
        raise ValueError("evaluate rejects extended keys")
    return Poly.sum(prod((h[part] for part in key), start=Poly.coerce(c))
                    for key, c in a.terms)


def rising_factorial(base: Poly, m: int) -> Poly:
    return prod((base + j for j in range(m)), start=P_ONE)


def cycle_enumerator(i) -> Poly:
    """Z_I(a) = prod_k a(a+1)...(a+i_k-1), the cycle enumerator of the
    Young subgroup S_(i_1) x ... x S_(i_r)."""
    alpha = Poly.var("a")
    return prod((rising_factorial(alpha, part) for part in i), start=P_ONE)


def binomial_poly(shift: int, n: int) -> Poly:
    """C(a + shift, n) as a polynomial in a."""
    alpha = Poly.var("a")
    return prod((alpha + (shift - j) for j in range(n)),
                start=P_ONE).scale(Fraction(1, factorial(n)))
