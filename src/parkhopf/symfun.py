"""Noncommutative symmetric functions on composition keys.

An element is a LinComb on composition keys, like an element of every other
algebra here; the basis is the caller's to know.  In the S basis the key I
stands for S^I = S_(i_1) S_(i_2) ..., and the product is `s_product`; in the
R basis it stands for the ribbon R_I, and the product is `ribbon_product`.
`R_to_S` takes the R basis to the S basis.

A part 0 stands for S_0, the degree-zero generator of the extended algebra
that `lagrange.solve_f` works in.  Only `s_product` is defined there:
`evaluate` and `R_to_S` raise ValueError on a key with a part 0.

`evaluate` is the one commutative specialization S^I -> h_(i_1) h_(i_2) ...
through which the characters are applied to the generic solution g_n.
"""

from __future__ import annotations

from math import prod

from .combinat import (coarser_leq, comp_concat, comp_near_concat,
                       compositions)
from .exact import P_ONE, LinComb, Poly


def s_product(a: LinComb, b: LinComb) -> LinComb:
    """S^I S^J = S^{I.J}."""
    return LinComb((comp_concat(i, j), c1 * c2) for i, c1 in a for j, c2 in b)


def ribbon_product(a: LinComb, b: LinComb) -> LinComb:
    """R_I R_J = R_{I.J} + R_{I |> J}, with R_() the unit."""
    return LinComb((k, c1 * c2) for i, c1 in a for j, c2 in b
                   for k in ((comp_concat(i, j), comp_near_concat(i, j))
                             if i and j else (comp_concat(i, j),)))


def _without_part_0(a: LinComb, name: str) -> LinComb:
    """``a``, once no key of it has a part 0 (the extended generator S_0)."""
    for key, _ in a:
        if 0 in key:
            raise ValueError(f"{name} rejects the key {key}: its part 0 is "
                             f"S_0 of the extended algebra")
    return a


def R_to_S(a: LinComb) -> LinComb:
    """R_I = sum over J <= I of (-1)^(l(I)-l(J)) S^J (Moebius inversion)."""
    return LinComb((j, (-1) ** (len(i) - len(j)) * c)
                   for i, c in _without_part_0(a, "R_to_S")
                   for j in compositions(sum(i)) if coarser_leq(j, i))


# -- commutative evaluation ---------------------------------------------------


def evaluate(a: LinComb, h) -> Poly:
    """Commutative evaluation S^I -> prod_k h[i_k] of an S-basis LinComb on
    composition keys, for a character given by its complete-function values
    h[0] = 1, h[1], h[2], ... (polynomials or scalars), e.g.
    ``[rising_factorial(a, k) for k in range(n + 1)]`` for the binomial
    character after `hopf.morphism_psi`, or ``[1] + [1 - x] * n`` for the
    alphabet 1 - x.  A key with a part 0 (the extended generator S_0) raises
    ValueError."""
    return Poly.sum(prod((h[part] for part in key), start=Poly.coerce(c))
                    for key, c in _without_part_0(a, "evaluate"))


def rising_factorial(base: Poly, m: int) -> Poly:
    """(base)_m = base (base+1) ... (base+m-1)."""
    return prod((base + j for j in range(m)), start=P_ONE)
