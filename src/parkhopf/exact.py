"""Exact coefficient arithmetic: multivariate polynomials over Q,
free-module linear combinations, and exact linear algebra.

Coefficients are exact rationals: a `Poly` stores an `int` where the value is
integral and a `fractions.Fraction` otherwise; there is no floating point
anywhere in this package.  Coefficients that are all plain `int` are already
in that form, so `Poly` and `independent` take them as they are, without the
normalising pass that a `bool` or a `Fraction` needs.  Polynomials live in
the fixed variable set q, t, x, a (``a`` is the binomial-element
parameter), stored as a sparse map from dense exponent vectors to rational
coefficients.  A `Poly` has sums, products, substitution and one exact
division, by a single variable (`Poly.divided_by`, an exponent shift);
there are no rational functions, no polynomial gcds and no power series (a
series elsewhere is the list of its coefficients).  An integral polynomial
in two variables can also be held as one int, by Kronecker substitution in
a frame (width, slots) (`pack`, `unpack`): a long sum of products then
costs int arithmetic only, and is decoded into a `Poly` once.

Linear algebra is one sparse elimination routine on dict rows, `independent`:
integral and rational vectors are eliminated over Python ints with
fraction-free (Bareiss-style) updates, and the vectors that raise the rank
are kept.  Each row pivots on its smallest key, so the keys of one call must
be mutually comparable.  A span dimension is the number kept; a kernel
dimension is the size of a basis less the span dimension of its images.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, Iterator

VARS = ("q", "t", "x", "a")
NVARS = len(VARS)
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
_ZERO = (0,) * NVARS
# the coefficient types that need no normalising: a set of the types met in
# a dict's values that is a subset of this one holds plain ints only
_INT = frozenset((int,))


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division requested for a non-divisor."""


def _as_scalar(c) -> int | Fraction:
    """A rational scalar as an `int` when it is integral (``True`` becomes
    ``1``), else as a `Fraction`; TypeError for any other type."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"not a rational scalar: {c!r}")


def _collect(pairs, data=None) -> dict:
    """Merge ``(key, coeff)`` pairs, given as a dict or any iterable, into
    ``data`` (a new dict by default): coefficients of repeated keys are added
    and keys whose sum is zero are dropped.  `LinComb` and `Poly` build every
    sum and product through this one loop."""
    if data is None:
        data = {}
    if isinstance(pairs, dict):
        pairs = pairs.items()
    for k, c in pairs:
        s = data.get(k)
        s = c if s is None else s + c
        if s:
            data[k] = s
        else:
            data.pop(k, None)
    return data


def monomial(**powers: int) -> tuple:
    """The exponent tuple of a monomial, e.g. ``monomial(t=2, q=1)`` for
    t^2 q; the key of `Poly` terms."""
    exps = [0] * NVARS
    for name, p in powers.items():
        exps[_VAR_INDEX[name]] = p
    return tuple(exps)


class Poly:
    """Sparse multivariate polynomial over Q in the variables q,t,x,a.

    ``Poly(pairs)`` is how a polynomial is collected: it takes a dict or
    any iterable of ``(exponent tuple, coeff)`` pairs in one pass, merges
    repeated exponents by adding their coefficients, drops the exponents
    whose sum is zero and stores each surviving coefficient as an `int` when
    it is integral, else as a `Fraction`.
    Exponent tuples come from `monomial`.  Build a sum as one generator of
    pairs rather than by adding Poly values in a loop, which copies the
    whole polynomial on every step.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        terms = _collect(terms)
        if not set(map(type, terms.values())) <= _INT:
            terms = {e: _as_scalar(c) for e, c in terms.items()}
        self.terms = terms

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({_ZERO: c})

    @classmethod
    def var(cls, name: str, power: int = 1, coeff=1) -> "Poly":
        return cls({monomial(**{name: power}): coeff})

    @classmethod
    def sum(cls, polys) -> "Poly":
        """The sum of an iterable of polynomials, collected in one pass."""
        return cls(pair for p in polys for pair in p.terms.items())

    @classmethod
    def coerce(cls, value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return cls.const(value)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        return Poly(_collect(Poly.coerce(other).terms, dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Poly.coerce(other))

    def __rsub__(self, other):
        return Poly.coerce(other) + (-self)

    def __mul__(self, other):
        other = Poly.coerce(other)
        return Poly((tuple(map(add, e1, e2)), c1 * c2)
                    for e1, c1 in self.terms.items()
                    for e2, c2 in other.terms.items())

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- inspection --------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def constant_value(self) -> int | Fraction:
        if any(e != _ZERO for e in self.terms):
            raise ValueError(f"not a constant: {self}")
        return self.terms.get(_ZERO, 0)

    def coeffs_in(self, name: str) -> dict[int, "Poly"]:
        """Split into coefficients of powers of one variable."""
        i = _VAR_INDEX[name]
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            rest = e[:i] + (0,) + e[i + 1:]
            out.setdefault(e[i], {})[rest] = c
        return {k: Poly(v) for k, v in out.items()}

    def coeff_row(self, name: str) -> list[int | Fraction]:
        """Scalar coefficients of v^0, v^1, ..., v^degree for the variable v
        called ``name``, constant term first; ValueError if another variable
        occurs."""
        i = _VAR_INDEX[name]
        row = [0] * (self.degree() + 1)
        for e, c in self.terms.items():
            if sum(e) != e[i]:
                raise ValueError(f"not a polynomial in {name} alone: {self}")
            row[e[i]] = c
        return row

    def substitute(self, name: str, value) -> "Poly":
        """Substitute a polynomial (or scalar) for one variable."""
        value = Poly.coerce(value)
        parts = self.coeffs_in(name)
        powers = [P_ONE]
        for _ in range(max(parts, default=0)):
            powers.append(powers[-1] * value)
        return Poly.sum(coeff * powers[k] for k, coeff in parts.items())

    def scale(self, c) -> "Poly":
        c = _as_scalar(c)
        return Poly({e: c * v for e, v in self.terms.items()})

    def divided_by(self, name: str) -> "Poly":
        """The exact quotient by the variable ``name``: its exponent lowered
        by one in every term; NotDivisibleError if a term lacks it."""
        i = _VAR_INDEX[name]
        if not all(e[i] for e in self.terms):
            raise NotDivisibleError(f"({self}) is not divisible by {name}")
        return Poly({e[:i] + (e[i] - 1,) + e[i + 1:]: c
                     for e, c in self.terms.items()})

    # -- printing ----------------------------------------------------------

    @staticmethod
    def _monomial_str(exps) -> str:
        parts = []
        for i, p in enumerate(exps):
            if p == 1:
                parts.append(VARS[i])
            elif p > 1:
                parts.append(f"{VARS[i]}^{p}")
        return "".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=lambda m: (sum(m), tuple(-k for k in m))):
            c = self.terms[e]
            mono = self._monomial_str(e)
            neg = c < 0
            c = abs(c)
            if mono and c == 1:
                body = mono
            elif mono:
                cs = str(c) if c.denominator == 1 else f"({c})"
                body = f"{cs}{mono}"
            else:
                body = str(c)
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self})"


P_ONE = Poly.const(1)


# -- packed polynomials ------------------------------------------------------
#
# Kronecker substitution in a frame (width, slots): a polynomial in an inner
# variable u and an outer variable v, every u-degree below ``slots``, is the
# int of its value at u = 2^width, v = 2^(width * slots), so the coefficient
# of u^i v^j is the digit i + slots * j in base 2^width.  Ring operations on
# the ints are the ring operations on the polynomials, exactly, and the
# balanced digits of a result decode uniquely while each of its coefficients
# is below 2^(width - 1) in absolute value.  The width is a multiple of 8, so
# the digits are read as whole bytes.


def pack(poly: Poly, frame: tuple, inner: str = "q", outer: str = "x") -> int:
    """The int of an integral polynomial in ``inner`` and ``outer`` in the
    frame (width, slots); ValueError for any other variable, an inner
    degree of ``slots`` or more, or a coefficient that is not an `int`."""
    width, slots = frame
    i, o = _VAR_INDEX[inner], _VAR_INDEX[outer]
    value = 0
    for e, c in poly.terms.items():
        if type(c) is not int or e[i] >= slots or e[i] + e[o] != sum(e):
            raise ValueError(f"({poly}) does not pack in {inner} below "
                             f"degree {slots} and {outer}")
        value += c << width * (e[i] + slots * e[o])
    return value


def unpack(value: int, frame: tuple, inner: str = "q", outer: str = "x",
           sign: int = 1) -> Poly:
    """The polynomial in ``inner`` and ``outer`` of a packed int, read as
    balanced digits in the frame (width, slots), each power outer^j
    multiplied by sign^j: with ``sign=-1`` the int packed from P(u, v)
    reads as P(inner, -outer).  Exact when every coefficient is below
    2^(width - 1) in absolute value.

    One addition of the int with half of every digit makes every digit
    nonnegative; its bytes are then cut into the digits."""
    width, slots = frame
    size, half = width // 8, 1 << (width - 1)
    if width % 8:
        raise ValueError(f"frame width {width} is not a multiple of 8")
    # one digit more than the bits of the value fill: a top digit of 1 over
    # a digit of -2^(width - 1) leaves a value just below 2^(width*k - 1),
    # whose k digits, each raised by half, carry into one more
    count = value.bit_length() // width + 2
    digits = (value + int.from_bytes((bytes(size - 1) + b"\x80") * count,
                                     "little")).to_bytes(size * count,
                                                         "little")
    i, o = _VAR_INDEX[inner], _VAR_INDEX[outer]
    terms = {}
    for k in range(count):
        c = int.from_bytes(digits[k * size:(k + 1) * size], "little") - half
        if c:
            j, d = divmod(k, slots)
            e = [0] * NVARS
            e[i], e[o] = d, j
            terms[tuple(e)] = c * sign ** j
    return Poly(terms)


# -- linear combinations ----------------------------------------------------


class LinComb:
    """Finitely supported map from basis keys to coefficients.

    Keys can be any hashable value; coefficients any exact scalar type
    (int, Fraction, Poly) closed under + and *.

    ``LinComb(pairs)`` is how a sum is collected: it takes any iterable of
    ``(key, coeff)`` pairs in one pass, merges repeated keys by adding their
    coefficients and drops the keys whose sum is zero.  Build a product or a
    map as one generator of pairs rather than by adding LinComb values in a
    loop, which copies the whole accumulated dict on every step.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = _collect(terms)

    @classmethod
    def term(cls, key, coeff=1) -> "LinComb":
        """``coeff`` times the basis element ``key``; zero for a zero coeff."""
        res = cls.__new__(cls)
        res.terms = {key: coeff} if coeff else {}
        return res

    def __add__(self, other: "LinComb") -> "LinComb":
        res = LinComb.__new__(LinComb)
        res.terms = _collect(other.terms, dict(self.terms))
        return res

    def __neg__(self):
        res = LinComb.__new__(LinComb)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, c) -> "LinComb":
        if not c:
            return LinComb()
        res = LinComb.__new__(LinComb)
        res.terms = {k: c * v for k, v in self.terms.items()}
        return res

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __iter__(self) -> Iterator:
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def coeff(self, key):
        return self.terms.get(key, 0)

    def map_keys(self, f: Callable) -> "LinComb":
        return LinComb((f(k), c) for k, c in self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*[{k}]" for k, c in sorted(
            self.terms.items(), key=lambda kv: repr(kv[0])))

    def __repr__(self):
        return f"LinComb({self})"


# -- exact linear algebra ----------------------------------------------------


def independent(vectors: list[LinComb]) -> list[LinComb]:
    """The vectors, in input order, that are not in the span over Q of the
    vectors before them: a basis of the span, taken from the input.

    Coefficients must be `int` or `Fraction`; any other type raises
    TypeError.  The keys must be mutually comparable: they are numbered
    once, in sorted order, and the rows are held on those column numbers.
    Each vector's denominators are cleared (a row of plain ints is taken as
    it is, with no type scan and no lcm) and its row is reduced by sparse
    echelon insertion: a row is reduced by its leading (smallest) column
    against the stored pivot with that leading column, until it is zero or
    leads in a column with no pivot, where it is stored and its vector
    kept.  Which vectors are kept does not depend on the column order, but
    the fill-in does: on the coproduct rows of `hopf.primitive_dimension`
    the smallest key makes far less of it than the first key met.  The
    update is fraction-free in the style of Bareiss (1968),
    ``row = a*row - b*pivot`` with ``b/a`` the ratio of the two leading
    entries in lowest terms, and pivots are kept primitive.
    """
    column = {k: i for i, k in enumerate(sorted(
        {k for v in vectors for k in v.terms}))}
    pivots: dict = {}
    kept = []
    for v in vectors:
        row = {column[k]: c for k, c in v.terms.items() if c}
        if not set(map(type, row.values())) <= _INT:
            if not all(isinstance(c, (int, Fraction)) for c in row.values()):
                raise TypeError("independent needs int or Fraction "
                                f"coefficients, got {v!r}")
            d = lcm(*(c.denominator for c in row.values()))
            row = {k: c.numerator * (d // c.denominator)
                   for k, c in row.items()}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                pivots[lead] = {k: x // g for k, x in row.items()}
                kept.append(v)
                break
            a, b = pivot[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            new = {k: a * x for k, x in row.items()}
            for k, x in pivot.items():
                s = new.get(k, 0) - b * x
                if s:
                    new[k] = s
                else:
                    del new[k]
            row = new
    return kept


def span_dimension(vectors: Iterable[LinComb]) -> int:
    """Dimension over Q of the span of the given free-module elements."""
    return len(independent(list(vectors)))

