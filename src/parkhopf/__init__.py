"""Exact computations in the combinatorial algebras on parking functions:
shifted-concatenation and shuffle products, the two- and three-operation
duplicial structures and their rewriting systems, noncommutative Lagrange
inversion, the tree/parking bijection and Tamari intervals, and the character
computations (super-Narayana polynomials, path encodings, the binomial
element, and the q-analogue triangle)."""

__version__ = "0.1.0"

# cli is not imported here: `python -m parkhopf.cli` warns when the module is
# already in sys.modules.  bench/child.py reads the other seven from
# sys.modules right after `import parkhopf`.
from . import chars, combinat, exact, hopf, lagrange, operad, symfun

__all__ = ["chars", "cli", "combinat", "exact", "hopf", "lagrange", "operad",
           "symfun", "__version__"]
