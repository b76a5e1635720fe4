"""``determinant`` and ``substitute`` against sympy, as an outside oracle.

Laurent inputs are compared as sympy polynomials after clearing denominators:
each side is multiplied by the same monomial ``prod(v**shift)``.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from schurbox.poly import LaurentPoly, Monomial, determinant

sympy = pytest.importorskip("sympy")

NAMES = ["q", "t1", "x1", "x2", "x3"]
GENS = sympy.symbols(NAMES)
SYMBOL = dict(zip(NAMES, GENS))
EXP = 3  # |exponent| of a generated entry

variables = st.sampled_from(NAMES)
monomials = st.dictionaries(variables, st.integers(-EXP, EXP), max_size=3).map(Monomial)
entries = st.dictionaries(monomials, st.integers(-4, 4), max_size=3).map(LaurentPoly)
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=8).map(LaurentPoly)


def to_expr(poly):
    return sympy.Add(
        *(
            coeff * sympy.Mul(*(SYMBOL[v] ** e for v, e in mono.exponents().items()))
            for mono, coeff in poly.terms()
        )
    )


def cleared(expr, shift):
    """``expr * prod(v**shift)`` as a sympy polynomial; fails if a denominator is left."""
    return sympy.Poly(sympy.expand(expr * math.prod(g**shift for g in GENS)), *GENS)


@st.composite
def matrices(draw):
    n = draw(st.integers(2, 3))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


@given(matrices())
@settings(max_examples=60)
def test_determinant_agrees_with_sympy(rows):
    n = len(rows)
    # Multiplying every row by prod(v**EXP) clears its denominators and
    # multiplies the determinant by prod(v**(n*EXP)).
    poly_rows = [[cleared(to_expr(e), EXP).as_expr() for e in row] for row in rows]
    expected = sympy.Matrix(poly_rows).det(method="berkowitz")
    got = determinant(rows)
    assert cleared(to_expr(got), n * EXP) == cleared(expected, 0)


targets = st.one_of(
    st.tuples(variables, st.integers(-2, 2)).map(lambda t: Monomial.variable(*t)),
    st.just(1),
)


@given(polys, st.dictionaries(variables, targets, max_size=3))
@settings(max_examples=100)
def test_substitute_agrees_with_sympy(poly, sub):
    images = {
        SYMBOL[v]: 1 if t == 1 else to_expr(LaurentPoly.term(t)) for v, t in sub.items()
    }
    expected = to_expr(poly).subs(images, simultaneous=True)
    # |exponent| after substitution is at most EXP * (1 + 2 * len(sub)).
    shift = EXP * (1 + 2 * len(sub))
    assert cleared(to_expr(poly.substitute(sub)), shift) == cleared(expected, shift)
