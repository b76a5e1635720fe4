"""``exact_div`` against sympy's multivariate division, as an outside oracle."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from schurbox.poly import LaurentPoly, Monomial, NotDivisibleError, exact_div

sympy = pytest.importorskip("sympy")

NAMES = ["q", "t1", "x1", "x2", "x3"]
GENS = sympy.symbols(NAMES)

monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(-3, 3), max_size=3).map(Monomial)
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=8).map(LaurentPoly)
small_polys = st.dictionaries(monomials, st.integers(-4, 4), max_size=3).map(LaurentPoly)


def low_exponents(poly):
    """Per-variable minimum exponent over the terms, absence counting as 0."""
    terms = [mono.exponents() for mono, _ in poly.terms()] or [{}]
    return [min(exps.get(v, 0) for exps in terms) for v in NAMES]


def to_sympy(poly, shift):
    """``poly * prod(v**-s)`` as a sympy polynomial over QQ in every name."""
    data = {
        tuple(mono.exponents().get(v, 0) - s for v, s in zip(NAMES, shift)): coeff
        for mono, coeff in poly.terms()
    }
    return sympy.Poly.from_dict(data or {(0,) * len(NAMES): 0}, *GENS, domain="QQ")


@given(polys, polys, small_polys, st.booleans())
@settings(max_examples=150)
def test_exact_div_agrees_with_sympy(a, b, extra, perturb):
    if b.is_zero():
        return
    num = a * b + extra if perturb else a * b
    # Shifted so every variable has exponent 0 in some term, the quotient of
    # divisible operands is a polynomial: num_s = quo * X^(lo_d - lo_n) * den_s.
    lo_n, lo_d = low_exponents(num), low_exponents(b)
    quo_s, rem = to_sympy(num, lo_n).div(to_sympy(b, lo_d))
    divisible = rem.is_zero and all(c.is_integer for c in quo_s.coeffs())
    if not divisible:
        with pytest.raises(NotDivisibleError):
            exact_div(num, b)
        return
    quo = exact_div(num, b)
    assert quo_s == to_sympy(quo, [n - d for n, d in zip(lo_n, lo_d)])
    if not perturb:
        assert quo == a
