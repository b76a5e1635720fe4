"""``exact_div`` against the long division it replaced (``reference_division``)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from reference_division import reference_exact_div
from reference_poly import largest_exponent
from schurbox.poly import LaurentPoly, Monomial, exact_div

NAMES = ["q"] + [f"t{i}" for i in range(1, 6)] + [f"x{i}" for i in range(1, 6)]

variables = st.sampled_from(NAMES)
monomials = st.dictionaries(variables, st.integers(-3, 3), max_size=4).map(Monomial)
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=8).map(LaurentPoly)
small_polys = st.dictionaries(monomials, st.integers(-4, 4), max_size=3).map(LaurentPoly)


def outcome(divide, num, den):
    """The quotient, or the type and message of the arithmetic error raised."""
    try:
        return divide(num, den)
    except ArithmeticError as exc:
        return (type(exc), str(exc))


@given(polys, polys, small_polys)
@settings(max_examples=300)
def test_exact_div_matches_reference(a, b, extra):
    for num in (a * b, a * b + extra, a + extra):
        for den in (b, a):
            got = outcome(exact_div, num, den)
            assert got == outcome(reference_exact_div, num, den)
            if isinstance(got, LaurentPoly):
                assert largest_exponent(got) <= got._bound


def test_reference_agrees_on_raising_cases():
    x1, x2, q = (LaurentPoly.variable(v) for v in ("x1", "x2", "q"))
    cases = [
        (1 + q - q**3, 1 - q),
        (2 * x1 + 1, 3 * x1 + 1),
        (1 + x1, 1 + x1 + x1**2),
        (x1**300 * q - q**300, x1**300 - q**300),
        (x1, LaurentPoly.zero()),
        # q cancels, then x1 and x2 tie on degree 1: lex order names x1
        ((1 + q) * q + x1 + x2, 1 + q),
    ]
    for num, den in cases:
        got = outcome(exact_div, num, den)
        assert isinstance(got, tuple)
        assert got == outcome(reference_exact_div, num, den)
