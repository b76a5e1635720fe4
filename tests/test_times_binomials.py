"""``times_binomials`` against a chain of ``LaurentPoly.__mul__``, and its refusals."""

import functools
import operator

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from schurbox.poly import MAX_EXPONENT, ExponentRangeError, LaurentPoly, Monomial, times_binomials

P = LaurentPoly
x1 = P.variable("x1")
q = P.variable("q")

NAMES = ["q", "t1", "t2", "x1", "x2", "x3"]
monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(-3, 3), max_size=3).map(Monomial)
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=6).map(P)
# x^a - x^b for two distinct monomials, either sign: Laurent exponents, t_i and q.
binomials = (
    st.lists(monomials, min_size=2, max_size=2, unique=True)
    .map(lambda ab: P.term(ab[0]) - P.term(ab[1]))
)
# 1 - x^v against a geometric sum along v: every inner term cancels.
geometric = st.tuples(monomials.filter(lambda m: m.key), st.integers(1, 4)).map(
    lambda mk: (sum((P.term(mk[0]) ** j for j in range(mk[1])), P.zero()), 1 - P.term(mk[0]))
)


def chain(poly, factors):
    return functools.reduce(operator.mul, factors, poly)


@given(polys, st.lists(binomials, max_size=5))
@settings(max_examples=300)
def test_times_binomials_matches_the_product_chain(poly, factors):
    assert times_binomials(poly, factors) == chain(poly, factors)


@given(polys, geometric, st.lists(binomials, max_size=2))
def test_cancelling_products_match_the_chain(poly, pair, factors):
    sum_along_v, factor = pair
    expected = chain(poly * sum_along_v, [factor, *factors])
    got = times_binomials(poly * sum_along_v, [factor, *factors])
    assert got == expected
    assert all(c for _, c in got.terms())


def test_products_that_cancel_to_few_terms_and_to_zero():
    assert times_binomials(1 + q + q**2, [1 - q]) == 1 - q**3
    assert times_binomials(x1 - q, [q**2 - x1 * q, x1 - q]) == -q * (x1 - q) ** 3
    assert times_binomials(P.zero(), [1 - q, x1 - q]) == P.zero()
    assert times_binomials(P.zero(), []) == P.zero()


def test_no_factors_returns_the_polynomial():
    poly = 3 * P.variable("x2", -2) - P.variable("t1")
    assert times_binomials(poly, []) == poly


@pytest.mark.parametrize("factor", [1 + x1, 2 - x1, x1, P.zero(), 1 - x1 + q, 1])
def test_factor_that_is_not_a_unit_binomial_is_refused(factor):
    with pytest.raises(ValueError, match=r"times_binomials: .* is not x\^a - x\^b"):
        times_binomials(1 + q, [1 - q, factor])
    with pytest.raises(ValueError):
        times_binomials(P.zero(), [factor])


@pytest.mark.parametrize("sign", [1, -1])
def test_product_outside_the_exponent_range_is_refused(sign):
    edge = P.variable("x1", sign * (MAX_EXPONENT - 1))
    step = 1 - P.variable("x1", sign)
    assert times_binomials(edge, [step]) == chain(edge, [step])
    with pytest.raises(ExponentRangeError):  # the step reaches the range's end plus 1
        times_binomials(edge, [step, step])
    with pytest.raises(ExponentRangeError):
        chain(edge, [step, step])
    # the unit x1^sign of the factor x1^sign - x1^(2 sign) is applied at the end
    unit_step = P.variable("x1", sign) * step
    with pytest.raises(ExponentRangeError):
        times_binomials(edge, [unit_step])
