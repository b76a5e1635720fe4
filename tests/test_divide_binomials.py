"""``divide_binomials`` against ``exact_div``, and the checks that route through it."""

import ast
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from reference_poly import largest_exponent
from schurbox import checks, identity, poly, schur
from schurbox.checks import RunConfig, run_verification
from schurbox.poly import (
    MAX_EXPONENT,
    ExponentRangeError,
    LaurentPoly,
    Monomial,
    NotDivisibleError,
    divide_binomials,
    exact_div,
)

P = LaurentPoly
X = [P.variable(f"x{i}") for i in range(1, 5)]
q = P.variable("q")

NAMES = ["q", "t1", "t2"] + [f"x{i}" for i in range(1, 5)]
monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(-3, 3), max_size=3).map(Monomial)
polys = st.dictionaries(monomials, st.integers(-9, 9), min_size=1, max_size=6).map(P)
polys = polys.filter(bool)
pairs = st.lists(st.sampled_from(range(4)), min_size=2, max_size=2, unique=True)
subsets = st.lists(st.sampled_from(range(4)), min_size=1, max_size=4, unique=True)


def x_product(indices):
    out = P.one()
    for i in indices:
        out = out * X[i]
    return out


binomials = st.one_of(
    pairs.map(lambda ij: X[ij[0]] - X[ij[1]]),
    pairs.map(lambda ij: X[ij[0]] * X[ij[1]] - 1),
    st.sampled_from(range(4)).map(lambda i: 1 - X[i]),
    st.integers(1, 4).map(lambda e: 1 - q**e),
    subsets.map(lambda s: 1 - x_product(s)),
)
# A unit monomial times a binomial, either sign, is still x^a - x^b.
unit_binomials = st.tuples(binomials, monomials, st.booleans()).map(
    lambda f: (-1 if f[2] else 1) * P.term(f[1]) * f[0]
)


def product(factors):
    out = P.one()
    for f in factors:
        out = out * f
    return out


@given(polys, st.lists(unit_binomials, max_size=4))
@settings(max_examples=200)
def test_divide_binomials_matches_exact_div(a, factors):
    num = a * product(factors)
    quotient = divide_binomials(num, factors)
    long_quotient = exact_div(num, product(factors))
    assert quotient == a
    assert quotient == long_quotient
    for got in (quotient, long_quotient):
        assert largest_exponent(got) <= got._bound


@given(polys, st.lists(unit_binomials, min_size=1, max_size=3), monomials, st.integers(1, 5))
@settings(max_examples=200)
def test_perturbed_numerator_is_refused_by_both(a, factors, extra, coeff):
    # a monomial is never a multiple of a product of binomials
    num = a * product(factors) + P.term(extra, coeff)
    with pytest.raises(NotDivisibleError):
        divide_binomials(num, factors)
    with pytest.raises(NotDivisibleError):
        exact_div(num, product(factors))


def named_term(message):
    """The monomial the error message names, from its exponent dict."""
    return Monomial(ast.literal_eval(re.search(r"exponents (\{.*?\})", message).group(1)))


@given(polys, unit_binomials, monomials)
@settings(max_examples=200)
def test_error_names_a_dividend_term_in_laurent_coordinates(a, factor, extra):
    num = a * factor + P.term(extra)
    with pytest.raises(NotDivisibleError) as info:
        divide_binomials(num, [factor])
    assert dict(num.terms()).get(named_term(str(info.value)), 0) != 0


def test_error_reports_negative_exponents():
    with pytest.raises(NotDivisibleError, match=r"exponents \{'x1': -3\} sums to 1\Z"):
        divide_binomials(P.variable("x1", -3) + q, [1 - q])


@pytest.mark.parametrize(
    "factor",
    [1 - X[0] + X[1], 2 - X[0], 1 - 2 * X[0], 2 * X[0] - 2 * X[1], 1 + X[0], X[0], P.one(),
     P.zero(), 1],
)
def test_factor_that_is_not_a_unit_binomial_is_refused(factor):
    with pytest.raises(ValueError, match="is not x\\^a - x\\^b"):
        divide_binomials((1 - X[0]) * (1 - X[1]), [factor])
    with pytest.raises(ValueError):
        divide_binomials(P.zero(), [factor])


def test_no_factors_and_zero_numerator():
    assert divide_binomials(1 + q, []) == 1 + q
    assert divide_binomials(P.zero(), [1 - q, X[0] - X[1]]) == P.zero()


def test_q_factor_fills_gaps_of_its_step():
    assert divide_binomials(1 - q**12, [1 - q**3]) == 1 + q**3 + q**6 + q**9
    num = (1 - q**12) * (1 - q**6)
    assert divide_binomials(num, [1 - q**4, 1 - q**3]) == exact_div(num, (1 - q**4) * (1 - q**3))


def test_sparse_coset_is_not_walked_step_by_step():
    big = 10**8
    num = (1 - X[0]) * (1 + P.variable("x1", big))
    assert divide_binomials(num, [1 - X[0]]) == 1 + P.variable("x1", big)


def test_quotient_outside_the_exponent_range_is_refused():
    x1 = X[0]
    num = P.variable("x1", -MAX_EXPONENT) * (1 - x1)
    factor = P.variable("x1", MAX_EXPONENT - 1) * (1 - x1)
    with pytest.raises(ExponentRangeError):
        divide_binomials(num, [factor])
    edge = P.variable("x1", MAX_EXPONENT) * (1 - P.variable("x1", -1))
    assert divide_binomials(edge, [1 - P.variable("x1", -1)]) == P.variable("x1", MAX_EXPONENT)


# -- the checks that divide ------------------------------------------------------


def test_bn_factors_multiply_to_the_weyl_denominator():
    for n in range(1, 5):
        factors = schur.vandermonde_factors(schur.xvars(n)) + schur.bn_factors(n)
        assert product(factors) == schur.weyl_denominator(n, "determinant")


def test_no_check_falls_back_to_exact_div(monkeypatch):
    def refuse(*args):
        raise AssertionError("exact_div called on a check's path")

    for module in (poly, schur, identity, checks):
        monkeypatch.setattr(module, "exact_div", refuse, raising=False)
    results = run_verification(RunConfig(("all",), (1, 2), (1, 3)))
    assert len(results) == 56
    assert all(r.passed for r in results), [(r.identity, r.m, r.n, r.error) for r in results]


def test_no_check_calls_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("determinant called on a check's path")

    for module in (poly, schur, identity, checks):
        monkeypatch.setattr(module, "determinant", refuse, raising=False)
    results = run_verification(RunConfig(("all",), (1, 2), (1, 3)))
    assert len(results) == 56
    assert all(r.passed for r in results), [(r.identity, r.m, r.n, r.error) for r in results]
