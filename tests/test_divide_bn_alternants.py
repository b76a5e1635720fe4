"""``divide_bn_alternants`` against ``divide_binomials`` and ``exact_div``, its
refusals, and the theorem that routes through it."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from schurbox import cli, poly, schur
from schurbox.checks import RunConfig, run_verification
from schurbox.poly import (
    MAX_EXPONENT,
    ExponentRangeError,
    LaurentPoly,
    NotDivisibleError,
    divide_binomials,
    divide_bn_alternants,
    exact_div,
)

P = LaurentPoly


def numerator(m, n):
    return schur.binomial_det(schur.xvars(n), *schur._box_exponents(m, n))


def dn(n):
    return numerator(0, n)


def alternant(n, g, centre):
    """A_g = det(x_i^{(C+g_j)/2} - x_i^{(C-g_j)/2}) by ``binomial_det``, which
    test_schur.py checks against the polynomial-entry ``determinant``."""
    return schur.binomial_det(
        schur.xvars(n), [(centre + v) // 2 for v in g], [(centre - v) // 2 for v in g]
    )


@pytest.mark.parametrize(
    "m,n", [(m, n) for n in range(1, 5) for m in range(1, 4)] + [(1, 5), (2, 5)]
)
def test_matches_binomial_and_long_division(m, n):
    num, den = numerator(m, n), dn(n)
    quotient = divide_bn_alternants(num, den)
    assert quotient == divide_binomials(num, schur.bn_factors(n))
    assert quotient == exact_div(num, den)
    assert quotient == schur.box_det_ratio(schur.BoxParams(m, n))


def test_divisor_by_dividend_is_refused():
    with pytest.raises(NotDivisibleError, match="leading remaining dividend term"):
        divide_bn_alternants(dn(3), numerator(2, 3))


def test_perturbed_dividend_is_no_alternant():
    x1 = P.variable("x1")
    with pytest.raises(ArithmeticError, match="the dividend is not the sum") as info:
        divide_bn_alternants(numerator(2, 3) + x1, dn(3))
    assert not isinstance(info.value, NotDivisibleError)


def test_coefficient_not_divisible_is_refused():
    with pytest.raises(NotDivisibleError, match="coefficient -1"):
        divide_bn_alternants(numerator(2, 3), 2 * dn(3))


def test_divisor_with_two_dominant_terms_is_refused():
    den = dn(2) + alternant(2, (5, 1), 3)  # both about the centre 3
    with pytest.raises(ValueError, match="the divisor has 2 dominant terms"):
        divide_bn_alternants(numerator(1, 2) * den, den)


def test_operands_without_a_common_centre_are_refused():
    x1 = P.variable("x1")
    with pytest.raises(ArithmeticError, match="no common centre"):
        divide_bn_alternants(numerator(1, 2), dn(2) * x1)


def test_operand_outside_x_is_refused():
    with pytest.raises(ValueError, match="not a polynomial in x1..x2 only"):
        divide_bn_alternants(numerator(1, 2) * P.variable("q"), dn(2))


def test_quotient_outside_the_exponent_range_is_refused():
    num = alternant(1, (1,), 2 * MAX_EXPONENT - 1)  # x1^M - x1^(M-1)
    den = alternant(1, (1,), 1 - 2 * MAX_EXPONENT)  # x1^(1-M) - x1^-M
    with pytest.raises(ExponentRangeError):
        divide_bn_alternants(num, den)
    assert divide_bn_alternants(num, num) == P.one()


def test_zero_dividend_and_constants():
    assert divide_bn_alternants(P.zero(), dn(3)) == P.zero()
    assert divide_bn_alternants(P.constant(6), P.constant(-3)) == P.constant(-2)


# An invariant quotient about its own centre: prod (1 + x_i)^a, (x1...xn)^k and a
# polynomial in the elementary symmetric functions of z_i = x_i + 1/x_i.


def invariant(n, a, k, coeffs):
    xs = [P.variable(v) for v in schur.xvars(n)]
    z = [x + P.variable(v, -1) for x, v in zip(xs, schur.xvars(n))]
    elementary = [P.one()]  # e_0..e_k of z_1..z_k
    for zi in z:
        shifted = zip(elementary + [P.zero()], [P.zero()] + elementary)
        elementary = [e + zi * prev for e, prev in shifted]
    out = P.zero()
    for e, c in zip(elementary, coeffs):
        out = out + c * e
    for x, v in zip(xs, schur.xvars(n)):
        out = out * (1 + x) ** a * P.variable(v, k)
    return out


@st.composite
def alternant_quotients(draw):
    n = draw(st.integers(1, 3))
    rho = sorted(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n, unique=True)),
                 reverse=True)
    parity = draw(st.integers(0, 1))
    rho = [2 * v - parity for v in rho]
    centre = parity + 2 * draw(st.integers(-2, 2))
    sign = draw(st.sampled_from([1, -1, 2]))
    chi = invariant(n, draw(st.integers(0, 2)), draw(st.integers(-1, 1)),
                    draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)))
    return chi, sign * alternant(n, rho, centre)


@given(alternant_quotients())
@settings(max_examples=60, deadline=None)
def test_recovers_any_invariant_quotient(case):
    chi, den = case
    num = chi * den
    assert divide_bn_alternants(num, den) == chi
    if chi:
        with pytest.raises(ArithmeticError):
            divide_bn_alternants(num + P.variable("x1", 9), den)


# -- the theorem ------------------------------------------------------------------


def test_corrupted_divisor_fails_the_theorem(monkeypatch, capsys):
    real = schur.binomial_det

    def corrupt_dn(names, a, b):
        # D_n is the one determinant whose first column is 1 - x^(2n-1)
        return real(names, a, b) + (1 if b[0] == 2 * len(names) - 1 else 0)

    monkeypatch.setattr(schur, "binomial_det", corrupt_dn)
    assert cli.main(["verify", "--checks", "theorem", "--m", "1", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "PASS" not in out
    assert "ERROR  ArithmeticError: divide_bn_alternants: the divisor is not the sum" in out


def test_theorem_never_divides_by_binomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("divide_binomials called on the theorem's path")

    for module in (poly, schur):
        monkeypatch.setattr(module, "divide_binomials", refuse)
    results = run_verification(RunConfig(("theorem",), (1, 3), (1, 4)))
    assert len(results) == 12
    assert all(r.passed for r in results), [r.error for r in results]
    assert {r.divisor for r in results} == {"bn-alternant"}
