"""``divide_bn_alternants`` against ``divide_binomials`` and ``exact_div``, its
refusals, and the theorem that routes through it."""

import operator

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from reference_poly import largest_exponent
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


def dn_factors(n):
    """D_n's binomial factors: the Vandermonde's, then ``bn_factors``."""
    return schur.vandermonde_factors(schur.xvars(n)) + schur.bn_factors(n)


def rho(n):
    return tuple(range(2 * n - 1, 0, -2))


def alternant(n, g, centre):
    """A_g = det(x_i^{(C+g_j)/2} - x_i^{(C-g_j)/2}) by ``binomial_det``, which
    test_schur.py checks against the polynomial-entry ``determinant``."""
    return schur.binomial_det(
        schur.xvars(n), [(centre + v) // 2 for v in g], [(centre - v) // 2 for v in g]
    )


def dominant(poly, n):
    """The centre C of a type-B_n alternant ``poly`` in x1..xn (min + max exponent
    of x1) and its dominant part: g = 2e - C over the terms x^e whose g is
    strictly decreasing and positive, mapped to their coefficients."""
    rows = [([mono.exponent(v) for v in schur.xvars(n)], c) for mono, c in poly.terms()]
    centre = min(e[0] for e, _ in rows) + max(e[0] for e, _ in rows)
    weights = {tuple([2 * v - centre for v in e]): c for e, c in rows}
    return centre, {g: c for g, c in weights.items() if all(map(operator.gt, g, g[1:] + (0,)))}


@pytest.mark.parametrize(
    "m,n", [(m, n) for n in range(1, 5) for m in range(1, 4)] + [(1, 5), (2, 5)]
)
def test_matches_binomial_and_long_division(m, n):
    num, den = numerator(m, n), dn(n)
    quotient = schur.box_det_ratio(schur.BoxParams(m, n))
    binomial_quotient = divide_binomials(num, dn_factors(n))
    long_quotient = exact_div(num, den)
    assert quotient == binomial_quotient
    assert quotient == long_quotient
    for got in (quotient, binomial_quotient, long_quotient):
        assert largest_exponent(got) <= got._bound


def test_matches_binomial_division_at_n6():
    assert schur.box_det_ratio(schur.BoxParams(1, 6)) == divide_binomials(
        numerator(1, 6), dn_factors(6)
    )


def test_divisor_by_dividend_is_refused():
    with pytest.raises(NotDivisibleError, match="leading remaining dividend weight"):
        divide_bn_alternants({rho(3): 1}, [2 + r for r in rho(3)], shift=-2)


def test_malformed_weights_are_refused():
    for bad in ((1, 3), (3, 0), (3, 3, 1)):
        with pytest.raises(ValueError, match="not dominant"):
            divide_bn_alternants({(5, 3, 1): 1}, bad)
    for weight in ((5, 3, 1), ()):
        with pytest.raises(ValueError, match="not of its length"):
            divide_bn_alternants({weight: 1}, (3, 1))
    with pytest.raises(ValueError, match="odd entry"):
        divide_bn_alternants({(4, 2): 1}, (3, 1), shift=0)
    quotient = divide_bn_alternants({(4, 2): 1}, (3, 1), shift=1)
    assert quotient == exact_div(numerator(1, 2), dn(2))


def test_quotient_outside_the_exponent_range_is_refused():
    # A_(1) about the centres 2M - 1 and 1 - 2M: x1^M - x1^(M-1) over x1^(1-M) - x1^-M
    with pytest.raises(ExponentRangeError):
        divide_bn_alternants({(1,): 1}, (1,), shift=4 * MAX_EXPONENT - 2)
    assert divide_bn_alternants({(1,): 1}, (1,), shift=2 * MAX_EXPONENT) == P.variable(
        "x1", MAX_EXPONENT
    )
    # refused before the solve, whose quotient would have (m + 1)^n terms
    with pytest.raises(ExponentRangeError):
        schur.box_det_ratio(schur.BoxParams(MAX_EXPONENT + 1, 2))


def test_zero_dividend_and_constants():
    assert divide_bn_alternants({}, rho(3)) == P.zero()
    assert divide_bn_alternants({rho(3): 0}, rho(3)) == P.zero()
    assert divide_bn_alternants({(): 6}, ()) == P.constant(6)
    assert divide_bn_alternants({rho(2): -2}, rho(2), shift=4) == -2 * (
        P.variable("x1", 2) * P.variable("x2", 2)
    )


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
    rho = tuple([2 * v - parity for v in rho])
    centre = parity + 2 * draw(st.integers(-2, 2))
    chi = invariant(n, draw(st.integers(0, 2)), draw(st.integers(-1, 1)),
                    draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)))
    return n, chi, rho, centre


@given(alternant_quotients())
@settings(max_examples=60, deadline=None)
def test_recovers_any_invariant_quotient(case):
    n, chi, rho, centre = case
    if not chi:
        assert divide_bn_alternants({}, rho) == chi
        return
    num_centre, num_dom = dominant(chi * alternant(n, rho, centre), n)
    assert divide_bn_alternants(num_dom, rho, shift=num_centre - centre) == chi


# -- the theorem ------------------------------------------------------------------


def test_corrupted_divisor_fails_weyl_and_dn(monkeypatch, capsys):
    real = schur.binomial_det

    def corrupt_dn(names, a, b):
        # D_n is the one determinant whose first column is 1 - x^(2n-1)
        return real(names, a, b) + (1 if b[0] == 2 * len(names) - 1 else 0)

    monkeypatch.setattr(schur, "binomial_det", corrupt_dn)
    argv = ["verify", "--checks", "theorem,weyl,dn", "--m", "1", "--n", "2"]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()[:3]
    status = {line.split()[0]: line.split()[3] for line in lines}
    # the theorem solves N / D_n from their weights and never reads D_n's terms
    assert status == {"theorem": "PASS", "weyl": "FAIL", "dn": "FAIL"}


def test_theorem_never_divides_by_binomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("a general division called on the theorem's path")

    for module in (poly, schur):
        monkeypatch.setattr(module, "divide_binomials", refuse)
    monkeypatch.setattr(poly, "exact_div", refuse)
    results = run_verification(RunConfig(("theorem",), (1, 3), (1, 4)))
    assert len(results) == 12
    assert all(r.passed for r in results), [r.error for r in results]
    assert {r.divisor for r in results} == {"bn-alternant"}


def test_theorem_never_expands_a_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("a determinant expanded on the theorem's path")

    for module in (poly, schur):
        for name in ("expand_det", "binomial_det"):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(poly, "determinant", refuse)
    results = run_verification(RunConfig(("theorem",), (1, 3), (1, 4)))
    assert len(results) == 12
    assert all(r.passed for r in results), [r.error for r in results]
