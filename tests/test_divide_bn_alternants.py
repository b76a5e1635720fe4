"""``divide_alternants`` for types B and A against ``divide_binomials`` and
``exact_div``, its orbits against the all-permutations form, its refusals, and
the theorem and the bialternant that route through it."""

import itertools
import operator

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from reference_alternant import orbit_by_permutations
from reference_poly import largest_exponent
from schurbox import cli, poly, schur
from schurbox.checks import RunConfig, run_verification
from schurbox.poly import (
    MAX_EXPONENT,
    ExponentRangeError,
    LaurentPoly,
    Monomial,
    NotDivisibleError,
    divide_alternants,
    divide_binomials,
    exact_div,
    expand_det,
)

P = LaurentPoly


def numerator(m, n):
    return schur.binomial_det(schur.xvars(n), *schur.box_exponents(m, n))


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
    rows = [([mono.exponents().get(v, 0) for v in schur.xvars(n)], c) for mono, c in poly.terms()]
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
        divide_alternants({rho(3): 1}, [2 + r for r in rho(3)], "B", shift=-2)


def test_malformed_weights_are_refused():
    for bad in ((1, 3), (3, 0), (3, 3, 1)):
        with pytest.raises(ValueError, match="not dominant"):
            divide_alternants({(5, 3, 1): 1}, bad, "B")
    for weight in ((5, 3, 1), ()):
        with pytest.raises(ValueError, match="not of its length"):
            divide_alternants({weight: 1}, (3, 1), "B")
    with pytest.raises(ValueError, match="odd entry"):
        divide_alternants({(4, 2): 1}, (3, 1), "B", shift=0)
    quotient = divide_alternants({(4, 2): 1}, (3, 1), "B", shift=1)
    assert quotient == exact_div(numerator(1, 2), dn(2))


def test_quotient_outside_the_exponent_range_is_refused():
    # A_(1) about the centres 2M - 1 and 1 - 2M: x1^M - x1^(M-1) over x1^(1-M) - x1^-M
    with pytest.raises(ExponentRangeError):
        divide_alternants({(1,): 1}, (1,), "B", shift=4 * MAX_EXPONENT - 2)
    assert divide_alternants({(1,): 1}, (1,), "B", shift=2 * MAX_EXPONENT) == P.variable(
        "x1", MAX_EXPONENT
    )
    # refused before the solve, whose quotient would have (m + 1)^n terms
    with pytest.raises(ExponentRangeError):
        schur.box_det_ratio(schur.BoxParams(MAX_EXPONENT + 1, 2))


def test_zero_dividend_and_constants():
    assert divide_alternants({}, rho(3), "B") == P.zero()
    assert divide_alternants({rho(3): 0}, rho(3), "B") == P.zero()
    assert divide_alternants({(): 6}, (), "B") == P.constant(6)
    assert divide_alternants({rho(2): -2}, rho(2), "B", shift=4) == -2 * (
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
        assert divide_alternants({}, rho, "B") == chi
        return
    num_centre, num_dom = dominant(chi * alternant(n, rho, centre), n)
    assert divide_alternants(num_dom, rho, "B", shift=num_centre - centre) == chi


# -- type A: the symmetric group ---------------------------------------------------


def a_alternant(g):
    """a_g = det(x_i^{g_j}) by ``expand_det`` on a monomial table."""
    names = schur.xvars(len(g))
    return P.from_keys(expand_det([[Monomial.variable(v, e).key for e in g] for v in names]))


def test_type_a_leading_weight_below_the_divisor_is_refused():
    # (2, 3) - delta = (1, 3) is not weakly decreasing
    with pytest.raises(NotDivisibleError, match="leading remaining dividend weight"):
        divide_alternants({(2, 3): 1}, (1, 0), "A")
    # a_(3,0) / a_(2,0) = (x1^2 + x1 x2 + x2^2) / (x1 + x2) is not Laurent: after
    # chi_(1,0) the remainder leads with -a_(2,1), and (2,1) - (2,0) = (0,1)
    with pytest.raises(NotDivisibleError, match=r"weight \(2, 1\) \(coefficient -1\)"):
        divide_alternants({(3, 0): 1}, (2, 0), "A")


def test_type_a_malformed_weights_and_unknown_groups_are_refused():
    for bad in ((0, 1), (1, 1), (2, 2, 0)):
        with pytest.raises(ValueError, match="not dominant"):
            divide_alternants({(3, 1, 0): 1}, bad, "A")
    for weight in ((3, 1, 0), ()):
        with pytest.raises(ValueError, match="not of its length"):
            divide_alternants({weight: 1}, (1, 0), "A")
    for group, shift in (("C", 0), ("b", 0), (None, 0), ("A", 2)):
        with pytest.raises(ValueError, match="expected 'A' with shift 0 or 'B', got"):
            divide_alternants({(1, 0): 1}, (1, 0), group, shift=shift)


def test_type_a_zero_dividend_constants_and_laurent_quotients():
    x1, x2 = P.variable("x1"), P.variable("x2")
    assert divide_alternants({}, (1, 0), "A") == P.zero()
    assert divide_alternants({(1, 0): 0}, (1, 0), "A") == P.zero()
    assert divide_alternants({(): 6}, (), "A") == P.constant(6)
    # a negative divisor weight is dominant for S_n, and quotients may be Laurent
    assert divide_alternants({(1, -1): 1}, (0, -1), "A") == x1 + x2
    assert divide_alternants({(-1, -2): -3}, (1, 0), "A") == -3 * (
        P.variable("x1", -2) * P.variable("x2", -2)
    )
    assert divide_alternants({(2, 0): 1, (1, 0): 1}, (1, 0), "A") == x1 + x2 + 1


def test_type_a_quotient_outside_the_exponent_range_is_refused():
    # m_(0,-M) * a_(1,0) = a_(1,-M) - a_(0,1-M): the quotient x1^-M + x2^-M fits
    M = MAX_EXPONENT
    assert divide_alternants({(1, -M): 1, (0, 1 - M): -1}, (1, 0), "A") == (
        P.variable("x1", -M) + P.variable("x2", -M)
    )
    # one lower does not, and neither does mu_1 = M + 1; both refused before the solve
    for num in ({(1, -M - 1): 1, (0, -M): -1}, {(M + 2, 0): 1}):
        with pytest.raises(ExponentRangeError, match="of x1 is outside"):
            divide_alternants(num, (1, 0), "A")


def symmetric(n, a, k, coeffs):
    """prod (1 + x_i)^a * (x1...xn)^k * sum c_i e_i(x1..xn)."""
    xs = [P.variable(v) for v in schur.xvars(n)]
    elementary = [P.one()]
    for x in xs:
        shifted = zip(elementary + [P.zero()], [P.zero()] + elementary)
        elementary = [e + x * prev for e, prev in shifted]
    out = P.zero()
    for e, c in zip(elementary, coeffs):
        out = out + c * e
    for x, v in zip(xs, schur.xvars(n)):
        out = out * (1 + x) ** a * P.variable(v, k)
    return out


@st.composite
def symmetric_quotients(draw):
    n = draw(st.integers(1, 3))
    rho = tuple(sorted(draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n, unique=True)),
                       reverse=True))
    chi = symmetric(n, draw(st.integers(0, 2)), draw(st.integers(-1, 1)),
                    draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)))
    return n, chi, rho


@given(symmetric_quotients())
@settings(max_examples=60, deadline=None)
def test_type_a_recovers_any_symmetric_quotient(case):
    n, chi, rho = case
    names = schur.xvars(n)
    terms = [(tuple([mono.exponents().get(v, 0) for v in names]), c)
             for mono, c in (chi * a_alternant(rho)).terms()]
    num_dom = {g: c for g, c in terms if all(map(operator.gt, g, g[1:]))}
    assert divide_alternants(num_dom, rho, "A") == chi


# -- the orbits ---------------------------------------------------------------------


def orbit_weights(n, signed):
    """Weakly decreasing n-tuples with repeated entries and zeros (and, for A,
    negative entries), and one with n distinct entries."""
    values = (2, 1, 0) if signed else (1, 0, -1)
    repeated = itertools.combinations_with_replacement(values, n)
    distinct = range(n - 1, -1, -1) if signed else range(n // 2, n // 2 - n, -1)
    return [*repeated, tuple(distinct)]


@pytest.mark.parametrize("signed", [False, True], ids=["A", "B"])
def test_orbits_match_the_all_permutations_form(signed):
    for n in range(8):
        for mu in orbit_weights(n, signed):
            got = list(poly._orbit(mu, signed))
            want = orbit_by_permutations(mu, signed)
            assert got[0] == mu
            assert len(set(got)) == len(got), mu
            assert set(got) == set(want), mu


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
            # schur no longer imports expand_det; set it anyway, so a new import is caught
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(poly, "determinant", refuse)
    results = run_verification(RunConfig(("theorem",), (1, 3), (1, 4)))
    assert len(results) == 12
    assert all(r.passed for r in results), [r.error for r in results]


def test_schur_agree_neither_divides_by_binomials_nor_expands(monkeypatch):
    def refuse(*args):
        raise AssertionError("schur-agree divided by binomials or expanded a determinant")

    for module in (poly, schur):
        for name in ("divide_binomials", "expand_det", "binomial_det"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for name in ("exact_div", "determinant"):
        monkeypatch.setattr(poly, name, refuse)
    results = run_verification(RunConfig(("schur-agree",), (1, 3), (1, 4)))
    assert len(results) == 12
    assert all(r.passed for r in results), [r.error for r in results]
    assert {r.divisor for r in results} == {"a-alternant"}
