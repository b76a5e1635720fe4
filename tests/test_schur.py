"""Schur backends, the box-sum theorem, Weyl denominators, and q-products."""

import functools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from reference_alternant import bialternant_by_division
from reference_dn import dn_checks_by_substitution
from reference_poly import largest_exponent
from reference_q_ratio import gordon_by_whole_ratio, macmahon_by_whole_ratio, uncancelled_q_ratio
from schurbox.combinat import Partition, generating_function, partitions_in_box, symmetric_plane_partitions
from schurbox.poly import (
    MAX_EXPONENT,
    ExponentRangeError,
    LaurentPoly,
    Monomial,
    NotDivisibleError,
    determinant,
    parse_poly,
)
from schurbox.schur import (
    BoxParams,
    _q_ratio,
    alternant_table,
    binomial_det,
    box_det_ratio,
    box_exponents,
    dn_checks,
    gordon_product,
    macmahon_product,
    principal_specialization,
    schur_box_sum,
    schur_via_bialternant,
    schur_via_tableaux,
    weyl_denominator,
    xvars,
)

P = LaurentPoly
x1, x2, q = P.variable("x1"), P.variable("x2"), P.variable("q")


# -- the two Schur backends ------------------------------------------------------


def test_schur_single_box_shape():
    assert schur_via_tableaux(Partition((1,)), 2) == x1 + x2
    assert schur_via_bialternant(Partition((1,)), 2) == x1 + x2


def test_schur_hook_shape():
    expected = x1**2 * x2 + x1 * x2**2
    assert schur_via_tableaux(Partition((2, 1)), 2) == expected
    assert schur_via_bialternant(Partition((2, 1)), 2) == expected


def test_schur_too_tall_is_zero():
    assert schur_via_tableaux(Partition((1, 1, 1)), 2) == P.zero()
    assert schur_via_bialternant(Partition((1, 1, 1)), 2) == P.zero()


def test_schur_empty_shape():
    assert schur_via_bialternant(Partition(), 3) == P.one()
    assert schur_via_tableaux(Partition(), 3) == P.one()


def test_alternant_table_is_range_checked():
    x = [[Monomial.variable(f"x{i}", e).key for e in (3, 1, 0)] for i in (1, 2, 3)]
    assert alternant_table(Partition((1,)), 3) == x
    assert schur_via_bialternant(Partition(), 0) == P.one()
    # 2**31 + 5 packed unchecked would carry into t2 and read as t2*x1^-2147483643
    with pytest.raises(ExponentRangeError, match="exponent 2147483653 of x1"):
        schur_via_bialternant(Partition((2**31 + 5,)), 1)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_backends_agree_on_box(m, n):
    for lam in partitions_in_box(m, n):
        assert schur_via_tableaux(lam, n) == schur_via_bialternant(lam, n), lam


def test_bialternant_solve_matches_expand_and_divide():
    # every shape of the 4 x 5 box at n = 0..5: more parts than n gives 0 both ways
    for n in range(6):
        for lam in partitions_in_box(4, 5):
            got = schur_via_bialternant(lam, n)
            assert got == bialternant_by_division(lam, n), (lam, n)
            assert largest_exponent(got) <= got._bound


@pytest.mark.parametrize("n", [2, 3, 4])
def test_schur_polynomials_are_symmetric(n):
    for lam in partitions_in_box(2, n):
        s = schur_via_tableaux(lam, n)
        for i in range(1, n):
            swap = {f"x{i}": f"x{i + 1}", f"x{i + 1}": f"x{i}"}
            assert s.substitute(swap) == s, (lam, i)


# -- box sums and the determinant ratio -------------------------------------------


def test_box_sum_examples():
    assert schur_box_sum(BoxParams(1, 1)) == 1 + x1
    assert schur_box_sum(BoxParams(1, 2)) == 1 + x1 + x2 + x1 * x2
    assert schur_box_sum(BoxParams(2, 1)) == 1 + x1 + x1**2
    assert schur_box_sum(BoxParams(0, 3)) == P.one()
    assert schur_box_sum(BoxParams(3, 0)) == P.one()


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(5))
def test_box_sum_matches_the_tableau_sum_shape_by_shape(m, n):
    by_shape = sum((schur_via_tableaux(lam, n) for lam in partitions_in_box(m, n)), P.zero())
    assert schur_box_sum(BoxParams(m, n)) == by_shape


def test_box_sum_backends_agree():
    box = BoxParams(2, 3)
    bialternant = sum((schur_via_bialternant(lam, 3) for lam in partitions_in_box(2, 3)), P.zero())
    assert schur_box_sum(box) == bialternant


def test_det_ratio_single_variable():
    for m in range(1, 5):
        expected = sum((x1**k for k in range(m + 1)), P.zero())
        assert box_det_ratio(BoxParams(m, 1)) == expected


def test_det_ratio_two_variables():
    assert box_det_ratio(BoxParams(1, 2)) == (1 + x1) * (1 + x2)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_theorem_small_grid(m, n):
    box = BoxParams(m, n)
    assert schur_box_sum(box) == box_det_ratio(box)


# -- Weyl denominator ---------------------------------------------------------------


def test_weyl_order_one():
    assert weyl_denominator(1, "determinant") == 1 - x1
    assert weyl_denominator(1, "product") == 1 - x1


def test_weyl_order_two_expansion():
    expected = (1 - x1) * (1 - x2) * (x1 - x2) * (x1 * x2 - 1)
    assert weyl_denominator(2, "determinant") == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weyl_forms_agree(n):
    assert weyl_denominator(n, "determinant") == weyl_denominator(n, "product")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("equal_column", [False, True])
def test_binomial_det_matches_hand_built_determinant(n, equal_column):
    names = [f"x{i}" for i in range(2, n + 2)]  # x2..x(n+1), as dn_checks uses
    a = [j - 1 for j in range(1, n + 1)]
    b = [2 - 3 * j for j in range(1, n + 1)]
    if equal_column:
        b[-1] = a[-1]
    rows = [[parse_poly(f"{v}^{aj} - {v}^{bj}") for aj, bj in zip(a, b)] for v in names]
    expected = determinant(rows)
    assert binomial_det(names, a, b) == expected
    assert expected.is_zero() == equal_column
    # the eq4 grid: the theorem's numerator (D_n at m = 0), which eq4 and eq5
    # both take from binomial_det, against the polynomial-entry determinant
    for m in range(5) if n < 5 else (0, 1, 2):
        a, b = box_exponents(m, n)
        if equal_column:
            a[-1] = b[-1]
        rows = [[P.variable(v, aj) - P.variable(v, bj) for aj, bj in zip(a, b)]
                for v in xvars(n)]
        expected = determinant(rows)
        assert binomial_det(xvars(n), a, b) == expected
        assert expected.is_zero() == equal_column


def test_binomial_det_keeps_the_exponent_range_check():
    with pytest.raises(ExponentRangeError):
        binomial_det(["x1", "x2"], [0, 1], [3, MAX_EXPONENT + 1])


def test_weyl_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl_denominator(0)
    with pytest.raises(ValueError):
        weyl_denominator(2, "plucked")


# -- D_n root structure ----------------------------------------------------------------


def test_dn_vanishes_at_one():
    d2 = weyl_denominator(2, "determinant")
    assert d2.substitute({"x1": 1}) == P.zero()


def test_dn_leading_coefficient_order_two():
    d2 = weyl_denominator(2, "determinant")
    assert d2.powers("x1")[3] == -x2 * (1 - x2)


def test_dn_checks_order_three():
    report = dn_checks(3, weyl_denominator(3, "determinant"))
    assert len(report.root_checks) == 5
    assert report.all_pass
    assert report.lead == weyl_denominator(3, "determinant").powers("x1")[5]
    assert report.expected == report.lead


def test_dn_checks_requires_two():
    with pytest.raises(ValueError):
        dn_checks(1, weyl_denominator(1, "determinant"))


@pytest.mark.parametrize("n", range(2, 7))
def test_dn_checks_match_the_substitution_reference(n):
    d_n = weyl_denominator(n, "determinant")
    report = dn_checks(n, d_n)
    assert report == dn_checks_by_substitution(n, d_n)
    assert report.all_pass


@functools.lru_cache(maxsize=None)
def _weyl_terms(n):
    return weyl_denominator(n, "determinant").sorted_terms()


@given(st.integers(2, 4), st.data(), st.integers(-3, 3).filter(bool))
@settings(max_examples=60)
def test_dn_checks_catch_one_changed_coefficient(n, data, delta):
    terms = _weyl_terms(n)
    mono, _ = terms[data.draw(st.integers(0, len(terms) - 1))]
    mutated = weyl_denominator(n, "determinant") + P.term(mono, delta)
    report = dn_checks(n, mutated)
    assert not all(ok for _, ok in report.root_checks)
    assert not report.all_pass
    assert report == dn_checks_by_substitution(n, mutated)


def test_dn_checks_of_zero_pass_every_root_but_not_the_lead():
    report = dn_checks(3, P.zero())
    assert all(ok for _, ok in report.root_checks)
    assert report.lead == P.zero() and not report.leading_coefficient_ok
    assert report == dn_checks_by_substitution(3, P.zero())


@pytest.mark.parametrize("n", range(2, 6))
def test_dn_checks_catch_a_wrong_leading_coefficient(n):
    mutated = weyl_denominator(n, "determinant") + P.term(Monomial({"x1": 2 * n - 1, "x2": 1}))
    report = dn_checks(n, mutated)
    assert not report.leading_coefficient_ok
    assert not report.all_pass
    assert report == dn_checks_by_substitution(n, mutated)


# -- q-products --------------------------------------------------------------------------


def test_macmahon_smallest():
    assert macmahon_product(BoxParams(1, 1)) == 1 + q


def test_macmahon_matches_enumeration_gf():
    assert macmahon_product(BoxParams(1, 2)) == parse_poly("1 + q + q^3 + q^4")


def test_macmahon_golden_two_by_two():
    with open("tests/data/macmahon_2_2.txt") as fh:
        golden = fh.read().strip()
    product = macmahon_product(BoxParams(2, 2))
    assert product.to_text() == golden
    assert product == generating_function(symmetric_plane_partitions(2, 2))


def test_macmahon_count_at_q_one():
    counted = macmahon_product(BoxParams(3, 3)).substitute({"q": 1}).constant_value()
    assert counted == 112


def test_products_degenerate_boxes():
    assert macmahon_product(BoxParams(0, 3)) == P.one()
    assert macmahon_product(BoxParams(3, 0)) == P.one()
    assert gordon_product(BoxParams(0, 2)) == P.one()


def test_gordon_single_variable():
    for m in range(1, 5):
        expected = sum((q**k for k in range(m + 1)), P.zero())
        assert gordon_product(BoxParams(m, 1)) == expected


def test_gordon_two_variables():
    assert gordon_product(BoxParams(1, 2)) == parse_poly("1 + q + q^2 + q^3")


def test_product_coefficients_nonnegative_with_unit_constant():
    for m in range(1, 4):
        for n in range(1, 4):
            for prod in (macmahon_product(BoxParams(m, n)), gordon_product(BoxParams(m, n))):
                assert prod.coefficient(Monomial.one()) == 1
                assert all(c > 0 for _, c in prod.terms())


# -- the q-ratio against the uncancelled reference ------------------------------------------


def q_ratio_or_refusal(ratio, num_exps, den_exps):
    try:
        return ratio(num_exps, den_exps)
    except NotDivisibleError:
        return NotDivisibleError


exponents = st.integers(-12, 12).filter(bool)  # 1 - q^0 is 0, not a binomial
# A multiple k * d of each denominator exponent d on the numerator side makes a
# divisible ratio; the free lists are mostly not divisible.
multiples = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=4)


@given(st.lists(exponents, max_size=6), st.lists(exponents, max_size=6), multiples)
@settings(max_examples=300)
def test_q_ratio_matches_the_uncancelled_ratio(common, extra, pairs):
    num = common + extra + [k * d for d, k in pairs]
    den = [d for d, _ in pairs] + common
    for n, d in [(num, den), (extra, den), (num, extra)]:
        got = q_ratio_or_refusal(_q_ratio, n, d)
        assert got == q_ratio_or_refusal(uncancelled_q_ratio, n, d), (n, d)
    assert _q_ratio(num, den) == uncancelled_q_ratio(num, den)


@pytest.mark.parametrize(
    "num,den,expected",
    [
        ([], [], P.one()),
        ([3, 1, 3], [3, 3, 1], P.one()),
        ([4], [], 1 - q**4),
        ([4, 2], [2], 1 - q**4),
        ([6], [2], 1 + q**2 + q**4),
        ([2], [3], NotDivisibleError),
        ([], [1], NotDivisibleError),
        ([5, 5], [5, 2], NotDivisibleError),
    ],
)
def test_q_ratio_cancels_whole_and_refuses_like_the_reference(num, den, expected):
    assert q_ratio_or_refusal(_q_ratio, num, den) == expected
    assert q_ratio_or_refusal(uncancelled_q_ratio, num, den) == expected


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("n", range(7))
def test_q_products_match_the_uncancelled_ratio(m, n):
    assert macmahon_product(BoxParams(m, n)) == macmahon_by_whole_ratio(m, n)
    assert gordon_product(BoxParams(m, n)) == gordon_by_whole_ratio(m, n)


# -- principal specialization --------------------------------------------------------------


def test_specialization_examples():
    assert principal_specialization(x1 + x2, (3, 1)) == q**3 + q
    assert principal_specialization(P.one(), (5, 2)) == P.one()
    specialized = principal_specialization(schur_box_sum(BoxParams(1, 2)), (3, 1))
    assert specialized == parse_poly("1 + q + q^3 + q^4")


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_macmahon_chain(m, n):
    gf = generating_function(symmetric_plane_partitions(n, m))
    specialized = principal_specialization(
        schur_box_sum(BoxParams(m, n)), [2 * (n - i) + 1 for i in range(1, n + 1)]
    )
    assert gf == specialized == macmahon_product(BoxParams(m, n))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gordon_chain(m, n):
    specialized = principal_specialization(schur_box_sum(BoxParams(m, n)), list(range(n, 0, -1)))
    assert specialized == gordon_product(BoxParams(m, n))
