"""The lemma, the determinant-expansion chain, and the vanishing determinant."""

import json
from itertools import combinations

import pytest

from reference_identity import all_subsets_rhs, subset_terms
from reference_poly import inversion_count
from schurbox import identity
from schurbox.checks import CheckResult, RunConfig, run_verification
from schurbox.identity import (
    eq4_sides,
    eq5_sides,
    eq6_rhs,
    eq6_sides,
    f_function,
    lemma_sides,
    vanishing_det,
)
from schurbox.poly import (
    ExponentRangeError,
    LaurentPoly,
    Monomial,
    OrderTooLargeError,
    signed_permutations,
    times_binomials,
)
from schurbox.schur import (
    BoxParams,
    box_det_ratio,
    bn_factors,
    schur_box_sum,
    vandermonde_factors,
    weyl_denominator,
    xvars,
)

P = LaurentPoly
x1, x2 = P.variable("x1"), P.variable("x2")


def all_x_product(n):
    return P.term(Monomial({f"x{i}": 1 for i in range(1, n + 1)}))


# -- permutations and subsets as eq5/eq6 expand them -----------------------------------


def test_permutation_basics():
    signs = dict(signed_permutations(3))
    assert inversion_count((1, 0, 2)) == 1 and signs[(1, 0, 2)] == -1
    assert signs[(2, 1, 0)] == -1
    assert signs[(0, 1, 2)] == 1


def test_signed_permutations_by_insertion():
    # each permutation of range(2) with 2 inserted at position 0, 1, 2
    assert signed_permutations(3) == [
        ((2, 1, 0), -1), ((1, 2, 0), 1), ((1, 0, 2), -1),
        ((2, 0, 1), 1), ((0, 2, 1), -1), ((0, 1, 2), 1),
    ]
    assert signed_permutations(0) == [((), 1)]


def test_signed_subset_mask_order():
    """eq5/eq6's subset convention: bit i - 1 of a mask is membership of i, the
    masks below 2**n - 1 are the proper subsets, and (-1)^|S| is the parity
    of the bit count."""
    masks = range(1 << 2)
    members = [[i for i in (1, 2) if mask >> (i - 1) & 1] for mask in masks]
    assert members == [[], [1], [2], [1, 2]]
    assert [len(s) < 2 for s in members] == [mask < 3 for mask in masks]
    assert [(-1) ** len(s) for s in members] == [-1 if m.bit_count() & 1 else 1 for m in masks]


# -- the lemma ------------------------------------------------------------------------


def test_lemma_order_one():
    assert lemma_sides(1) == (1 - x1, 1 - x1)


def test_lemma_order_two_closed_form():
    lhs, rhs = lemma_sides(2)
    expected = (1 - x1 * x2) * (x2 - x1)
    assert lhs == expected and rhs == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_lemma_sides_equal(n):
    lhs, rhs = lemma_sides(n)
    assert lhs == rhs


@pytest.mark.parametrize("n", range(2, 5))
def test_lemma_lhs_antisymmetric(n):
    lhs, _ = lemma_sides(n)
    for i in range(1, n):
        swap = {f"x{i}": f"x{i + 1}", f"x{i + 1}": f"x{i}"}
        assert lhs.substitute(swap) == -lhs


# -- the symmetric ratio F -------------------------------------------------------------


def test_f_order_one_and_two():
    assert f_function(1) == 1 - x1
    assert f_function(2) == 1 - x1 * x2


@pytest.mark.parametrize("n", range(1, 5))
def test_f_closed_form(n):
    assert f_function(n) == 1 - all_x_product(n)


def test_f_boundary_values():
    f3 = f_function(3)
    assert f3.powers("x1")[0] == 1
    shifted = f_function(2).substitute({"x1": "x2", "x2": "x3"})
    assert f3.substitute({"x1": 1}) == shifted


# -- eq4 / eq5 / eq6 ---------------------------------------------------------------------


def test_eq4_order_one():
    assert eq4_sides(BoxParams(1, 1)) == (1 - x1**2, 1 - x1**2)
    assert eq4_sides(BoxParams(2, 1)) == (1 - x1**3, 1 - x1**3)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_eq4_sides_equal(m, n):
    lhs, rhs = eq4_sides(BoxParams(m, n))
    assert lhs == rhs


def test_eq5_order_one():
    for m in range(1, 4):
        lhs, rhs = eq5_sides(BoxParams(m, 1), eq6_rhs(1))
        assert lhs == 1 - x1 ** (m + 1)
        assert lhs == rhs


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_eq5_sides_equal_and_match_eq4(m, n):
    lhs5, rhs5 = eq5_sides(BoxParams(m, n), eq6_rhs(n))
    lhs4, rhs4 = eq4_sides(BoxParams(m, n))
    assert lhs5 == rhs5
    assert lhs5 == lhs4
    assert rhs5 == rhs4


def mul_chain_vandermonde(n):
    """prod_{i<j} (x_i - x_j) by ``LaurentPoly.__mul__``; the checks multiply
    ``vandermonde_factors`` through ``times_binomials``, the kernel under test."""
    xs = [P.variable(v) for v in xvars(n)]
    out = P.one()
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (xs[i] - xs[j])
    return out


def whole_product_rhs(inner, n):
    """inner * prod_i (1 - x_i) * prod_{i<j} (x_i x_j - 1), each product built whole.

    The form the eq4/eq5 right sides had before ``times_binomials``; kept
    only as the reference for the binomial-at-a-time path.
    """
    xs = [P.variable(v) for v in xvars(n)]
    one_minus_x = P.one()
    for xi in xs:
        one_minus_x = one_minus_x * (1 - xi)
    xx_minus_one = P.one()
    for i in range(n):
        for j in range(i + 1, n):
            xx_minus_one = xx_minus_one * (xs[i] * xs[j] - 1)
    return inner * one_minus_x * xx_minus_one


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eq4_eq5_rhs_match_whole_product_reference(m, n):
    # the alternant sum comes from the tableau box sum, not from a determinant
    box = BoxParams(m, n)
    expected = whole_product_rhs(schur_box_sum(box) * mul_chain_vandermonde(n), n)
    assert eq4_sides(box)[1] == expected
    assert eq5_sides(box, eq6_rhs(n))[1] == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_bn_factor_builder_gives_the_weyl_determinant(n):
    vandermonde = times_binomials(LaurentPoly.one(), vandermonde_factors(xvars(n)))
    assert times_binomials(vandermonde, bn_factors(n)) == weyl_denominator(n, "determinant")
    assert vandermonde == mul_chain_vandermonde(n)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_eq4_lhs_is_the_ratio_numerator(m, n):
    """eq4's left side is the numerator determinant of the box-sum ratio."""
    lhs4, _ = eq4_sides(BoxParams(m, n))
    assert lhs4 == box_det_ratio(BoxParams(m, n)) * weyl_denominator(n, "determinant")


def test_eq5_checks_its_tables_before_enumerating_partitions(monkeypatch):
    def refuse(m, n):
        raise AssertionError(f"enumerated the partitions in the {m} x {n} box")

    monkeypatch.setattr(identity, "partitions_in_box", refuse)
    # m + 2n - 1 = 2**31 packed unchecked would carry into t2
    with pytest.raises(ExponentRangeError, match="exponent 2147483648 of x1"):
        eq5_sides(BoxParams(2**31 - 1, 1), eq6_rhs(1))


def test_eq5_builds_none_of_eq4s_alternant_sum(monkeypatch):
    def refuse(*args):
        raise AssertionError("eq5 built part of eq4's alternant sum")

    monkeypatch.setattr(identity, "alternant_table", refuse)
    monkeypatch.setattr(identity, "bn_factors", refuse)
    for n in range(1, 5):
        for m in range(1, 4):
            lhs, rhs = eq5_sides(BoxParams(m, n), eq6_rhs(n))
            assert lhs == rhs


def test_a_wrong_eq6_builder_fails_eq5_and_eq6_but_not_eq4(monkeypatch):
    k_factor = identity._k_factor

    def wrong_k_factor(n, k):
        # the k = 1 prefactor negated: eq6's right side is wrong, or its division is not exact
        first, *rest = k_factor(n, k)
        return [-first if k == 1 else first, *rest]

    monkeypatch.setattr(identity, "_k_factor", wrong_k_factor)
    results = run_verification(RunConfig(("eq4", "eq5", "eq6"), (1, 2), (2, 3)))
    assert [(r.identity, r.passed) for r in results] == (
        [("eq4", True)] * 4 + [("eq5", False)] * 4 + [("eq6", False)] * 2
    )


def test_weyl_eq4_and_lemma_multiply_sums_only_through_times_binomials(monkeypatch):
    """Their product sides are times_binomials calls on factor lists, so no check among
    them multiplies two polynomials of several terms each."""
    mul = P.__mul__

    def mul_with_a_monomial(self, other):
        if isinstance(other, P) and len(self) > 1 and len(other) > 1:
            raise AssertionError(f"{len(self)}-term times {len(other)}-term polynomial")
        return mul(self, other)

    monkeypatch.setattr(P, "__mul__", mul_with_a_monomial)
    monkeypatch.setattr(P, "__rmul__", mul_with_a_monomial)
    results = run_verification(RunConfig(("weyl", "eq4", "lemma"), (1, 2), (1, 4)))
    assert len(results) == 16
    assert [r for r in results if not r.passed] == []


def test_eq6_order_one():
    t1 = P.variable("t1")
    assert eq6_sides(1, eq6_rhs(1)) == (1 - t1, 1 - t1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eq6_sides_equal(n):
    lhs, rhs = eq6_sides(n, eq6_rhs(n))
    assert lhs == rhs


@pytest.mark.parametrize("m", [1, 2])
def test_eq6_specializes_to_eq5(m):
    """t_i := x_i^{m+2n-1} undoes the x_i^{m+1} -> t_i x_i^{2-2n} replacement."""
    n = 2
    lhs6, rhs6 = eq6_sides(n, eq6_rhs(n))
    sub = {f"t{i}": Monomial.variable(f"x{i}", m + 2 * n - 1) for i in range(1, n + 1)}
    lhs5, rhs5 = eq5_sides(BoxParams(m, n), eq6_rhs(n))
    assert lhs6.substitute(sub) == lhs5
    assert rhs6.substitute(sub) == rhs5


@pytest.mark.parametrize("n", range(1, 6))
def test_eq6_rhs_matches_the_all_subsets_reference(n):
    assert eq6_sides(n, eq6_rhs(n))[1] == all_subsets_rhs(n)


def shuffle(n, subset):
    """sigma_S as a renaming (1..s onto S, s+1..n onto the complement, both
    increasing) and sgn(sigma_S), counted as inversions."""
    images = [*subset, *(i for i in range(1, n + 1) if i not in subset)]
    renaming = {f"{v}{i}": f"{v}{j}" for i, j in enumerate(images, 1) for v in "tx"}
    return renaming, (-1) ** inversion_count(tuple(images))


@pytest.mark.parametrize("n", range(1, 5))
def test_eq6_subset_terms_are_signed_shuffles_of_one_per_size(n):
    """Every reference term_S is sgn(sigma_S) sigma_S(term_{1..s}), and
    sgn(sigma_S) = (-1)^(sum S - s(s+1)/2)."""
    terms = dict(subset_terms(n))
    for mask, term in terms.items():
        subset = tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
        s = len(subset)
        renaming, sign = shuffle(n, subset)
        assert sign == (-1) ** (sum(subset) - s * (s + 1) // 2)
        assert term == sign * terms[(1 << s) - 1].substitute(renaming)


@pytest.mark.parametrize("n", range(1, 5))
def test_eq6_door_transpositions_reach_every_subset_term(n):
    """Walking identity._transpositions from term_{1..s} gives, at the r-th
    subset of the revolving-door order, (-1)^r times the reference term."""
    terms = dict(subset_terms(n))
    for s in range(n):
        door = identity._revolving_door(n, s)
        image = terms[(1 << s) - 1]
        for r, (subset, renaming) in enumerate(zip(door[1:], identity._transpositions(n, s)), 1):
            image = image.substitute(renaming)
            mask = sum(1 << (i - 1) for i in subset)
            assert terms[mask] == (-1) ** r * image


@pytest.mark.parametrize("n", range(1, 8))
def test_revolving_door_order(n):
    for s in range(n + 1):
        door = identity._revolving_door(n, s)
        assert sorted(door) == list(combinations(range(1, n + 1), s))
        assert door[0] == tuple(range(1, s + 1))
        assert all(len(set(a) - set(b)) == 1 for a, b in zip(door, door[1:]))


def test_order_bounds_guarded(monkeypatch):
    with pytest.raises(OrderTooLargeError):
        eq5_sides(BoxParams(1, 9), P.zero())

    def refuse(*args):
        raise AssertionError("eq6 built a k-prefactor above the order bound")

    monkeypatch.setattr(identity, "_k_factor", refuse)
    with pytest.raises(OrderTooLargeError):
        eq6_sides(9, P.zero())
    with pytest.raises(OrderTooLargeError):
        vanishing_det(9)


# -- the vanishing determinant --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_vanishing_det_is_zero(n):
    assert vanishing_det(n) == P.zero()


# -- check records ---------------------------------------------------------------------------


def test_check_result_json():
    ok = CheckResult("lemma", None, 2, x1, x1, True, 1.25)
    data = ok.to_json_dict()
    assert data == {"identity": "lemma", "m": None, "n": 2, "pass": True, "elapsed_ms": 1.25}
    bad = CheckResult("theorem", 1, 2, x1, x2, False, 0.5)
    data = bad.to_json_dict()
    assert data["pass"] is False
    assert data["lhs"] == "x1" and data["rhs"] == "x2"
    json.dumps(data)  # serializable
