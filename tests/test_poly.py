"""Ring axioms, exact division, determinants, and the canonical text format."""

from math import factorial

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from schurbox.poly import (
    MAX_EXPONENT,
    ExponentRangeError,
    LaurentPoly,
    Monomial,
    NotDivisibleError,
    OrderTooLargeError,
    binomial_det,
    determinant,
    exact_div,
    expand_det,
    signed_permutations,
    swap_images,
    unit_keys,
)
from schurbox.identity import eq6_rhs, eq6_sides
from reference_poly import inversion_count, largest_exponent, parse_poly

P = LaurentPoly
x1, x2, x3, q = P.variable("x1"), P.variable("x2"), P.variable("x3"), P.variable("q")

variables = st.sampled_from(["q", "t1", "x1", "x2", "x3"])
monomials = st.dictionaries(variables, st.integers(-3, 3), max_size=3).map(Monomial)
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=8).map(LaurentPoly)
small_polys = st.dictionaries(monomials, st.integers(-4, 4), max_size=4).map(LaurentPoly)


# -- construction and canonical form ------------------------------------------


def test_zero_coefficients_not_stored():
    assert len(P([(Monomial({"q": 1}), 2), (Monomial({"q": 1}), -2)])) == 0
    assert P.constant(0) == P.zero()


def test_zero_exponents_not_stored():
    assert Monomial({"x1": 0, "x2": 3}) == Monomial({"x2": 3})
    assert Monomial.variable("q", 0) == Monomial()


CONSTRUCTORS = {
    "Monomial": lambda v: Monomial({"x1": v}),
    "Monomial.variable": lambda v: Monomial.variable("x1", v),
    "LaurentPoly": lambda v: P([(Monomial.variable("x1"), v)]),
    "LaurentPoly.constant": P.constant,
    "LaurentPoly.variable": lambda v: P.variable("x1", v),
    "LaurentPoly.term": lambda v: P.term(Monomial.variable("x1"), v),
}


@pytest.mark.parametrize("value", [0.4, 2.7, "3"], ids=["float-0.4", "float-2.7", "str"])
@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_constructors_take_ints_only(name, value):
    # a float is not truncated (0.4 would store a 0 coefficient) and a str is not parsed
    with pytest.raises(TypeError):
        CONSTRUCTORS[name](value)
    assert CONSTRUCTORS[name](True) == CONSTRUCTORS[name](1)


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        Monomial.variable("y1")
    with pytest.raises(ValueError):
        Monomial.variable("x0")


def test_exponent_refuses_names_outside_the_namespace():
    mono = Monomial({"x1": 2, "t3": -1})
    exps = mono.exponents()
    assert [exps.get(v, 0) for v in ("x1", "t3", "q", "x2", "t1", "x9")] == [2, -1, 0, 0, 0, 0]
    for name in ("y1", "x0", "X1"):
        with pytest.raises(ValueError, match="unknown variable"):
            Monomial({name: 1})


def test_power_takes_int_exponents_only():
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        x1 ** 1.0
    assert (1 + x1) ** True == 1 + x1
    assert (1 + x1) ** 0 == 1


def test_unit_keys_are_the_keys_of_single_variables():
    assert unit_keys("x", 0) == ()
    for letter in "tx":
        keys = unit_keys(letter, 12)
        assert keys == tuple(Monomial.variable(f"{letter}{i}").key for i in range(1, 13))
    with pytest.raises(ValueError):
        unit_keys("q", 1)


def test_from_keys_sums_terms_built_from_unit_keys():
    ts, xs = unit_keys("t", 2), unit_keys("x", 10)
    poly = P.from_keys(
        [(3 * xs[0] - 2 * xs[9] + ts[1], 4), (xs[1], 1), (xs[1], -1), (0, 5), (-xs[0], 2)]
    )
    x_t_term = P.variable("x1", 3) * P.variable("x10", -2) * P.variable("t2")
    assert poly == 4 * x_t_term + 5 + 2 * P.variable("x1", -1)
    assert P.from_keys([]) == 0
    big = P.from_keys([(MAX_EXPONENT * xs[0], 1)])
    assert big == P.variable("x1", MAX_EXPONENT)
    with pytest.raises(ExponentRangeError):
        big * x1


def test_from_keys_bound_reads_every_chunk():
    """The exponent bound is read over every key; a largest exponent in the
    last key must still make the product's range check fire."""
    xs = unit_keys("x", 1)
    poly = P.from_keys([(e * xs[0], 1) for e in range(5)] + [(MAX_EXPONENT * xs[0], 1)])
    with pytest.raises(ExponentRangeError):
        poly * x1


def test_key_terms_round_trip_through_from_keys():
    poly = 3 * P.variable("x2", -4) * P.variable("t1") - P.variable("q", 7) + 2
    assert P.from_keys(poly.key_terms()) == poly
    assert sorted(c for _, c in poly.key_terms()) == [-1, 2, 3]
    assert list(P.zero().key_terms()) == []


# -- packed exponent range -----------------------------------------------------


def test_largest_exponent_fits_beside_its_neighbours():
    top = MAX_EXPONENT
    mono = Monomial({"q": top, "t1": -top, "x1": top, "t2": -1})
    assert mono.pairs == (("q", top), ("t1", -top), ("t2", -1), ("x1", top))
    text = f"-x2^-{top} + q^{top}*x1"
    poly = parse_poly(text)
    assert poly == P({Monomial({"q": top, "x1": 1}): 1, Monomial({"x2": -top}): -1})
    assert poly.to_text() == text


@pytest.mark.parametrize("exp", [MAX_EXPONENT + 1, -MAX_EXPONENT - 1, 2**40])
def test_exponent_one_past_the_range_raises(exp):
    assert issubclass(ExponentRangeError, ArithmeticError)
    with pytest.raises(ExponentRangeError, match=f"exponent {exp} of x1 is outside"):
        Monomial.variable("x1", exp)
    with pytest.raises(ExponentRangeError):
        Monomial({"q": exp})
    with pytest.raises(ExponentRangeError):
        P.variable("t3", exp)
    with pytest.raises(ExponentRangeError):
        parse_poly(f"1 + x2*x1^{exp}")
    with pytest.raises(ExponentRangeError):
        Monomial([("q", exp - 1 if exp > 0 else exp + 1), ("q", 1 if exp > 0 else -1)])


def test_product_of_in_range_operands_past_the_range_raises():
    half = P.variable("x1", 2**30)
    assert half * P.variable("x1", 2**30 - 1) == P.variable("x1", MAX_EXPONENT)
    assert x1**MAX_EXPONENT == P.variable("x1", MAX_EXPONENT)
    with pytest.raises(ExponentRangeError, match="may reach 2147483648"):
        half * half
    with pytest.raises(ExponentRangeError):
        half**2
    with pytest.raises(ExponentRangeError):
        P.variable("x1", -MAX_EXPONENT) * (1 + P.variable("x1", -1))
    # The operands' bounds sum past the range, but every exponent of the
    # product fits, so the exact per-position check lets it through.
    big_q = P.variable("q", MAX_EXPONENT)
    assert big_q * x1 == P.term(Monomial({"q": MAX_EXPONENT, "x1": 1}))
    assert (big_q * x1).to_text() == f"q^{MAX_EXPONENT}*x1"
    assert big_q * P.variable("q", -MAX_EXPONENT) == 1
    assert (big_q + x1) * (x1 - 1) == big_q * x1 - big_q + x1**2 - x1
    # ... and refuses one where a single position leaves it.
    with pytest.raises(ExponentRangeError, match="may reach 2147483648"):
        big_q * (x1 + P.variable("q"))
    with pytest.raises(ExponentRangeError, match="may reach 2147483648"):
        P.variable("q", -MAX_EXPONENT) * (x1 + P.variable("q", -1))
    with pytest.raises(ExponentRangeError):
        P.variable("q", 2**16).substitute({"q": Monomial.variable("x1", 2**15)})
    with pytest.raises(ExponentRangeError):
        exact_div(P.variable("x1", MAX_EXPONENT), P.variable("x1", -1))


def test_substitution_whose_exponents_fit_is_not_refused():
    # The per-variable bound keeps 2**30 for the renamings; for the other
    # maps it passes the range, so the exact per-position bound decides.
    half = P.variable("x1", 2**30)
    assert half.substitute({"x1": "x1"}) == half
    pair = half * P.variable("x2", -(2**30)) + 3 * x2
    assert pair.substitute({"x1": "x2", "x2": "x1"}) == (
        P.variable("x2", 2**30) * P.variable("x1", -(2**30)) + 3 * x1
    )
    assert pair.substitute({"x2": "x1"}) == 1 + 3 * x1
    top = P.variable("x1", MAX_EXPONENT)
    assert top.substitute({"x1": Monomial.variable("q", -1)}) == P.variable("q", -MAX_EXPONENT)
    with pytest.raises(ExponentRangeError, match="may reach 2147483648"):
        half.substitute({"x1": Monomial.variable("x1", 2)})
    with pytest.raises(ExponentRangeError, match="may reach 2147483648"):
        (half * P.variable("x2", 2**30)).substitute({"x2": "x1"})


# -- arithmetic examples -------------------------------------------------------


def test_difference_of_squares():
    assert (1 + x1) * (1 - x1) == 1 - x1**2


def test_additive_identity():
    p = 3 * x1 * q - 2
    assert p + P.zero() == p


def test_laurent_exponent_cancellation():
    assert P.variable("x1") * P.variable("x2", -1) * x2 == x1


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(small_polys, small_polys, small_polys)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- substitution --------------------------------------------------------------


def test_substitute_monomial_targets():
    assert (x1 * x2).substitute({"x1": Monomial.variable("q", 3), "x2": "q"}) == q**4


def test_substitute_laurent_passthrough():
    assert (x1 + P.variable("x1", -1)).substitute({"x1": "q"}) == q + P.variable("q", -1)


def test_substitute_direct():
    m = 2
    assert (1 - x1 ** (m + 1)).substitute({"x1": "q"}) == 1 - q**3


def test_substitute_zero_and_one():
    p = 1 + x1 + x1 * x2
    assert p.substitute({"x1": 1}) == 2 + x2
    # x1 := 0 is no ring map on Laurent polynomials; the x1^0 part of
    # powers("x1") is its value on a true polynomial.
    with pytest.raises(ValueError, match="unsupported substitution target for 'x1': 0"):
        p.substitute({"x1": 0})
    assert p.powers("x1")[0] == P.one()


assignments = st.dictionaries(
    variables,
    st.tuples(variables, st.integers(-2, 2)).map(lambda t: Monomial.variable(*t)),
    max_size=3,
)


@given(small_polys, small_polys, assignments)
def test_substitute_is_ring_homomorphism(a, b, sub):
    assert (a * b).substitute(sub) == a.substitute(sub) * b.substitute(sub)
    assert (a + b).substitute(sub) == a.substitute(sub) + b.substitute(sub)


def test_renaming_chain_keeps_the_bound():
    p = x1 + x2**3
    for _ in range(15):
        p = p.substitute({"x1": "x2", "x2": "x1"})
    assert p._bound == 3 and p == x2 + x1**3


@given(polys, st.dictionaries(variables, st.one_of(monomials, variables, st.just(1)), max_size=3))
@example(P.term(Monomial({"x1": 3, "x2": 3})), {"x2": "x1"})
@example(P.term(Monomial({"x1": 3, "x2": 3})), {"x1": Monomial({"q": 3}), "x2": Monomial({"q": 3})})
def test_substitution_bound_covers_every_exponent(p, sub):
    # Sound, and at most the coarser estimate bound * (1 + sum of image bounds).
    out = p.substitute(sub)
    earlier = p._bound * (1 + sum(map(largest_exponent, sub.values())))
    assert largest_exponent(out) <= out._bound <= earlier


tx_monomials = st.dictionaries(
    st.sampled_from(["q", "t1", "t2", "t3", "x1", "x2", "x3"]), st.integers(-3, 3), max_size=4
).map(Monomial)
tx_polys = st.dictionaries(tx_monomials, st.integers(-9, 9), max_size=8).map(LaurentPoly)


def renamed(p, a, b):
    """``p`` under x_a <-> x_b, t_a <-> t_b, by ``LaurentPoly.substitute``."""
    return p.substitute({f"{v}{i}": f"{v}{j}" for i, j in ((a, b), (b, a)) for v in "tx"})


@given(tx_polys, st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=6))
@example(P.zero(), [(1, 2), (2, 3)])
# no term uses x4 or x5, and t2 and x2 have negative exponents
@example(x1 * P.variable("t2", -2) - P.variable("x2", -3), [(4, 5), (1, 4), (4, 5)])
@example(x1 + x2**3, [(1, 2)] * 15)
def test_swap_images_match_a_chain_of_substitute_renamings(p, swaps):
    images = swap_images(p, swaps)
    coeffs = [c for _, c in p.key_terms()]
    expected = p
    for r, keys in enumerate(images):
        if r:
            expected = renamed(expected, *swaps[r - 1])
        assert len(set(keys)) == len(keys) == len(p)
        image = P.from_keys(zip(keys, coeffs))  # no bound given: every key is decoded
        assert image == expected and image._bound <= p._bound
    assert r == len(swaps)


def test_swap_images_refuse_an_index_below_one_at_the_call():
    with pytest.raises(ValueError, match="indices start at 1"):
        swap_images(x1, [(1, 2), (0, 1)])
    assert list(swap_images(x1, [])) == [[key for key, _ in x1.key_terms()]]


def test_eq6_renamings_need_no_exact_bound(monkeypatch):
    # eq6 renames by swap_images, which keeps each term's bound; only
    # LaurentPoly.substitute reads the keys for an exact one, so eq6 may not call it.
    def refuse(*args):
        raise AssertionError("eq6 renamed by LaurentPoly.substitute")

    monkeypatch.setattr(LaurentPoly, "substitute", refuse)
    eq6_sides(6, eq6_rhs(6))


def test_coefficient_of():
    p = x1**2 * x2 - 3 * x1**2 + x2
    assert p.powers("x1") == {2: x2 - 3, 0: x2}


# -- exact division ------------------------------------------------------------


def test_exact_div_geometric_factor():
    assert exact_div(1 - q**2, 1 - q) == 1 + q


def test_exact_div_rechecked_by_multiplication():
    num = x1**3 * x2 - x1 * x2**3
    den = x1 - x2
    quo = exact_div(num, den)
    assert quo == x1**2 * x2 + x1 * x2**2
    assert quo * den == num


def test_exact_div_not_divisible():
    with pytest.raises(NotDivisibleError):
        exact_div(1 + q - q**3, 1 - q)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(x1, P.zero())


def test_exact_div_laurent_quotient():
    # quotients may carry negative exponents
    assert exact_div(P.one(), x1) == P.variable("x1", -1)
    assert exact_div(x1**2, x1**3) == P.variable("x1", -1)


@pytest.mark.parametrize("d", [255, 256, 300])
def test_exact_div_one_variable_carries_the_whole_degree(d):
    # a digit equal to the largest total degree still fits its packed field
    num = x1**d * q - q ** (d + 1)
    den = x1**d - q**d
    assert exact_div(num, den) == q
    assert exact_div(num, q) == den


def test_exact_div_divisor_of_higher_degree_raises():
    with pytest.raises(NotDivisibleError):
        exact_div(1 + x1, 1 + x1 + x1**2)
    with pytest.raises(NotDivisibleError):
        exact_div(q * x1 - 1, x1**3 - q**2 * x2)


def test_exact_div_leading_coefficient_must_divide():
    with pytest.raises(NotDivisibleError, match=r"leading term has exponents \{'x1': 1\}"):
        exact_div(2 * x1 + 1, 3 * x1 + 1)
    assert exact_div(6 * x1 + 2, 3 * x1 + 1) == 2


def test_exact_div_error_reports_laurent_exponents():
    # the remainder is 1 + x1^-3, whose leading term is 1, not the shifted x1^3
    with pytest.raises(NotDivisibleError, match=r"exponents \{'q': 0, 'x1': 0\}\Z"):
        exact_div(P.variable("x1", -3) + q, 1 - q)


def test_exact_div_eleven_variables():
    names = ["q"] + [f"t{i}" for i in range(1, 6)] + [f"x{i}" for i in range(1, 6)]
    v = [P.variable(name) for name in names]
    a = 1 + sum((k + 1) * var for k, var in enumerate(v)) - P.variable("t5", -2) * v[0]
    b = v[0] * P.variable("t1", -1) - v[10] ** 2 + 3 * v[3] * v[7] - 1
    num = a * b
    assert len({v for mono, _ in num.terms() for v in mono.exponents()}) == 11
    assert exact_div(num, b) == a
    assert exact_div(num, a) == b
    with pytest.raises(NotDivisibleError):
        exact_div(num + v[6], b)


@given(polys, polys)
def test_exact_div_round_trip(a, b):
    if b.is_zero():
        return
    assert exact_div(a * b, b) == a


# -- determinants ---------------------------------------------------------------


def test_determinant_order_one():
    a = 1 - q + x1
    assert determinant([[a]]) == a


def test_determinant_vandermonde_2x2():
    assert determinant([[1, x1], [1, x2]]) == x2 - x1


def test_determinant_row_swap_negates():
    rows = [[x1, 1 - q, x2], [x3, x1 * x2, 1], [2, x2, q]]
    swapped = [rows[1], rows[0], rows[2]]
    assert determinant(swapped) == -determinant(rows)


def test_determinant_order_bound():
    big = [[P.one()] * 9 for _ in range(9)]
    with pytest.raises(OrderTooLargeError):
        determinant(big)
    # the guard sits in the n!-entry list that every expansion starts from
    with pytest.raises(OrderTooLargeError, match="order 9 exceeds the bound 8"):
        signed_permutations(9)
    identity = [[int(i == j) for j in range(8)] for i in range(8)]
    assert determinant(identity) == P.one()


def test_matrix_must_be_square():
    for rows in ([[x1, x2]], [[x1, x2], [q]], []):
        with pytest.raises(ValueError):
            determinant(rows)


matrix_rows = st.lists(st.lists(small_polys, min_size=3, max_size=3), min_size=3, max_size=3)


@given(matrix_rows, st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40)
def test_determinant_alternates_and_is_row_linear(rows, r1, r2):
    base = determinant(rows)
    if r1 != r2:
        swapped = list(rows)
        swapped[r1], swapped[r2] = swapped[r2], swapped[r1]
        assert determinant(swapped) == -base
    # linearity in row r1: replace the row by a sum
    extra = [x1 - q, P.constant(2), x2 * x3]
    summed = list(rows)
    summed[r1] = [a + b for a, b in zip(rows[r1], extra)]
    other = list(rows)
    other[r1] = extra
    assert determinant(summed) == base + determinant(other)


# -- key-level expansion against the ring route ------------------------------------


def monomial_tables(n):
    return st.lists(st.lists(monomials, min_size=n, max_size=n), min_size=n, max_size=n)


table_pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(monomial_tables(n), monomial_tables(n)))


def keys(table):
    return [[mono.key for mono in row] for row in table]


@given(table_pairs)
@settings(max_examples=80)
def test_expand_det_matches_determinant(tables):
    a, b = tables
    monomial = [[P.term(mono) for mono in row] for row in a]
    assert P.from_keys(expand_det(keys(a))) == determinant(monomial)
    binomial = [
        [P.term(ma) - P.term(mb) for ma, mb in zip(ra, rb)] for ra, rb in zip(a, b)
    ]
    assert P.from_keys(expand_det(keys(a), keys(b))) == determinant(binomial)


def test_expand_det_order_bound_and_empty_table():
    table = [[0] * 9 for _ in range(9)]
    # refused at the call, so no term is ever yielded
    with pytest.raises(OrderTooLargeError, match="order 9 exceeds the bound 8"):
        expand_det(table)
    with pytest.raises(OrderTooLargeError):
        expand_det(table, table)
    assert P.from_keys(expand_det([])) == P.from_keys(expand_det([], [])) == 1
    # order 8 is accepted: the all-ones matrix, whose 8! terms cancel
    assert P.from_keys(expand_det([[0] * 8 for _ in range(8)])) == 0


def test_expand_det_drops_a_table_with_an_equal_column():
    a = [[u * e for e in (0, 1, 2)] for u in unit_keys("x", 3)]
    b = [[u * e for e in (3, 1, -2)] for u in unit_keys("x", 3)]  # column 2: x_i - x_i
    assert list(expand_det(a, b)) == []
    b = [[u * e for e in (3, 4, -2)] for u in unit_keys("x", 3)]
    assert len(list(expand_det(a, b))) == 2**3 * factorial(3)


def test_binomial_det_refuses_repeated_names_and_ragged_exponents():
    with pytest.raises(ValueError, match="distinct names"):
        binomial_det(["x1", "x2", "x1"], [0, 1, 2], [5, 4, 3])
    with pytest.raises(ValueError, match="distinct names"):
        binomial_det(["x1", "x2"], [0, 1, 2], [5, 4, 3])
    with pytest.raises(ValueError, match="distinct names"):
        binomial_det(["x1", "x2"], [0, 1], [5])
    # distinct names need not be consecutive, and their bound is the largest |exponent|
    det = binomial_det(["x3", "q"], [0, 1], [-4, 2])
    assert det == determinant(
        [[1 - P.variable(v, -4), P.variable(v) - P.variable(v, 2)] for v in ("x3", "q")]
    )
    assert det._bound == 4


def test_inversion_count():
    assert inversion_count((1, 2, 3)) == 0
    assert inversion_count((3, 2, 1)) == 3
    assert inversion_count((2, 1, 3)) == 1


@pytest.mark.parametrize("n", range(9))
def test_signed_permutations_match_inversion_parity(n):
    perms = signed_permutations(n)
    assert len(perms) == factorial(n)
    assert len({images for images, _ in perms}) == len(perms)
    for images, sign in perms:
        assert sorted(images) == list(range(n))
        assert sign == (-1) ** inversion_count(images)


# -- canonical text format ------------------------------------------------------


@pytest.mark.parametrize(
    "poly, text",
    [
        (P.zero(), "0"),
        (P.one(), "1"),
        (P.constant(-7), "-7"),
        (1 - q**2, "1 - q^2"),
        (1 + q + q**3 + q**4, "1 + q + q^3 + q^4"),
        (P.variable("q", -1) + q, "q^-1 + q"),
        (2 * x1 * q - 3 * P.variable("t2", -1), "-3*t2^-1 + 2*q*x1"),
    ],
)
def test_canonical_text(poly, text):
    assert poly.to_text() == text
    assert parse_poly(text) == poly


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_poly("1 + y2")
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("q^")
    # U+0663 ARABIC-INDIC DIGIT THREE: int() reads it, to_text never writes it
    for text in ["q^\u0663", "\u0663*x1", "x1^-\u0663"]:
        with pytest.raises(ValueError, match="bad factor"):
            parse_poly(text)


@given(polys)
def test_text_round_trip(p):
    assert parse_poly(p.to_text()) == p
