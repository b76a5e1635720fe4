"""The packed-int ring against the sorted-pairs arithmetic it replaced (``reference_poly``);
``coefficient_of`` there is the oracle for ``LaurentPoly.powers`` and ``from_powers``."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference_poly as ref
from reference_poly import largest_exponent
from schurbox.poly import (
    MAX_EXPONENT,
    ExponentRangeError,
    LaurentPoly,
    Monomial,
    from_powers,
    parse_poly,
)

# Digit positions interleave t_i and x_i, and t10 sorts before t2 as a string,
# so these names catch a canonical order taken from positions or from text.
NAMES = ["q", "t1", "t2", "t10", "x1", "x2", "x10", "x12"]

variables = st.sampled_from(NAMES)
monomials = st.dictionaries(variables, st.integers(-3, 3), max_size=4).map(Monomial)
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=8).map(LaurentPoly)
small_polys = st.dictionaries(monomials, st.integers(-4, 4), max_size=4).map(LaurentPoly)
targets = st.one_of(
    st.tuples(variables, st.integers(-3, 3)).map(lambda t: Monomial.variable(*t)),
    variables,
    st.just(1),
    st.just(0),  # refused by both rings with the same ValueError
)
assignments = st.dictionaries(variables, targets, max_size=3)


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


@given(monomials, monomials)
def test_monomial_product_matches_reference(a, b):
    (product, coeff), = (LaurentPoly.term(a) * LaurentPoly.term(b)).terms()
    assert (product.pairs, coeff) == (ref.mono_mul(a.pairs, b.pairs), 1)
    assert a.pairs == ref.sorted_pairs(a.exponents().items())


@given(polys, polys)
def test_ring_operations_match_reference(a, b):
    ra, rb = ref.from_poly(a), ref.from_poly(b)
    assert ref.from_poly(a * b) == ref.mul(ra, rb)
    assert ref.from_poly(a + b) == ref.add(ra, rb)
    assert ref.from_poly(a - b) == ref.add(ra, rb, -1)
    assert ref.to_poly(ref.mul(ra, rb)) == a * b


# Operands from a constant up to 12 terms, so the two sides differ in size
# either way round.
sized_polys = st.one_of(
    st.integers(-5, 5).map(LaurentPoly.constant),
    st.dictionaries(monomials, st.integers(-9, 9), max_size=12).map(LaurentPoly),
)


@given(sized_polys, sized_polys)
@settings(max_examples=300)
def test_product_matches_the_nested_loop_reference(a, b):
    expected = ref.nested_loop_mul(a, b)
    assert a * b == expected
    assert b * a == expected
    assert all(c for _, c in (a * b).terms())  # no cancelled term is kept


@given(sized_polys, st.integers(-5, 5))
def test_product_with_an_int_matches_the_reference(a, k):
    expected = ref.nested_loop_mul(a, LaurentPoly.constant(k))
    assert a * k == expected
    assert k * a == expected


@given(small_polys, st.integers(0, 4))
def test_power_matches_reference(a, exp):
    assert ref.from_poly(a**exp) == ref.power(ref.from_poly(a), exp)


@given(polys, assignments)
@settings(max_examples=300)
def test_substitute_matches_reference(a, sub):
    got = outcome(lambda: ref.from_poly(a.substitute(sub)))
    assert got == outcome(ref.substitute, ref.from_poly(a), sub)


@given(polys, variables)
def test_coefficient_of_matches_reference(a, var):
    parts = a.powers(var)
    ra = ref.from_poly(a)
    assert all(parts.values())  # an exponent with no terms has no part
    for exp in range(-4, 5):  # every exponent of ``polys``, and one past each end
        part = parts.get(exp, LaurentPoly.zero())
        assert ref.from_poly(part) == ref.coefficient_of(ra, var, exp)
    assert set(parts) <= set(range(-3, 4))


@given(polys, variables)
def test_from_powers_of_the_split_variable_rebuilds(a, var):
    assert from_powers(a.powers(var), var) == a


@given(polys, variables, targets.filter(lambda t: t != 0))
@settings(max_examples=300)
def test_from_powers_matches_substitute(a, var, image):
    assert from_powers(a.powers(var), image) == a.substitute({var: image})


# Exponents at the ends of the digit range, so that an image can push one past it.
edge_exponents = st.sampled_from(
    [-MAX_EXPONENT, 1 - MAX_EXPONENT, -1, 0, 1, MAX_EXPONENT - 1, MAX_EXPONENT]
)
edge_polys = st.dictionaries(
    st.dictionaries(variables, edge_exponents, max_size=3).map(Monomial),
    st.integers(-9, 9),
    max_size=4,
).map(LaurentPoly)
small_targets = st.one_of(
    st.tuples(variables, st.integers(-2, 2)).map(lambda t: Monomial.variable(*t)),
    variables,
    st.just(1),
)


@given(edge_polys, variables, small_targets)
@settings(max_examples=300)
def test_from_powers_range_check_matches_substitute(a, var, image):
    """Both raise ExponentRangeError exactly when some new exponent leaves the range."""
    got = outcome(lambda: from_powers(a.powers(var), image))
    want = outcome(lambda: a.substitute({var: image}))
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got[0] is want[0] is ExponentRangeError
    else:
        assert got == want
        assert largest_exponent(got) <= got._bound


def test_from_powers_refuses_an_exponent_past_the_range():
    x1, x2 = Monomial.variable("x1"), Monomial.variable("x2")
    top = LaurentPoly.term(Monomial({"x1": 1, "x2": MAX_EXPONENT}))
    with pytest.raises(ExponentRangeError):
        from_powers(top.powers("x1"), "x2")
    with pytest.raises(ExponentRangeError):
        from_powers((-top).powers("x2"), Monomial.variable("x1", -2))
    bottom = LaurentPoly.term(Monomial({"x1": -1, "x2": -MAX_EXPONENT}))
    with pytest.raises(ExponentRangeError):
        from_powers(bottom.powers("x1"), x2)
    # past the coarse bound but in range: x1^2 * x2^-MAX -> x2^(2 - MAX)
    low = LaurentPoly.term(Monomial({"x1": 2, "x2": -MAX_EXPONENT}))
    assert from_powers(low.powers("x1"), x2) == LaurentPoly.term(Monomial({"x2": 2 - MAX_EXPONENT}))
    assert from_powers(low.powers("x1"), x1) == low
    # an empty part adds nothing, however large its exponent
    assert from_powers({MAX_EXPONENT: LaurentPoly.zero(), **low.powers("x1")}, x2) == (
        from_powers(low.powers("x1"), x2)
    )


def test_from_powers_refuses_zero_like_substitute():
    with pytest.raises(ValueError, match="unsupported substitution target: 0"):
        from_powers(LaurentPoly.variable("x1").powers("x1"), 0)


@given(polys)
@settings(max_examples=300)
def test_canonical_order_and_text_match_reference(a):
    ra = ref.from_poly(a)
    assert [(m.pairs, c) for m, c in a.sorted_terms()] == ref.sorted_terms(ra)
    text = a.to_text()
    assert text == ref.to_text(ra)
    assert parse_poly(text) == a
    assert ref.from_poly(parse_poly(text)) == ra
    assert a.variables() == {v for mono in ra for v, _ in mono}
