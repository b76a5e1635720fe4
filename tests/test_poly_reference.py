"""The packed-int ring against the sorted-pairs arithmetic it replaced (``reference_poly``)."""

import hypothesis.strategies as st
from hypothesis import given, settings

import reference_poly as ref
from schurbox.poly import LaurentPoly, Monomial, parse_poly

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


@given(polys, variables, st.integers(-3, 3))
def test_coefficient_of_matches_reference(a, var, exp):
    assert ref.from_poly(a.coefficient_of(var, exp)) == ref.coefficient_of(
        ref.from_poly(a), var, exp
    )


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
