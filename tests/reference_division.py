"""``schurbox.poly.exact_div``'s graded-lex long division, read through the public API.

Kept as a reference for differential tests.  It is the same algorithm as
``exact_div``, but it finds each leading term with a linear ``max`` over the
remainder instead of a heap, so it costs O(|quotient| * |remainder|), and it
reads and builds polynomials through the public API only (``terms()``,
``Monomial.exponent`` and the ``LaurentPoly`` constructor), not from packed
keys.  Its NotDivisibleError message gives the remainder's leading exponents
in the dividend's Laurent coordinates, as ``exact_div`` does.
"""

from __future__ import annotations

from reference_poly import var_key
from schurbox.poly import LaurentPoly, Monomial, NotDivisibleError


def reference_exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring: returns q with num == q * den.

    Both operands are shifted by per-variable monomials so all exponents are
    non-negative, divided by multivariate long division under the graded-lex
    order, and the quotient is shifted back (so quotients may carry negative
    exponents).  Raises NotDivisibleError as soon as divisibility fails.
    """
    if den.is_zero():
        raise ZeroDivisionError("exact_div: divisor is the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    universe = sorted(num.variables() | den.variables(), key=var_key)

    def min_exponents(poly: LaurentPoly) -> dict[str, int]:
        # Monomial.exponent is 0 for an absent variable, so absence counts as 0.
        return {v: min(mono.exponent(v) for mono, _ in poly.terms()) for v in universe}

    num_min = min_exponents(num)
    den_min = min_exponents(den)

    def to_vectors(poly: LaurentPoly, mins: dict[str, int]) -> dict[tuple[int, ...], int]:
        out: dict[tuple[int, ...], int] = {}
        for mono, coeff in poly.terms():
            out[tuple(mono.exponent(v) - mins[v] for v in universe)] = coeff
        return out

    def grlex(vec: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return (sum(vec), vec)

    den_vecs = to_vectors(den, den_min)
    den_lead = max(den_vecs, key=grlex)
    den_lead_coeff = den_vecs[den_lead]

    remainder = to_vectors(num, num_min)
    quotient: dict[tuple[int, ...], int] = {}
    while remainder:
        lead = max(remainder, key=grlex)
        lead_coeff = remainder[lead]
        q_vec = tuple(a - b for a, b in zip(lead, den_lead))
        if any(e < 0 for e in q_vec) or lead_coeff % den_lead_coeff:
            exps = {v: e + num_min[v] for v, e in zip(universe, lead)}
            raise NotDivisibleError(f"nonzero remainder: leading term has exponents {exps}")
        q_coeff = lead_coeff // den_lead_coeff
        quotient[q_vec] = quotient.get(q_vec, 0) + q_coeff
        for d_vec, d_coeff in den_vecs.items():
            t_vec = tuple(a + b for a, b in zip(q_vec, d_vec))
            c = remainder.get(t_vec, 0) - q_coeff * d_coeff
            if c:
                remainder[t_vec] = c
            else:
                remainder.pop(t_vec, None)

    shift = [num_min[v] - den_min[v] for v in universe]
    return LaurentPoly(
        (Monomial({v: e + s for v, e, s in zip(universe, vec, shift)}), coeff)
        for vec, coeff in quotient.items()
    )
