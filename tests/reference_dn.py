"""The D_n root and leading-coefficient checks by one substitution per root, as
``schur.dn_checks`` made them before it split D_n once by its powers of x1.

Kept only as a reference for differential tests.  Each root is a full
``LaurentPoly.substitute`` pass over D_n's keys, and the leading coefficient
is read term by term, so D_n's keys are read 2n times.
"""

from __future__ import annotations

from schurbox.poly import LaurentPoly, Monomial, binomial_det, unit_keys
from schurbox.schur import DnReport, box_exponents, xvars


def x1_coefficient(poly: LaurentPoly, exp: int) -> LaurentPoly:
    """The coefficient of x1**exp, a polynomial in the other variables."""
    shift = exp * unit_keys("x", 1)[0]
    return LaurentPoly.from_keys(
        (mono.key - shift, coeff) for mono, coeff in poly.terms() if mono.exponent("x1") == exp
    )


def dn_checks_by_substitution(n: int, d_n: LaurentPoly) -> DnReport:
    if n < 2:
        raise ValueError("dn_checks needs n >= 2")
    roots: list[tuple[str, bool]] = [("x1:=1", d_n.substitute({"x1": 1}).is_zero())]
    for j in range(2, n + 1):
        roots.append((f"x1:=x{j}", d_n.substitute({"x1": f"x{j}"}).is_zero()))
        roots.append(
            (f"x1:=x{j}^-1", d_n.substitute({"x1": Monomial.variable(f"x{j}", -1)}).is_zero())
        )
    lead = x1_coefficient(d_n, 2 * n - 1)
    tail = LaurentPoly.term(Monomial({f"x{i}": 1 for i in range(2, n + 1)}))
    expected = -tail * binomial_det(xvars(n)[1:], *box_exponents(0, n - 1))
    return DnReport(n, tuple(roots), lead, expected)
