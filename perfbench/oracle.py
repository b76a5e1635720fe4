"""Closed-form checks on the canonical text of check results, in plain integers.

These do not use schurbox: they read the canonical text form
(``1 + q + 2*q^3 - x1*x2^-1``) and compare term counts and coefficient sums
with product formulas evaluated by the benchmark itself.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, prod

_SPLIT = re.compile(r" ([+-]) ")


def coefficients(text: str) -> list[int]:
    """Signed coefficients of a polynomial in canonical text form."""
    if text == "0":
        return []
    parts = _SPLIT.split(text)
    first = parts[0]
    signed = [(-1 if first.startswith("-") else 1, first.lstrip("-"))]
    signed += [(-1 if op == "-" else 1, body) for op, body in zip(parts[1::2], parts[2::2])]
    out = []
    for sign, body in signed:
        head = body.split("*", 1)[0]
        out.append(sign * (int(head) if head.isdigit() else 1))
    return out


def gordon_count(m: int, n: int) -> int:
    """prod_{1<=i<=j<=n} (m+i+j-1)/(i+j-1): the box sum of Schur polynomials at x = 1."""
    value = prod(
        (Fraction(m + i + j - 1, i + j - 1) for i in range(1, n + 1) for j in range(i, n + 1)),
        start=Fraction(1),
    )
    return int(value)


def macmahon_count(m: int, n: int) -> int:
    """prod_i (m+2i-1)/(2i-1) * prod_{i<j} (m+i+j-1)/(i+j-1): symmetric plane partitions."""
    value = prod((Fraction(m + 2 * i - 1, 2 * i - 1) for i in range(1, n + 1)), start=Fraction(1))
    value *= prod(
        (Fraction(m + i + j - 1, i + j - 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)),
        start=Fraction(1),
    )
    return int(value)


def check(identity: str, m: int | None, n: int, lhs: str, rhs: str) -> str | None:
    """None if both sides agree with the closed form for this check, else why not."""
    if identity in ("theorem", "gordon", "schur-agree"):
        want, got = gordon_count(m, n), (sum(coefficients(lhs)), sum(coefficients(rhs)))
        what = "coefficient sum"
    elif identity in ("macmahon", "bijection"):
        want, got = macmahon_count(m, n), (sum(coefficients(lhs)), sum(coefficients(rhs)))
        what = "coefficient sum"
    elif identity in ("weyl", "eq5"):
        want, got = 2**n * factorial(n), (len(coefficients(lhs)), len(coefficients(rhs)))
        what = "term count"
    elif identity == "vanishing":
        want, got = 0, (len(coefficients(lhs)), len(coefficients(rhs)))
        what = "term count"
    else:
        return None
    if got != (want, want):
        return f"{what} {got[0]} / {got[1]}, closed form {want}"
    return None
