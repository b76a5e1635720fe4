"""The expand-and-divide bialternant and the all-permutations orbit that
``poly.divide_alternants`` replaced.

Kept only as references for differential tests.  :func:`bialternant_by_division`
is the earlier ``schur.schur_via_bialternant``: it expands a_{lambda+delta} =
det(x_i^{lambda_j+n-j}) with ``expand_det`` and divides it by the Vandermonde's
binomial factors through ``divide_binomials``.  :func:`orbit_by_permutations`
is the earlier orbit of the alternant solve: it walks all n! permutations of
mu and keeps the distinct ones with ``dict.fromkeys``, then, for type B, every
sign choice on the nonzero entries.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from schurbox.combinat import Partition
from schurbox.poly import LaurentPoly, divide_binomials, expand_det
from schurbox.schur import alternant_table, vandermonde_factors, xvars


def bialternant_by_division(shape: Partition, n: int) -> LaurentPoly:
    """det(x_i^{lambda_j + n - j}) divided exactly by prod_{i<j}(x_i - x_j)."""
    if len(shape.parts) > n:
        return LaurentPoly.zero()
    alternant = LaurentPoly.from_keys(expand_det(alternant_table(shape, n)))
    return divide_binomials(alternant, vandermonde_factors(xvars(n)))


def orbit_by_permutations(mu: Sequence[int], signed: bool) -> list[tuple[int, ...]]:
    """The distinct (signed, if ``signed``) permutations of ``mu``, ``mu`` itself first."""
    return [
        nu
        for perm in dict.fromkeys(itertools.permutations(mu))
        for nu in (itertools.product(*[(v, -v) if v else (0,) for v in perm]) if signed else [perm])
    ]
