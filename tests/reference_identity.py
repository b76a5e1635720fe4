"""The all-subsets right side of eq6 that the orbit construction replaced.

Kept only as a reference for differential tests.  :func:`subset_terms` is the
earlier loop of ``identity.eq6_sides`` over every proper subset S (a bitmask,
bit i - 1 set iff i is in S), yielding each subset's signed term instead of
adding it into the side, and :func:`all_subsets_rhs` adds them up as that
loop did, one ``rhs ± term`` copy per subset.
"""

from __future__ import annotations

from collections.abc import Iterator

from schurbox.identity import _k_factor, _row, _x_product
from schurbox.poly import LaurentPoly, divide_binomials, expand_det, times_binomials


def subset_terms(n: int) -> Iterator[tuple[int, LaurentPoly]]:
    """``(mask, (-1)^|S| term_S)`` for every proper subset S of {1..n}, masks ascending."""
    cols = range(1, n + 1)
    k_factors = [times_binomials(LaurentPoly.constant((-1) ** (n + k)), _k_factor(n, k))
                 for k in cols]
    for mask in range((1 << n) - 1):
        comp = [i for i in cols if not mask >> (i - 1) & 1]
        rows = [
            _row(i, range(-1, -n, -1), 1) if mask >> (i - 1) & 1 else _row(i, range(1, n))
            for i in cols
        ]
        ksum = LaurentPoly.zero()
        for k in comp:
            inner = LaurentPoly.from_keys(expand_det(rows[:k - 1] + rows[k:]))
            ksum = ksum + k_factors[k - 1] * inner
        t_numerator = 1 - _x_product(comp, 2 - 2 * n, 1)
        term = times_binomials(divide_binomials(ksum, [1 - _x_product(comp)]), [t_numerator])
        yield mask, -term if mask.bit_count() & 1 else term


def all_subsets_rhs(n: int) -> LaurentPoly:
    """eq6's right side with a term built for each of the 2**n - 1 proper subsets."""
    rhs = LaurentPoly.zero()
    for _, term in subset_terms(n):
        rhs = rhs + term
    return rhs
