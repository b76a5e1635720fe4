"""The all-subsets right side of eq6 that the orbit construction replaced, and
the lemma's quotient F.

Kept only as references for differential tests.  :func:`subset_terms` is the
earlier loop of ``identity.eq6_sides`` over every proper subset S (a bitmask,
bit i - 1 set iff i is in S), yielding each subset's signed term instead of
adding it into the side, and :func:`all_subsets_rhs` adds them up as that
loop did, one ``rhs ± term`` copy per subset.  :func:`f_function` divides the
lemma's left side by its later-minus-earlier product, which the lemma check
proves as one multiplication instead.
"""

from __future__ import annotations

from collections.abc import Iterator

from schurbox.identity import _k_factor, _lemma_lhs, _row, _x_product
from schurbox.poly import LaurentPoly, divide_binomials, expand_det, times_binomials
from schurbox.schur import vandermonde_factors, xvars


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


def f_function(n: int) -> LaurentPoly:
    """The lemma's left side divided by prod_{i<j}(x_j - x_i); equals 1 - x1..xn.

    The division is exact because the left side is antisymmetric; a
    NotDivisibleError here would falsify that and is fatal.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return divide_binomials(_lemma_lhs(n), vandermonde_factors(xvars(n)[::-1]))
