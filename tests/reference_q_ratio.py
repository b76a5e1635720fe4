"""The uncancelled q-ratio that ``schur._q_ratio`` replaced, and the MacMahon and
Gordon products through it.

Kept only as references for differential tests.  :func:`uncancelled_q_ratio`
multiplies out every numerator factor 1 - q^e and divides by every
denominator factor, largest e first, with no factor cancelled between the
two.  :func:`macmahon_by_whole_ratio` and :func:`gordon_by_whole_ratio`
restate the two products' exponent lists from their formulas.
"""

from __future__ import annotations

from collections.abc import Sequence

from schurbox.poly import LaurentPoly, divide_binomials, times_binomials


def _factors(exps: Sequence[int]) -> list[LaurentPoly]:
    return [1 - LaurentPoly.variable("q", e) for e in exps]


def uncancelled_q_ratio(num_exps: Sequence[int], den_exps: Sequence[int]) -> LaurentPoly:
    """prod(1 - q^e for e in num_exps) / prod(1 - q^e for e in den_exps), the
    numerator assembled whole and divided by every denominator binomial."""
    num = times_binomials(LaurentPoly.one(), _factors(num_exps))
    return divide_binomials(num, _factors(sorted(den_exps, reverse=True)))


def macmahon_by_whole_ratio(m: int, n: int) -> LaurentPoly:
    """prod_i (1-q^{m+2i-1})/(1-q^{2i-1}) * prod_{i<j} (1-q^{2(m+i+j-1)})/(1-q^{2(i+j-1)})."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    num = [m + 2 * i - 1 for i in range(1, n + 1)] + [2 * (m + i + j - 1) for i, j in pairs]
    den = [2 * i - 1 for i in range(1, n + 1)] + [2 * (i + j - 1) for i, j in pairs]
    return uncancelled_q_ratio(num, den)


def gordon_by_whole_ratio(m: int, n: int) -> LaurentPoly:
    """prod_{1<=i<=j<=n} (1-q^{m+i+j-1})/(1-q^{i+j-1})."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return uncancelled_q_ratio([m + i + j - 1 for i, j in pairs], [i + j - 1 for i, j in pairs])
