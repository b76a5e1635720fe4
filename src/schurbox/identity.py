"""Side builders for the determinant-expansion chain behind the box-sum theorem.

Each function here builds both sides of one displayed identity as canonical
Laurent polynomials, so a check is literal equality (the runner in
:mod:`schurbox.checks` compares them and records a ``CheckResult``):

* ``lemma_sides``: the alternating k-sum evaluation
  x1..xn * sum_k (-1)^{k-1} (1-x_k) x_k^-1 prod_{i!=k}(1-x_i x_k)
  prod_{i<j, i,j!=k}(x_j-x_i)  ==  (1 - x1..xn) prod_{i<j}(x_j-x_i).
* ``eq4_sides``: the theorem with denominators cleared,
  det(x_i^{j-1}-x_i^{m+2n-j}) == sum_lambda det(x_i^{lambda_j+n-j})
  * prod(1-x_i) * prod_{i<j}(x_i x_j - 1).
* ``eq5_sides``: the same with every determinant expanded over permutations
  and sign-split binomials expanded over subsets S.
* ``eq6_sides``: the m-free restatement after replacing x_i^{m+1} by
  t_i x_i^{2-2n}; the per-subset geometric-sum denominators (1 - prod x_i)
  are cleared by exact division.
* ``vanishing_det``: det(x_i^{j+1-2n} - x_i^{1-j}), which is identically 0.

Orientation bookkeeping: the lemma uses later-minus-earlier differences
prod_{i<j}(x_j - x_i), the Schur Vandermonde prod_{i<j}(x_i - x_j) up to
the sign (-1)^C(n,2).

eq5 and eq6 expand over ``(images, sign)`` pairs from
:func:`~schurbox.poly.signed_permutations` and over subsets S of {1..n} as
bitmasks (bit i - 1 set iff i is in S, sign -1 for an odd bit count).  An
order-n expansion starts in ``signed_permutations(n)`` (directly or through
``determinant``), whose guard alone refuses n above ``DEFAULT_MAX_ORDER``.

The eq4 and eq5 right sides take the Weyl factors (1 - x_i) and
(x_i x_j - 1) from one builder, :func:`~schurbox.schur.times_bn_factors`,
which multiplies the alternant sum by them one binomial at a time.
"""

from __future__ import annotations

from math import comb

from .poly import (
    LaurentPoly,
    Monomial,
    PolyMatrix,
    determinant,
    exact_div,
    signed_permutations,
    unit_keys,
)
from .combinat import partitions_in_box
from .schur import BoxParams, binomial_det, times_bn_factors, vandermonde, xvars

__all__ = [
    "eq4_sides",
    "eq5_sides",
    "eq6_sides",
    "f_function",
    "lemma_sides",
    "vanishing_det",
]


def _x(i: int, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.variable(f"x{i}", exp)


def _x_product(indices) -> LaurentPoly:
    return LaurentPoly.term(Monomial({f"x{i}": 1 for i in indices}))


def _later_minus_earlier(indices: list[int]) -> LaurentPoly:
    """prod over pairs i<j of (x_j - x_i): the Vandermonde of the same variables,
    negated when C(k, 2) is odd for k indices."""
    product = vandermonde([f"x{i}" for i in indices])
    return -product if comb(len(indices), 2) & 1 else product


def _lemma_lhs(n: int) -> LaurentPoly:
    total = LaurentPoly.zero()
    for k in range(1, n + 1):
        term = (1 - _x(k)) * _x(k, -1)
        for i in range(1, n + 1):
            if i != k:
                term = term * (1 - _x(i) * _x(k))
        term = term * _later_minus_earlier([i for i in range(1, n + 1) if i != k])
        total = total + (term if k % 2 else -term)
    return _x_product(range(1, n + 1)) * total


def lemma_sides(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of the alternating k-sum identity (see module docstring)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rhs = (1 - _x_product(range(1, n + 1))) * _later_minus_earlier(list(range(1, n + 1)))
    return _lemma_lhs(n), rhs


def f_function(n: int) -> LaurentPoly:
    """The lemma's left side divided by prod_{i<j}(x_j - x_i); equals 1 - x1..xn.

    The division is exact because the left side is antisymmetric; a
    NotDivisibleError here would falsify that and is fatal.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return exact_div(_lemma_lhs(n), _later_minus_earlier(list(range(1, n + 1))))


def eq4_sides(box: BoxParams) -> tuple[LaurentPoly, LaurentPoly]:
    """Determinant form of the theorem with the Weyl denominator cleared, one
    binomial at a time by :func:`~schurbox.schur.times_bn_factors`."""
    m, n = box.m, box.n
    if n < 1:
        raise ValueError("n must be at least 1")
    cols = range(1, n + 1)
    lhs = binomial_det(xvars(n), [j - 1 for j in cols], [m + 2 * n - j for j in cols])
    alternant_sum = LaurentPoly.zero()
    for lam in partitions_in_box(m, n):
        padded = lam.padded(n)
        rows = [
            [_x(i, padded[j - 1] + n - j) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        alternant_sum = alternant_sum + determinant(PolyMatrix(tuple(tuple(r) for r in rows)))
    return lhs, times_bn_factors(alternant_sum, n)


def eq5_sides(box: BoxParams) -> tuple[LaurentPoly, LaurentPoly]:
    """Fully expanded form: sums over permutations and subsets on the left,
    over partitions and permutations on the right, where the Weyl factors are
    applied one binomial at a time by :func:`~schurbox.schur.times_bn_factors`.

    Permutations come from :func:`~schurbox.poly.signed_permutations` with
    0-based images; a subset S of {1..n} is a bitmask with bit i - 1 set iff
    i is in S, and (-1)^|S| is -1 when the mask has an odd bit count.
    """
    m, n = box.m, box.n
    if n < 1:
        raise ValueError("n must be at least 1")
    xs = unit_keys("x", n)
    perms = signed_permutations(n)
    lhs = LaurentPoly.from_keys(
        (
            sum(
                (m + 2 * n - 1 - s if mask >> i & 1 else s) * x
                for i, (s, x) in enumerate(zip(images, xs))
            ),
            -sign if mask.bit_count() & 1 else sign,
        )
        for images, sign in perms
        for mask in range(1 << n)
    )
    inner = LaurentPoly.from_keys(
        (sum((padded[s] + n - 1 - s) * x for s, x in zip(images, xs)), sign)
        for padded in (lam.padded(n) for lam in partitions_in_box(m, n))
        for images, sign in perms
    )
    return lhs, times_bn_factors(inner, n)


def eq6_sides(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The m-free restatement over x1..xn, t1..tn.

    Left side: sum over permutations sigma and subsets S of
    (-1)^{inv+|S|} prod_{i in S} t_i x_i^{1-sigma(i)} prod_{i not in S} x_i^{sigma(i)-1}.

    Right side: sum over k and, for each proper subset S not containing k,
    (-1)^{n+k}(1-x_k) prod_{i!=k}(x_i x_k - 1) times the inner sum over
    bijections {1..n}\\{k} -> {1..n-1}, times the geometric-sum fraction
    (1 - prod_{i not in S} t_i x_i^{2-2n}) / (1 - prod_{i not in S} x_i),
    where "not in S" ranges over the full complement (k included).  The
    fraction abbreviates the finite sum over the smallest part, so the
    k-terms sharing one S are grouped and their sum divided exactly by the
    denominator; a NotDivisibleError is a fatal failure.

    Subsets are bitmasks as in :func:`eq5_sides`; the masks below
    2**n - 1 are exactly the proper subsets.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ts = unit_keys("t", n)
    xs = unit_keys("x", n)
    lhs = LaurentPoly.from_keys(
        (
            sum(
                t - s * x if mask >> i & 1 else s * x
                for i, (s, t, x) in enumerate(zip(images, ts, xs))
            ),
            -sign if mask.bit_count() & 1 else sign,
        )
        for images, sign in signed_permutations(n)
        for mask in range(1 << n)
    )

    sub_perms = signed_permutations(n - 1)
    rhs = LaurentPoly.zero()
    for mask in range((1 << n) - 1):
        comp = [i for i in range(1, n + 1) if not mask >> (i - 1) & 1]
        t_numerator = 1 - LaurentPoly.from_keys(
            [(sum(ts[i - 1] + (2 - 2 * n) * xs[i - 1] for i in comp), 1)]
        )
        denom = 1 - _x_product(comp)
        ksum = LaurentPoly.zero()
        for k in comp:
            prefactor = (1 - _x(k)) if (n + k) % 2 == 0 else -(1 - _x(k))
            for i in range(1, n + 1):
                if i != k:
                    prefactor = prefactor * (_x(i) * _x(k) - 1)
            # 0-based positions i != k - 1, mapped onto the images 1..n-1
            domain = [i for i in range(n) if i != k - 1]
            inner = LaurentPoly.from_keys(
                (
                    sum(
                        ts[i] - (s + 1) * xs[i] if mask >> i & 1 else (s + 1) * xs[i]
                        for i, s in zip(domain, images)
                    ),
                    sign,
                )
                for images, sign in sub_perms
            )
            ksum = ksum + prefactor * inner
        rhs = rhs + (-1 if mask.bit_count() & 1 else 1) * exact_div(ksum, denom) * t_numerator
    return lhs, rhs


def vanishing_det(n: int) -> LaurentPoly:
    """det(x_i^{j+1-2n} - x_i^{1-j}); summing the subset expansion over all
    subsets makes this the obstruction term, and it is identically zero
    (column j = n has equal exponents)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cols = range(1, n + 1)
    return binomial_det(xvars(n), [j + 1 - 2 * n for j in cols], [1 - j for j in cols])
