"""Schur polynomials two ways, box sums, Weyl denominators, and product formulas.

The central object is the box sum: the sum of Schur polynomials
s_lambda(x_1..x_n) over all partitions lambda fitting in an m x n box.  The
theorem this package verifies states that the box sum equals the ratio of
determinants

    det(x_i^{j-1} - x_i^{m+2n-j}) / det(x_i^{j-1} - x_i^{2n-j}),

whose denominator is the type-B_n Weyl denominator.  Both determinants are
type-B_n alternants, and the ratio is solved on their dominant terms.  The
box sum counts semistandard tableaux by content, as chains of interlacing
shapes; the tableau Schur polynomial enumerates them shape by shape, and
the bialternant form det(x_i^{lambda_j+n-j}) / prod_{i<j}(x_i - x_j) is the
second, independent backend that the schur-agree check compares with it.
Principal specializations x_i := q^e turn the box sum into the MacMahon and
Gordon q-products.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from collections.abc import Sequence

from .combinat import Partition, ssyt
from .poly import (
    LaurentPoly,
    Monomial,
    PolyMatrix,
    determinant,
    divide_binomials,
    divide_bn_alternants,
    expand_det,
    times_binomials,
    unit_keys,
)

__all__ = [
    "BoxParams",
    "DnReport",
    "alternant_table",
    "binomial_det",
    "bn_factors",
    "box_det_ratio",
    "dn_checks",
    "gordon_product",
    "macmahon_product",
    "principal_specialization",
    "schur_box_sum",
    "schur_via_bialternant",
    "schur_via_tableaux",
    "times_bn_factors",
    "vandermonde",
    "vandermonde_factors",
    "weyl_denominator",
    "xvars",
]


class BoxParams(namedtuple("BoxParams", "m n")):
    """Box dimensions: parts at most m, at most n parts / variables."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        m, n = operator.index(m), operator.index(n)
        if m < 0 or n < 0:
            raise ValueError("box dimensions must be non-negative")
        return super().__new__(cls, m, n)


def xvars(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def vandermonde_factors(names: Sequence[str]) -> list[LaurentPoly]:
    """The factors (x_i - x_j), i < j, of the Vandermonde, pair by pair."""
    xs = [LaurentPoly.variable(v) for v in names]
    return [xi - xj for i, xi in enumerate(xs) for xj in xs[i + 1:]]


def vandermonde(names: Sequence[str]) -> LaurentPoly:
    """prod_{i<j} (x_i - x_j), the alternant denominator (earlier minus later),
    multiplied out by :func:`~schurbox.poly.times_binomials`."""
    return times_binomials(LaurentPoly.one(), vandermonde_factors(names))


def binomial_det(names: Sequence[str], a: Sequence[int], b: Sequence[int]) -> LaurentPoly:
    """det(v_i^{a_j} - v_i^{b_j}) over the variables v_i of ``names``.

    Row i belongs to ``names[i]`` and column j to ``(a[j], b[j])``; a column
    with ``a[j] == b[j]`` is zero.  Every exponent must lie within
    ``±MAX_EXPONENT`` (:class:`~schurbox.poly.ExponentRangeError` otherwise).
    """
    rows = [
        [LaurentPoly.variable(v, aj) - LaurentPoly.variable(v, bj) for aj, bj in zip(a, b)]
        for v in names
    ]
    return determinant(PolyMatrix.from_rows(rows))


def _box_exponents(m: int, n: int) -> tuple[list[int], list[int]]:
    """Column exponents (j - 1, m + 2n - j), j = 1..n, of the theorem's numerator;
    m = 0 gives the Weyl determinant."""
    cols = range(1, n + 1)
    return [j - 1 for j in cols], [m + 2 * n - j for j in cols]


def schur_via_tableaux(shape: Partition, n: int) -> LaurentPoly:
    """Sum over semistandard tableaux of shape ``shape`` of prod x_entry.

    A tableau's content monomial is the sum of the packed keys of x_v over
    the entries v that :func:`~schurbox.combinat.ssyt` yields for it.
    """
    units = (0, *unit_keys("x", n))  # units[v] is the key of x_v
    counts: dict[int, int] = {}
    get = counts.get
    for tab in ssyt(shape, n):
        key = sum([units[v] for v in tab])
        counts[key] = get(key, 0) + 1
    return LaurentPoly.from_keys(counts.items())


def alternant_table(shape: Partition, n: int) -> list[list[int]]:
    """Packed keys of a_{lambda+delta} for :func:`~schurbox.poly.expand_det`: row i,
    column j holds x_i^{lambda_j + n - j}, each exponent range-checked."""
    exps = [p + n - 1 - j for j, p in enumerate(shape.padded(n))]
    return [[Monomial.variable(v, e).key for e in exps] for v in xvars(n)]


def schur_via_bialternant(shape: Partition, n: int) -> LaurentPoly:
    """det(x_i^{lambda_j + n - j}) divided exactly by prod_{i<j}(x_i - x_j)."""
    if len(shape.parts) > n:
        return LaurentPoly.zero()
    alternant = LaurentPoly.from_keys(expand_det(alternant_table(shape, n)))
    return divide_binomials(alternant, vandermonde_factors(xvars(n)))


def schur_box_sum(box: BoxParams) -> LaurentPoly:
    """Sum of s_lambda(x_1..x_n) over all lambda in the m x n box, by tableaux.

    A semistandard tableau with entries at most n is a chain of shapes
    () = lambda^0, lambda^1, ..., lambda^n = lambda in which the cells
    holding k form lambda^k / lambda^(k-1), a horizontal strip: lambda^k
    interlaces lambda^(k-1) (a Gelfand-Tsetlin pattern).  Level k maps each
    lambda^k, padded to k parts, to the content monomials in x_1..x_k of the
    chains that reach it, counted, so the chains through one shape are
    extended together; the box sum is the sum over level n.
    :func:`schur_via_tableaux` enumerates the same tableaux one at a time.
    """
    m = box.m
    level: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for unit in unit_keys("x", box.n):
        above: dict[tuple[int, ...], dict[int, int]] = {}
        for mu, counts in level.items():
            # lambda_1 in [mu_1, m], lambda_i in [mu_i, mu_(i-1)], lambda_k in [0, mu_(k-1)]
            ranges = [range(lo, hi + 1) for lo, hi in zip(mu + (0,), (m,) + mu)]
            size = sum(mu)
            for lam in itertools.product(*ranges):
                shift = (sum(lam) - size) * unit
                target = above.setdefault(lam, {})
                get = target.get
                for key, c in counts.items():
                    key += shift
                    target[key] = get(key, 0) + c
        level = above
    return LaurentPoly.from_keys(item for counts in level.values() for item in counts.items())


def bn_factors(n: int) -> list[LaurentPoly]:
    """The n^2 binomial factors of the type-B_n Weyl denominator D_n:
    (x_i x_j - 1) and (x_i - x_j) pair by pair for i < j, then each (1 - x_i).

    :func:`times_bn_factors` multiplies by all but the (x_i - x_j); dividing by
    them all with :func:`~schurbox.poly.divide_binomials` is the reference
    that :func:`box_det_ratio`'s alternant division is tested against.
    """
    xs = [LaurentPoly.variable(v) for v in xvars(n)]
    pairs = zip([xi * xj - 1 for i, xi in enumerate(xs) for xj in xs[i + 1:]],
                vandermonde_factors(xvars(n)))
    return [f for pair in pairs for f in pair] + [1 - xi for xi in xs]


def box_det_ratio(box: BoxParams) -> LaurentPoly:
    """det(x_i^{j-1} - x_i^{m+2n-j}) / det(x_i^{j-1} - x_i^{2n-j}), exactly.

    Both determinants are built by :func:`binomial_det`, and each is one
    type-B_n alternant (the divisor is D_n), so
    :func:`~schurbox.poly.divide_bn_alternants` checks each against its own
    key-level expansion and solves the ratio on their dominant terms.
    """
    m, n = box.m, box.n
    if n == 0:
        return LaurentPoly.one()
    num = binomial_det(xvars(n), *_box_exponents(m, n))
    return divide_bn_alternants(num, binomial_det(xvars(n), *_box_exponents(0, n)))


def times_bn_factors(poly: LaurentPoly, n: int) -> LaurentPoly:
    """poly * prod_i (1 - x_i) * prod_{i<j} (x_i x_j - 1), one binomial at a time.

    These are the factors of :func:`bn_factors` other than the (x_i - x_j).
    :func:`~schurbox.poly.times_binomials` multiplies them in, so each step
    costs one copy of the running product and len(running product) updates.
    """
    factors = bn_factors(n)
    return times_binomials(poly, factors[len(factors) - n:] + factors[:len(factors) - n:2])


def weyl_denominator(n: int, form: str = "determinant") -> LaurentPoly:
    """Type-B_n Weyl denominator, as a determinant or as the product

    prod_i (1 - x_i) * prod_{i<j} (x_i - x_j)(x_i x_j - 1), built one binomial at a time.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if form == "determinant":
        return binomial_det(xvars(n), *_box_exponents(0, n))
    if form != "product":
        raise ValueError(f"unknown form {form!r}")
    return times_bn_factors(vandermonde(xvars(n)), n)


class DnReport(namedtuple("DnReport", "n root_checks lead expected")):
    """Root and leading-coefficient checks for the Weyl determinant D_n.

    ``lead`` is [x1^{2n-1}] D_n and ``expected`` is -x2...xn * D_{n-1}(x2..xn).
    """

    __slots__ = ()

    @property
    def leading_coefficient_ok(self) -> bool:
        return self.lead == self.expected

    @property
    def all_pass(self) -> bool:
        return self.leading_coefficient_ok and all(ok for _, ok in self.root_checks)


def dn_checks(n: int) -> DnReport:
    """Verify that D_n vanishes at x1 := 1, x_j, x_j^-1 and satisfies

    [x1^{2n-1}] D_n = -x2...xn * D_{n-1}(x2..xn).
    """
    if n < 2:
        raise ValueError("dn_checks needs n >= 2")
    d_n = binomial_det(xvars(n), *_box_exponents(0, n))
    roots: list[tuple[str, bool]] = []
    roots.append(("x1:=1", d_n.substitute({"x1": 1}).is_zero()))
    for j in range(2, n + 1):
        roots.append((f"x1:=x{j}", d_n.substitute({"x1": f"x{j}"}).is_zero()))
        roots.append(
            (
                f"x1:=x{j}^-1",
                d_n.substitute({"x1": Monomial.variable(f"x{j}", -1)}).is_zero(),
            )
        )
    lead = d_n.coefficient_of("x1", 2 * n - 1)
    tail = LaurentPoly.term(Monomial({f"x{i}": 1 for i in range(2, n + 1)}))
    expected = -tail * binomial_det(xvars(n)[1:], *_box_exponents(0, n - 1))
    return DnReport(n, tuple(roots), lead, expected)


def _q_ratio(num_exps: Sequence[int], den_exps: Sequence[int]) -> LaurentPoly:
    """prod(1 - q^e for e in num_exps) / prod(1 - q^e for e in den_exps), exactly:
    the numerator multiplied out, then divided by the factor of largest e first."""
    num = times_binomials(LaurentPoly.one(), [1 - LaurentPoly.variable("q", e) for e in num_exps])
    den = [1 - LaurentPoly.variable("q", e) for e in sorted(den_exps, reverse=True)]
    return divide_binomials(num, den)


def macmahon_product(box: BoxParams) -> LaurentPoly:
    """The symmetric plane partition generating function as a q-product:

    prod_i (1-q^{m+2i-1})/(1-q^{2i-1}) * prod_{i<j} (1-q^{2(m+i+j-1)})/(1-q^{2(i+j-1)}),

    the numerator assembled whole and divided by the denominator's binomials
    (individual factors are not polynomial ratios).
    """
    m, n = box.m, box.n
    num_exps = [m + 2 * i - 1 for i in range(1, n + 1)]
    den_exps = [2 * i - 1 for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            num_exps.append(2 * (m + i + j - 1))
            den_exps.append(2 * (i + j - 1))
    return _q_ratio(num_exps, den_exps)


def gordon_product(box: BoxParams) -> LaurentPoly:
    """prod_{1<=i<=j<=n} (1-q^{m+i+j-1})/(1-q^{i+j-1}), as one exact ratio."""
    m, n = box.m, box.n
    num_exps = [m + i + j - 1 for i in range(1, n + 1) for j in range(i, n + 1)]
    den_exps = [i + j - 1 for i in range(1, n + 1) for j in range(i, n + 1)]
    return _q_ratio(num_exps, den_exps)


def principal_specialization(poly: LaurentPoly, exponents: Sequence[int]) -> LaurentPoly:
    """Substitute x_i := q^{exponents[i-1]} for i = 1..len(exponents)."""
    assignments = {
        f"x{i}": Monomial.variable("q", e) for i, e in enumerate(exponents, start=1)
    }
    return poly.substitute(assignments)
