"""Schur polynomials two ways, box sums, Weyl denominators, and product formulas.

The central object is the box sum: the sum of Schur polynomials
s_lambda(x_1..x_n) over all partitions lambda fitting in an m x n box.  The
theorem this package verifies states that the box sum equals the ratio of
determinants

    det(x_i^{j-1} - x_i^{m+2n-j}) / det(x_i^{j-1} - x_i^{2n-j}),

whose denominator is the type-B_n Weyl denominator.  Both determinants are
type-B_n alternants, each with one dominant weight read off its exponent
columns, and the ratio is solved from those two weights without expanding
either determinant; weyl, dn and eq4 check the expansions.  The product
form of that denominator, D_n, is its binomial factors grouped by variable,
multiplied out by one :func:`~schurbox.poly.times_binomials` call.  The box
sum counts semistandard tableaux by content, as chains of interlacing
shapes; the tableau Schur polynomial enumerates them shape by shape, and the
bialternant form det(x_i^{lambda_j+n-j}) / prod_{i<j}(x_i - x_j), solved
like the theorem's ratio but as type-A alternants, is the second,
independent backend that the schur-agree check compares with it.
Principal specializations x_i := q^e turn the box sum into the MacMahon and
Gordon q-products.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, namedtuple
from collections.abc import Sequence

from .combinat import Partition, ssyt
from .poly import (
    LaurentPoly,
    Monomial,
    binomial_det,
    divide_alternants,
    divide_binomials,
    from_powers,
    times_binomials,
    unit_keys,
)

__all__ = [
    "BoxParams",
    "DnReport",
    "alternant_table",
    "bn_factors",
    "box_det_ratio",
    "box_exponents",
    "dn_checks",
    "gordon_product",
    "macmahon_product",
    "principal_specialization",
    "schur_box_sum",
    "schur_via_bialternant",
    "schur_via_tableaux",
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


def box_exponents(m: int, n: int) -> tuple[list[int], list[int]]:
    """Column exponents (j - 1, m + 2n - j), j = 1..n, of the theorem's numerator;
    m = 0 gives the Weyl determinant."""
    cols = range(1, n + 1)
    return [j - 1 for j in cols], [m + 2 * n - j for j in cols]


def schur_via_tableaux(shape: Partition, n: int) -> LaurentPoly:
    """Sum over semistandard tableaux of shape ``shape`` of prod x_entry.

    A tableau's content monomial is the sum of the packed keys of x_v over
    the entries v that :func:`~schurbox.combinat.ssyt` yields for it.  A
    value appears at most once per column, so no exponent exceeds lambda_1.
    """
    units = (0, *unit_keys("x", n))  # units[v] is the key of x_v
    counts: dict[int, int] = {}
    get = counts.get
    for tab in ssyt(shape, n):
        key = sum([units[v] for v in tab])
        counts[key] = get(key, 0) + 1
    return LaurentPoly.from_keys(counts.items(), shape.parts[0] if shape.parts else 0)


def alternant_table(shape: Partition, n: int) -> list[list[int]]:
    """Packed keys of a_{lambda+delta} for :func:`~schurbox.poly.expand_det`: row i,
    column j holds x_i^{lambda_j + n - j}, each exponent range-checked."""
    exps = [p + n - 1 - j for j, p in enumerate(shape.padded(n))]
    return [[Monomial.variable(v, e).key for e in exps] for v in xvars(n)]


def schur_via_bialternant(shape: Partition, n: int) -> LaurentPoly:
    """det(x_i^{lambda_j + n - j}) / prod_{i<j}(x_i - x_j), solved as S_n alternants by
    :func:`~schurbox.poly.divide_alternants` from lambda + delta and delta = (n-1, ..., 0)."""
    if len(shape.parts) > n:
        return LaurentPoly.zero()
    delta = tuple(range(n - 1, -1, -1))
    return divide_alternants({tuple(map(operator.add, shape.padded(n), delta)): 1}, delta, "A")


def schur_box_sum(box: BoxParams) -> LaurentPoly:
    """Sum of s_lambda(x_1..x_n) over all lambda in the m x n box, by tableaux.

    A semistandard tableau with entries at most n is a chain of shapes
    () = lambda^0, lambda^1, ..., lambda^n = lambda in which the cells
    holding k form lambda^k / lambda^(k-1), a horizontal strip: lambda^k
    interlaces lambda^(k-1) (a Gelfand-Tsetlin pattern).  Level k maps each
    lambda^k, padded to k parts, to the content monomials in x_1..x_k of the
    chains that reach it, counted, so the chains through one shape are
    extended together; level n, never extended, counts all chains into one
    dict, the box sum.  No x_k exponent exceeds m, so m is the sum's bound,
    and an m past ``MAX_EXPONENT`` raises at once.  :func:`schur_via_tableaux`
    enumerates the same tableaux one at a time.
    """
    m, n = box
    if n:
        Monomial.variable("x1", m)  # range-checks m
    level: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for k, unit in enumerate(unit_keys("x", n), 1):
        above: dict[tuple[int, ...], dict[int, int]] = {}
        for mu, counts in level.items():
            # lambda_1 in [mu_1, m], lambda_i in [mu_i, mu_(i-1)], lambda_k in [0, mu_(k-1)]
            ranges = [range(lo, hi + 1) for lo, hi in zip(mu + (0,), (m,) + mu)]
            size = sum(mu)
            for lam in itertools.product(*ranges):
                shift = (sum(lam) - size) * unit
                target = above.setdefault(lam if k < n else (), {})
                get = target.get
                for key, c in counts.items():
                    key += shift
                    target[key] = get(key, 0) + c
        level = above
    return LaurentPoly.from_keys(level[()].items(), m if n else 0)


def bn_factors(n: int) -> list[LaurentPoly]:
    """The binomial factors of D_n / prod_{i<j}(x_i - x_j), in the order eq4
    multiplies them: each (1 - x_i), then (x_i x_j - 1) for i < j.

    :func:`vandermonde_factors` followed by these is D_n's full list, the
    factors that :func:`weyl_denominator` multiplies grouped by variable
    instead; dividing by it with :func:`~schurbox.poly.divide_binomials` is
    the reference that :func:`box_det_ratio`'s alternant division is tested
    against.  eq4 keeps this order: grouped by variable, its product took
    1.3 to 1.8 times as long at (m, n) = (4, 5) and (2, 6).
    """
    xs = [LaurentPoly.variable(v) for v in xvars(n)]
    return [1 - xi for xi in xs] + [xi * xj - 1 for i, xi in enumerate(xs) for xj in xs[i + 1:]]


def box_det_ratio(box: BoxParams) -> LaurentPoly:
    """det(x_i^{j-1} - x_i^{m+2n-j}) / det(x_i^{j-1} - x_i^{2n-j}), exactly.

    Column j pairs the exponents j - 1 and C - (j - 1), so each determinant is
    (-1)^n times one type-B_n alternant about its centre C: in the weights of
    :func:`~schurbox.poly.divide_alternants` for B_n, D_n (C = 2n - 1) is A_rho with
    rho = (2n-1, 2n-3, ..., 1) and the numerator (C = m + 2n - 1) is
    A_{m+rho}.  The ratio is solved from these weights; neither is expanded.
    """
    rho = tuple(range(2 * box.n - 1, 0, -2))
    return divide_alternants({tuple([box.m + r for r in rho]): 1}, rho, "B", shift=box.m)


def _weyl_factors(n: int) -> list[LaurentPoly]:
    """D_n's binomial factors grouped by variable, in the order :func:`weyl_denominator`
    multiplies them: for j = 1..n, (1 - x_j), then (x_i - x_j) and then
    (x_i x_j - 1) for i < j."""
    xs = [LaurentPoly.variable(v) for v in xvars(n)]
    return [
        factor
        for j, xj in enumerate(xs)
        for factor in [1 - xj, *[xi - xj for xi in xs[:j]], *[xi * xj - 1 for xi in xs[:j]]]
    ]


def weyl_denominator(n: int, form: str = "determinant") -> LaurentPoly:
    """Type-B_n Weyl denominator, as a determinant or as the product

    prod_{i<j} (x_i - x_j) * prod_i (1 - x_i) * prod_{i<j} (x_i x_j - 1), multiplied
    out one binomial at a time by one :func:`~schurbox.poly.times_binomials` call.
    The factors go in grouped by variable (:func:`_weyl_factors`), so the partial
    products are D_1, then D_2, ..., each in the variables so far: the first j
    groups multiply to D_j(x_1..x_j), which has 2^j j! terms.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if form == "determinant":
        return binomial_det(xvars(n), *box_exponents(0, n))
    if form != "product":
        raise ValueError(f"unknown form {form!r}")
    return times_binomials(LaurentPoly.one(), _weyl_factors(n))


class DnReport(namedtuple("DnReport", "n root_checks lead expected")):
    """Root and leading-coefficient checks for the Weyl determinant D_n.

    ``lead`` is [x1^{2n-1}] D_n and ``expected`` is -x2...xn * D_{n-1}(x2..xn).
    """

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return self.lead == self.expected and all(ok for _, ok in self.root_checks)


def dn_checks(n: int, d_n: LaurentPoly) -> DnReport:
    """Verify that D_n vanishes at x1 := 1, x_j, x_j^-1 and satisfies

    [x1^{2n-1}] D_n = -x2...xn * D_{n-1}(x2..xn).

    ``d_n`` is D_n already built, as ``weyl_denominator(n, "determinant")``
    gives it.  D_n is split once by its powers of x1
    (:meth:`~schurbox.poly.LaurentPoly.powers`); each root is one
    :func:`~schurbox.poly.from_powers` of that split, and the leading
    coefficient is its x1^{2n-1} part, so D_n's keys are read once.
    """
    if n < 2:
        raise ValueError("dn_checks needs n >= 2")
    parts = d_n.powers("x1")
    roots: list[tuple[str, bool]] = [("x1:=1", from_powers(parts, 1).is_zero())]
    for j in range(2, n + 1):
        roots.append((f"x1:=x{j}", from_powers(parts, f"x{j}").is_zero()))
        roots.append(
            (f"x1:=x{j}^-1", from_powers(parts, Monomial.variable(f"x{j}", -1)).is_zero())
        )
    lead = parts.get(2 * n - 1, LaurentPoly.zero())
    tail = LaurentPoly.term(Monomial({f"x{i}": 1 for i in range(2, n + 1)}))
    expected = -tail * binomial_det(xvars(n)[1:], *box_exponents(0, n - 1))
    return DnReport(n, tuple(roots), lead, expected)


def _q_ratio(num_exps: Sequence[int], den_exps: Sequence[int]) -> LaurentPoly:
    """prod(1 - q^e for e in num_exps) / prod(1 - q^e for e in den_exps), exactly, for
    nonzero e.  Factors on both sides cancel first, as a multiset; the numerator's
    remaining factors are multiplied out, then divided by the denominator's
    remaining factors, largest e first.  A ratio that is not a Laurent polynomial
    raises ``NotDivisibleError``, as it would without the cancellation."""
    num, den = Counter(num_exps), Counter(den_exps)
    num, den = num - den, den - num
    product = times_binomials(
        LaurentPoly.one(), [1 - LaurentPoly.variable("q", e) for e in num.elements()]
    )
    return divide_binomials(
        product, [1 - LaurentPoly.variable("q", e) for e in sorted(den.elements(), reverse=True)]
    )


def macmahon_product(box: BoxParams) -> LaurentPoly:
    """The symmetric plane partition generating function as a q-product:

    prod_i (1-q^{m+2i-1})/(1-q^{2i-1}) * prod_{i<j} (1-q^{2(m+i+j-1)})/(1-q^{2(i+j-1)}),

    as one exact ratio: the factors common to numerator and denominator cancel,
    and the rest of the numerator, multiplied out, is divided by the rest of the
    denominator's binomials (individual factors are not polynomial ratios).
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
