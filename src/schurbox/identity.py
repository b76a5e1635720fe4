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
* ``eq5_sides``: the paper's eq4 expanded over permutations and subsets S,
  which is how ``expand_det`` expands eq4's left side; its right side is
  eq6's with m put back by t_i := x_i^{m+2n-1}.
* ``eq6_sides``: the m-free restatement after replacing x_i^{m+1} by
  t_i x_i^{2-2n}; the per-subset geometric-sum denominators (1 - prod x_i)
  are cleared by exact division.  Its right side builds the subset term of
  {1..s} once per size s and reaches every other subset of that size by a
  signed renaming of the variables (a permutation of the rows of one
  determinant): :func:`~schurbox.poly.swap_images` decodes the term's keys
  once and gives each image's keys, which go straight into the side's one
  term map.  Its left side stays the full expansion.
* ``vanishing_det``: det(x_i^{j+1-2n} - x_i^{1-j}), which is identically 0.

The lemma's later-minus-earlier product prod_{i<j}(x_j - x_i) is the Schur
Vandermonde prod_{i<j}(x_i - x_j) of the variables in reverse order.  eq4's
right side, each lemma term (+-prod_{i!=k} x_i times the later-minus-earlier
factors of the other variables, then the k-factors of ``_k_factor(n, k)``), the
lemma's right side and eq6's k-prefactors are each one
:func:`~schurbox.poly.times_binomials` call on a list of binomial factors.

:func:`~schurbox.poly.expand_det` expands every determinant at key level:
the eq6 left side and inner sums, eq4's alternant sum, and, through
:func:`~schurbox.poly.binomial_det`, the left side that eq4 and eq5 share
and the vanishing determinant.  eq5 and eq6 share eq6's right side
(:func:`eq6_rhs`), so eq5 and eq4 meet only in their left side.
``eq5_sides(box, rhs6)`` and ``eq6_sides(n, rhs)`` take that side already
built, as the runner builds it once per n.  eq6's sides and eq4's alternant
sum carry exponent bounds known from their construction, so building them
decodes no key.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

from .poly import (
    DEFAULT_MAX_ORDER,
    LaurentPoly,
    Monomial,
    OrderTooLargeError,
    binomial_det,
    divide_binomials,
    expand_det,
    swap_images,
    times_binomials,
)
from .combinat import partitions_in_box
from .schur import (
    BoxParams,
    alternant_table,
    bn_factors,
    box_exponents,
    vandermonde_factors,
    xvars,
)

__all__ = [
    "eq4_sides",
    "eq5_sides",
    "eq6_rhs",
    "eq6_sides",
    "lemma_sides",
    "vanishing_det",
]


def _row(i: int, exps: Iterable[int], t: int = 0) -> list[int]:
    """Packed keys of t_i^t x_i^e for e in ``exps``, each exponent range-checked."""
    return [Monomial({f"t{i}": t, f"x{i}": e}).key for e in exps]


def _x_product(indices: Iterable[int], exp: int = 1, t: int = 0) -> LaurentPoly:
    """prod over i in ``indices`` of t_i^t x_i^exp."""
    return LaurentPoly.from_keys([(sum(_row(i, [exp], t)[0] for i in indices), 1)])


def _later_minus_earlier(indices: list[int]) -> list[LaurentPoly]:
    """The factors (x_j - x_i), i < j: the Vandermonde factors of the variables reversed."""
    return vandermonde_factors([f"x{i}" for i in reversed(indices)])


def _k_factor(n: int, k: int) -> list[LaurentPoly]:
    """The factors (1 - x_k) and (x_i x_k - 1), i != k, of eq6's k-prefactor
    (-1)^(n+k) (1 - x_k) prod_{i!=k}(x_i x_k - 1); times x1..xn / x_k, the
    prefactor is the lemma's k-th signed term before the later-minus-earlier product."""
    return [1 - _x_product([k])] + [_x_product([i, k]) - 1 for i in range(1, n + 1) if i != k]


def _lemma_lhs(n: int) -> LaurentPoly:
    total = LaurentPoly.zero()
    for k in range(1, n + 1):
        others = [i for i in range(1, n + 1) if i != k]
        monomial = (-1) ** (n + k) * _x_product(others)
        total = total + times_binomials(monomial, _later_minus_earlier(others) + _k_factor(n, k))
    return total


def lemma_sides(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of the alternating k-sum identity (see module docstring)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cols = list(range(1, n + 1))
    rhs = times_binomials(LaurentPoly.one(), [1 - _x_product(cols)] + _later_minus_earlier(cols))
    return _lemma_lhs(n), rhs


def eq4_sides(box: BoxParams) -> tuple[LaurentPoly, LaurentPoly]:
    """The theorem with the Weyl denominator cleared: det(x_i^{j-1} - x_i^{m+2n-j})
    by :func:`~schurbox.poly.binomial_det`, and the alternant sum times the B_n factors."""
    m, n = box
    if n < 1:
        raise ValueError("n must be at least 1")
    lhs = binomial_det(xvars(n), *box_exponents(m, n))
    terms = (t for lam in partitions_in_box(m, n) for t in expand_det(alternant_table(lam, n)))
    # an exponent of a_{lambda+delta} is lambda_j + n - j <= m + n - 1
    return lhs, times_binomials(LaurentPoly.from_keys(terms, m + n - 1), bn_factors(n))


def eq5_sides(box: BoxParams, rhs6: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """The paper's eq4 expanded over permutations and subsets: the left side is
    eq4's, and the right side is eq6's with m put back by t_i := x_i^{m+2n-1},
    the inverse of the step x_i^{m+1} -> t_i x_i^{2-2n} from eq5 to eq6.

    ``rhs6`` is ``eq6_rhs(n)`` already built.
    """
    m, n = box
    if n < 1:
        raise ValueError("n must be at least 1")
    lhs = binomial_det(xvars(n), *box_exponents(m, n))
    t_values = {f"t{i}": Monomial.variable(f"x{i}", m + 2 * n - 1) for i in range(1, n + 1)}
    return lhs, rhs6.substitute(t_values)


def _revolving_door(n: int, s: int) -> list[tuple[int, ...]]:
    """The s-subsets of {1..n} in revolving-door order: {1..s} first, and each
    the previous one with one element swapped for another.

    The order is R(n, s) = R(n-1, s), then R(n-1, s-1) reversed with n added
    to each (Nijenhuis and Wilf, Combinatorial Algorithms, 1978, ch. 1).  By
    induction each half steps by single swaps, and so does the seam: the last
    subset of R(m, s) is {1..s-1, m}, so the seam goes from {1..s-1, n-1} to
    {1..s-2, n-1, n}, s - 1 out and n in.
    """
    if s in (0, n):
        return [tuple(range(1, s + 1))]
    return _revolving_door(n - 1, s) + [c + (n,) for c in reversed(_revolving_door(n - 1, s - 1))]


def _transpositions(n: int, s: int) -> Iterator[tuple[int, int]]:
    """The index pairs (a, b) of the renamings x_a <-> x_b, t_a <-> t_b that carry
    each subset of :func:`_revolving_door` order to the next, a out and b in."""
    door = _revolving_door(n, s)
    for prev, cur in zip(door, door[1:]):
        (a,), (b,) = set(prev) - set(cur), set(cur) - set(prev)
        yield a, b


def eq6_rhs(n: int) -> LaurentPoly:
    """eq6's right side, which :func:`eq5_sides` also uses.

    The side is the sum over proper subsets S of (-1)^|S| term_S.  term_S is
    the k-sum over k not in S of (-1)^{n+k}(1-x_k) prod_{i!=k}(x_i x_k - 1)
    times the inner sum over bijections {1..n}\\{k} -> {1..n-1}, times the
    geometric-sum fraction
    (1 - prod_{i not in S} t_i x_i^{2-2n}) / (1 - prod_{i not in S} x_i),
    where "not in S" ranges over the full complement (k included).  The
    fraction abbreviates the finite sum over the smallest part, so the k-sum
    is divided exactly by the denominator; a NotDivisibleError is a fatal
    failure.  The inner sum is the monomial determinant of rows i != k of
    the table whose row i is t_i x_i^{-j} for i in S and x_i^j otherwise,
    j = 1..n-1.

    term_S is built only for S = {1..s}, s = 0..n-1.  Every other S of size
    s gives sgn(pi) pi(term_{1..s}) for any permutation pi of {1..n} with
    pi({1..s}) = S, acting as the renaming x_i -> x_pi(i), t_i -> t_pi(i).
    Proof: append to the table a last column holding the k-prefactor in row
    k for k not in S and 0 in the rows of S; this is N_S, and Laplace
    expansion along the last column makes the k-sum det N_S.  pi sends row i of N_{1..s} to row pi(i) of N_S: the
    entries t_i x_i^{-j} and x_i^j become those of pi(i), which lies in S
    exactly when i <= s, and the prefactor of k is symmetric in the x_i,
    i != k, so it becomes the prefactor of pi(k).  Hence
    pi(det N_{1..s}) = sgn(pi) det N_S.  pi maps {s+1..n} onto the
    complement of S, so it carries the denominator and the t-numerator of
    {1..s} to those of S.

    The subsets of size s are visited in :func:`_revolving_door` order, so
    each image is the previous one under a single transposition, which
    flips the sign.  :func:`~schurbox.poly.swap_images` decodes term_{1..s}
    once and gives each image's keys in the order of the term's
    coefficients; a renaming is injective on keys, so they go, with sign
    (-1)^r at the r-th subset (r = s at {1..s}), straight into the side's
    one term map, as do the products of each k-sum.  A renaming keeps a
    term's exponent bound, so the largest bound of the n terms bounds the
    side and no key is decoded for it.  N_S has order n, so an n above
    ``DEFAULT_MAX_ORDER`` raises :class:`~schurbox.poly.OrderTooLargeError`
    before any term is built.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > DEFAULT_MAX_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds the bound {DEFAULT_MAX_ORDER}")
    cols = range(1, n + 1)
    k_factors = [times_binomials(LaurentPoly.constant((-1) ** (n + k)), _k_factor(n, k))
                 for k in cols]
    terms = []
    for s in range(n):
        comp = cols[s:]
        rows = [_row(i, range(-1, -n, -1), 1) for i in cols[:s]]
        rows += [_row(i, range(1, n)) for i in comp]
        products = (
            # each entry is x_i^j or t_i x_i^-j with 1 <= j <= n - 1
            k_factors[k - 1] * LaurentPoly.from_keys(expand_det(rows[:k - 1] + rows[k:]), n - 1)
            for k in comp
        )
        ksum = LaurentPoly.from_keys(
            chain.from_iterable(p.key_terms() for p in products),
            max(k_factors[k - 1]._bound for k in comp) + n - 1,
        )
        t_numerator = 1 - _x_product(comp, 2 - 2 * n, 1)
        terms.append(
            times_binomials(divide_binomials(ksum, [1 - _x_product(comp)]), [t_numerator])
        )

    def signed_images() -> Iterator[tuple[int, int]]:
        for s, term in enumerate(terms):
            plus = [c for _, c in term.key_terms()]
            signed = (plus, [-c for c in plus])
            for r, keys in enumerate(swap_images(term, _transpositions(n, s)), s):
                yield from zip(keys, signed[r & 1])

    return LaurentPoly.from_keys(signed_images(), max(term._bound for term in terms))


def eq6_sides(n: int, rhs: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """The m-free restatement over x1..xn, t1..tn.

    Left side: sum over permutations sigma and subsets S of
    (-1)^{inv+|S|} prod_{i in S} t_i x_i^{1-sigma(i)} prod_{i not in S} x_i^{sigma(i)-1},
    that is det(x_i^{j-1} - t_i x_i^{1-j}), expanded in full.  Each of its
    terms takes one entry per row, and row i holds only x_i and t_i, so its
    exponents are those of the entries: at most max(n - 1, 1) in absolute
    value.  Right side: ``rhs``, which is ``eq6_rhs(n)`` already built.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cols = range(1, n + 1)
    a = [_row(i, range(n)) for i in cols]
    b = [_row(i, range(0, -n, -1), 1) for i in cols]
    lhs = LaurentPoly.from_keys(expand_det(a, b), max(n - 1, 1))
    return lhs, rhs


def vanishing_det(n: int) -> LaurentPoly:
    """det(x_i^{j+1-2n} - x_i^{1-j}); summing the subset expansion over all
    subsets makes this the obstruction term, and it is identically zero
    (column j = n has equal exponents)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cols = range(1, n + 1)
    return binomial_det(xvars(n), [j + 1 - 2 * n for j in cols], [1 - j for j in cols])
