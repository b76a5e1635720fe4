"""Acceptance gate: one test per criterion, at the stated tolerance and budget.

Every assertion is exact polynomial equality; time limits are generous
relative to observed runtimes but are asserted so regressions surface here.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
from collections import Counter

from reference_identity import f_function
from schurbox.combinat import (
    column_strict_odd_pps,
    fold,
    generating_function,
    partitions_in_box,
    symmetric_plane_partitions,
    unfold,
)
from schurbox.identity import (
    eq4_sides,
    eq5_sides,
    eq6_rhs,
    eq6_sides,
    lemma_sides,
    vanishing_det,
)
from schurbox.poly import LaurentPoly, Monomial, determinant, exact_div
from schurbox.schur import (
    BoxParams,
    box_det_ratio,
    dn_checks,
    gordon_product,
    macmahon_product,
    principal_specialization,
    schur_box_sum,
    schur_via_bialternant,
    schur_via_tableaux,
    weyl_denominator,
)

P = LaurentPoly


def report(criterion, description, ok):
    print(f"ACCEPTANCE {criterion}: {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_1_theorem_grid():
    start = time.perf_counter()
    ok = all(
        schur_box_sum(BoxParams(m, n)) == box_det_ratio(BoxParams(m, n))
        for m in range(1, 5)
        for n in range(1, 5)
    )
    elapsed = time.perf_counter() - start
    report(1, f"box sum = det ratio for m,n <= 4 in {elapsed:.1f}s", ok and elapsed <= 60)


def test_criterion_2_macmahon_chain():
    start = time.perf_counter()
    ok = True
    for m in range(1, 4):
        for n in range(1, 4):
            brute = generating_function(symmetric_plane_partitions(n, m))
            specialized = principal_specialization(
                schur_box_sum(BoxParams(m, n)),
                [2 * (n - i) + 1 for i in range(1, n + 1)],
            )
            ok = ok and brute == specialized == macmahon_product(BoxParams(m, n))
    count33 = len(list(symmetric_plane_partitions(3, 3)))
    at_one = macmahon_product(BoxParams(3, 3)).substitute({"q": 1})
    ok = ok and count33 == at_one == 112
    elapsed = time.perf_counter() - start
    report(2, f"enumeration = specialization = product, (3,3) count 112, {elapsed:.1f}s",
           ok and elapsed <= 30)


def test_criterion_3_weyl_and_dn():
    forms = all(
        weyl_denominator(n, "determinant") == weyl_denominator(n, "product")
        for n in range(1, 6)
    )
    dn = all(dn_checks(n, weyl_denominator(n, "determinant")).all_pass for n in range(2, 5))
    report(3, "Weyl determinant = product for n <= 5; D_n roots and recursion n <= 4",
           forms and dn)


def test_criterion_4_lemma():
    start = time.perf_counter()
    sides = all(lemma_sides(n)[0] == lemma_sides(n)[1] for n in range(1, 7))
    elapsed = time.perf_counter() - start
    closed = all(
        f_function(n) == 1 - P.term(Monomial({f"x{i}": 1 for i in range(1, n + 1)}))
        for n in range(1, 6)
    )
    anti = True
    for n in range(2, 5):
        lhs, _ = lemma_sides(n)
        for i in range(1, n):
            swap = {f"x{i}": f"x{i + 1}", f"x{i + 1}": f"x{i}"}
            anti = anti and lhs.substitute(swap) == -lhs
    report(4, f"lemma n <= 6 in {elapsed:.1f}s; F closed form n <= 5; antisymmetry n <= 4",
           sides and elapsed <= 10 and closed and anti)


def test_criterion_5_expansion_chain():
    ok = True
    for m in range(1, 4):
        for n in range(1, 4):
            l4, r4 = eq4_sides(BoxParams(m, n))
            l5, r5 = eq5_sides(BoxParams(m, n), eq6_rhs(n))
            ok = ok and l4 == r4 and l5 == r5
            l6, r6 = eq6_sides(n, eq6_rhs(n))
            ok = ok and l6 == r6
            sub = {f"t{i}": Monomial.variable(f"x{i}", m + 2 * n - 1) for i in range(1, n + 1)}
            ok = ok and l6.substitute(sub) == l5 and r6.substitute(sub) == r5
    vanish = all(vanishing_det(n) == P.zero() for n in range(1, 6))
    report(5, "eq4/eq5/eq6 sides equal (m,n <= 3), t-substitution recovers eq5, "
              "vanishing determinant n <= 5", ok and vanish)


def test_criterion_6_gordon():
    ok = all(
        principal_specialization(schur_box_sum(BoxParams(m, n)), list(range(n, 0, -1)))
        == gordon_product(BoxParams(m, n))
        for m in range(1, 5)
        for n in range(1, 5)
    )
    report(6, "Gordon specialization = product for m,n <= 4", ok)


def test_criterion_7_bijection():
    ok = True
    for n in range(1, 4):
        for m in range(1, 4):
            sym = list(symmetric_plane_partitions(n, m))
            strict = list(column_strict_odd_pps(n, m))
            folded = [fold(sp) for sp in sym]
            ok = ok and Counter(folded) == Counter(strict)
            ok = ok and sorted(c.weight for c in folded) == sorted(s.weight for s in sym)
            ok = ok and all(unfold(c) == s for s, c in zip(sym, folded))
            ok = ok and all(fold(unfold(c)) == c for c in strict)
    report(7, "fold/unfold mutually inverse and weight-preserving for n,m <= 3", ok)


def test_criterion_8_backend_agreement():
    ok = all(
        schur_via_tableaux(lam, 4) == schur_via_bialternant(lam, 4)
        for lam in partitions_in_box(4, 4)
    )
    report(8, "tableau and alternant Schur backends agree for every shape in the 4x4 box", ok)


def _random_poly(rng, allow_zero=True):
    names = ["q", "x1", "x2", "t1"]
    while True:
        terms = {}
        for _ in range(rng.randint(0, 5)):
            picked = rng.sample(names, rng.randint(0, 3))
            mono = Monomial({v: rng.randint(-2, 2) for v in picked})
            terms[mono] = rng.randint(-6, 6)
        poly = P(terms)
        if allow_zero or not poly.is_zero():
            return poly


def test_criterion_9_infrastructure_properties():
    rng = random.Random(20260810)
    ok = True
    for _ in range(200):
        a = _random_poly(rng)
        b = _random_poly(rng, allow_zero=False)
        ok = ok and exact_div(a * b, b) == a

    for _ in range(200):
        rows = [[_random_poly(rng) for _ in range(3)] for _ in range(3)]
        i, j = rng.sample(range(3), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        det = determinant(rows)
        ok = ok and determinant(swapped) == -det

    for _ in range(200):
        a = _random_poly(rng)
        b = _random_poly(rng)
        sub = {
            v: Monomial.variable(rng.choice(["q", "x1", "x2", "t1"]), rng.randint(-2, 2))
            for v in rng.sample(["q", "x1", "x2", "t1"], rng.randint(0, 3))
        }
        ok = ok and (a * b).substitute(sub) == a.substitute(sub) * b.substitute(sub)

    report(9, "200 randomized instances each: division round-trip, determinant "
              "alternation, substitution homomorphism", ok)
