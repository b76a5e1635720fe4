"""Exponent bounds that builders pass to ``from_keys``, and the runner's store of
sides shared between checks (eq6's right side and D_n at one n, the box sum at
one (m, n))."""

import pytest

from reference_poly import largest_exponent
from schurbox import checks, identity, schur
from schurbox import poly as poly_module
from schurbox.checks import CHECK_IDS, RunConfig, run_verification
from schurbox.combinat import generating_function, partitions_in_box, symmetric_plane_partitions
from schurbox.identity import eq4_sides, eq5_sides, eq6_rhs, eq6_sides
from schurbox.poly import (
    MAX_EXPONENT,
    ExponentRangeError,
    LaurentPoly,
    OrderTooLargeError,
    unit_keys,
)
from schurbox.schur import (
    BoxParams,
    box_det_ratio,
    dn_checks,
    gordon_product,
    macmahon_product,
    principal_specialization,
    schur_box_sum,
    schur_via_tableaux,
    weyl_denominator,
)

P = LaurentPoly
GRID = [(m, n) for m in range(1, 5) for n in range(1, 5)]


# -- known bounds -------------------------------------------------------------------------------


def bounded(poly):
    return largest_exponent(poly) <= poly._bound


@pytest.fixture
def given_bounds(monkeypatch):
    """Every ``from_keys`` call that is given a bound; each is checked against the
    largest exponent of what it built."""
    calls = []
    from_keys = P.from_keys

    def checked(items, bound=None):
        poly = from_keys(items, bound)
        if bound is not None:
            calls.append(bound)
            assert largest_exponent(poly) <= bound
        return poly

    monkeypatch.setattr(P, "from_keys", staticmethod(checked))
    return calls


def test_from_keys_takes_a_known_bound_without_decoding(monkeypatch):
    decoded = []
    monkeypatch.setattr(poly_module, "_bound", lambda keys: decoded.append(keys) or 0)
    (x1,) = unit_keys("x", 1)
    poly = P.from_keys([(3 * x1, 2), (-x1, 1)], 5)
    assert poly == 2 * P.variable("x1", 3) + P.variable("x1", -1)
    assert poly._bound == 5 and decoded == []
    with pytest.raises(ExponentRangeError):
        P.from_keys([(x1, 1)], MAX_EXPONENT + 1)


def test_from_keys_without_a_bound_still_decodes():
    (x1,) = unit_keys("x", 1)
    assert P.from_keys([(7 * x1, 1), (-2 * x1, 1)])._bound == 7


@pytest.mark.parametrize("m,n", GRID)
def test_box_sum_tableaux_and_eq4_bounds_hold(m, n, given_bounds, monkeypatch):
    assert bounded(schur_box_sum(BoxParams(m, n)))
    for lam in partitions_in_box(m, n):
        assert bounded(schur_via_tableaux(lam, n))
    sums = []
    times_binomials = identity.times_binomials
    monkeypatch.setattr(
        identity, "times_binomials", lambda p, fs: sums.append(p) or times_binomials(p, fs)
    )
    lhs, rhs = eq4_sides(BoxParams(m, n))
    (alternant_sum,) = sums
    assert bounded(alternant_sum) and bounded(lhs) and bounded(rhs)
    assert (m, m + n - 1) == (max(given_bounds[:-1]), given_bounds[-1])


@pytest.mark.parametrize("m,n", GRID)
def test_eq5_bounds_hold(m, n, given_bounds):
    lhs, rhs = eq5_sides(BoxParams(m, n), eq6_rhs(n))
    assert bounded(lhs) and bounded(rhs)
    assert given_bounds


@pytest.mark.parametrize("n", range(1, 7))
def test_eq6_bounds_hold_and_no_side_decodes_its_keys(n, given_bounds, monkeypatch):
    sizes = []
    bound = poly_module._bound
    monkeypatch.setattr(
        poly_module, "_bound", lambda keys: sizes.append(len(keys)) or bound(keys)
    )
    lhs, rhs = eq6_sides(n, eq6_rhs(n))
    assert bounded(lhs) and bounded(rhs)
    assert lhs._bound == max(n - 1, 1)
    assert max(sizes, default=0) <= 1  # single keys only: a monomial, a binomial's step


def test_eq6_rhs_refuses_an_order_over_the_bound_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("eq6_rhs built a k-prefactor above the order bound")

    monkeypatch.setattr(identity, "_k_factor", refuse)
    with pytest.raises(OrderTooLargeError):
        eq6_rhs(9)


def test_prebuilt_sides_are_used_as_given():
    rhs6 = eq6_rhs(3)
    assert eq6_sides(3, rhs6)[1] is rhs6
    assert eq5_sides(BoxParams(2, 3), rhs6) == eq5_sides(BoxParams(2, 3), eq6_rhs(3))
    d_3 = weyl_denominator(3, "determinant")
    assert dn_checks(3, d_3) == dn_checks(3, weyl_denominator(3, "determinant"))


# -- the run's store --------------------------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Counts of eq6's right side and of D_n built, by n, wherever they are built:
    the runner's store calls the names in ``checks``, and a build anywhere else
    would call the names in ``identity``/``schur``; and of box sums built by the
    runner, by (m, n), through ``checks``."""
    counts = {}

    def counting(kind, fn):
        def wrapper(key, *args):
            if kind != "d_n" or args == ("determinant",):
                counts[kind, key] = counts.get((kind, key), 0) + 1
            return fn(key, *args)
        return wrapper

    rhs6 = counting("eq6_rhs", identity.eq6_rhs)
    d_n = counting("d_n", schur.weyl_denominator)
    for module, name, wrapper in [
        (checks, "eq6_rhs", rhs6), (identity, "eq6_rhs", rhs6),
        (checks, "weyl_denominator", d_n), (schur, "weyl_denominator", d_n),
        (checks, "schur_box_sum", counting("box_sum", schur.schur_box_sum)),
    ]:
        monkeypatch.setattr(module, name, wrapper)
    return counts


SHARING = RunConfig(("theorem", "weyl", "eq5", "eq6", "macmahon", "gordon", "dn"), (1, 3), (1, 4))


def test_each_shared_side_is_built_once_per_n(builds):
    results = run_verification(SHARING)
    assert all(r.passed for r in results)
    assert builds == {**{("eq6_rhs", n): 1 for n in range(1, 5)},
                      **{("d_n", n): 1 for n in range(1, 5)},
                      **{("box_sum", (m, n)): 1 for m in range(1, 4) for n in range(1, 5)}}


def test_every_run_builds_its_own(builds):
    run_verification(SHARING)
    run_verification(SHARING)
    assert set(builds.values()) == {2}


def test_sharing_keeps_the_table_order():
    checks_asked = ("dn", "gordon", "eq5", "macmahon", "weyl", "theorem")
    results = run_verification(RunConfig(checks_asked, (1, 2), (1, 3)))
    by_m = [(m, n) for n in (1, 2, 3) for m in (1, 2)]
    assert [(r.identity, r.m, r.n) for r in results] == [
        *[("theorem", m, n) for m, n in by_m],
        ("weyl", None, 1), ("weyl", None, 2), ("weyl", None, 3),
        ("eq5", 1, 1), ("eq5", 2, 1), ("eq5", 1, 2), ("eq5", 2, 2), ("eq5", 1, 3), ("eq5", 2, 3),
        *[("macmahon", m, n) for m, n in by_m],
        *[("gordon", m, n) for m, n in by_m],
        ("dn", None, 2), ("dn", None, 3),
    ]


@pytest.mark.parametrize("m_range", [(1, 1), (1, 3), (2, 4), (3, 3)])
def test_m_free_checks_run_once_per_n(m_range, monkeypatch):
    runs = []
    evaluate = checks._evaluate
    monkeypatch.setattr(
        checks, "_evaluate",
        lambda c, m, n, shared: runs.append((c, m, n)) or evaluate(c, m, n, shared),
    )
    results = run_verification(RunConfig(("all",), m_range, (1, 3)))
    m_free = [c for c in CHECK_IDS if not checks._TABLE[c].uses_m]
    m_free_runs = 0
    for c in m_free:
        expected = [(c, None, n) for n in range(checks.minimum_n(c), 4)]
        assert [run for run in runs if run[0] == c] == expected
        assert [(r.identity, r.m, r.n) for r in results if r.identity == c] == expected
        m_free_runs += len(expected)
    ms = range(m_range[0], m_range[1] + 1)
    assert len(runs) == len(results) == m_free_runs + 3 * (len(CHECK_IDS) - len(m_free)) * len(ms)


def test_a_raising_build_is_an_error_for_every_consumer_and_not_kept(monkeypatch):
    calls = []

    def boom(n):
        calls.append(n)
        raise RuntimeError(f"no eq6 side at n = {n}")

    monkeypatch.setattr(checks, "eq6_rhs", boom)
    results = run_verification(RunConfig(("eq4", "eq5", "eq6"), (1, 2), (2, 2)))
    assert [(r.identity, r.passed, r.error) for r in results] == [
        ("eq4", True, None), ("eq4", True, None),
        *[(c, False, "RuntimeError: no eq6 side at n = 2") for c in ("eq5", "eq5", "eq6")],
    ]
    assert calls == [2, 2, 2]


def test_a_raising_box_sum_is_an_error_at_its_point_and_not_kept(monkeypatch):
    calls = []
    box_sum = schur.schur_box_sum

    def boom(box):
        calls.append(tuple(box))
        if box == (2, 2):
            raise RuntimeError("no box sum at (2, 2)")
        return box_sum(box)

    monkeypatch.setattr(checks, "schur_box_sum", boom)
    results = run_verification(RunConfig(("theorem", "eq4", "macmahon", "gordon"), (1, 2), (2, 2)))
    assert [(r.identity, r.m, r.passed, r.error) for r in results] == [
        ("theorem", 1, True, None), ("theorem", 2, False, "RuntimeError: no box sum at (2, 2)"),
        ("eq4", 1, True, None), ("eq4", 2, True, None),
        ("macmahon", 1, True, None), ("macmahon", 2, False, "RuntimeError: no box sum at (2, 2)"),
        ("gordon", 1, True, None), ("gordon", 2, False, "RuntimeError: no box sum at (2, 2)"),
    ]
    assert calls == [(1, 2), (2, 2), (2, 2), (2, 2)]


def test_shared_sides_give_the_standalone_text():
    results = run_verification(RunConfig(SHARING.checks, (1, 4), (1, 4)))
    for r in results:
        box = BoxParams(r.m, r.n) if r.m is not None else None
        if r.identity == "theorem":
            sides = schur_box_sum(box), box_det_ratio(box)
        elif r.identity == "macmahon":
            sides = generating_function(symmetric_plane_partitions(r.n, r.m)), macmahon_product(box)
        elif r.identity == "gordon":
            sides = (principal_specialization(schur_box_sum(box), list(range(r.n, 0, -1))),
                     gordon_product(box))
        elif r.identity == "eq5":
            sides = eq5_sides(box, eq6_rhs(r.n))
        elif r.identity == "eq6":
            sides = eq6_sides(r.n, eq6_rhs(r.n))
        elif r.identity == "dn":
            report = dn_checks(r.n, weyl_denominator(r.n, "determinant"))
            sides = report.lead, report.expected
        else:
            sides = weyl_denominator(r.n, "determinant"), weyl_denominator(r.n, "product")
        assert (r.lhs.to_text(), r.rhs.to_text()) == tuple(p.to_text() for p in sides), r[:3]
        assert r.passed
