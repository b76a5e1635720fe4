"""Exponent bounds that builders pass to ``from_keys``, and the runner's store of
sides shared between checks (eq6's right side and D_n at one n, the box sum at
one (m, n), the bijection's pass at one n, and schur-agree's sum at one
(m, n), which the next m extends by one layer of shapes)."""

from math import comb

import pytest

from reference_poly import largest_exponent
from schurbox import checks, combinat, identity, schur
from schurbox import poly as poly_module
from schurbox.checks import CHECK_IDS, RunConfig, run_verification
from schurbox.combinat import (
    column_strict_odd_pps,
    fold,
    generating_function,
    partitions_in_box,
    symmetric_plane_partitions,
    unfold,
)
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
    schur_via_bialternant,
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
    would call the names in ``identity``/``schur``; of box sums built by the
    runner, by (m, n), through ``checks``; of the bijection's two enumerations,
    by (n, m), and of each shape's two Schur functions, by (parts, n), wherever
    they are called."""
    counts = {}

    def counting(kind, fn, key_of=lambda key, *args: key):
        def wrapper(*args):
            if kind != "d_n" or args[1:] == ("determinant",):
                key = key_of(*args)
                counts[kind, key] = counts.get((kind, key), 0) + 1
            return fn(*args)
        return wrapper

    rhs6 = counting("eq6_rhs", identity.eq6_rhs)
    d_n = counting("d_n", schur.weyl_denominator)
    for module, name, wrapper in [
        (checks, "eq6_rhs", rhs6), (identity, "eq6_rhs", rhs6),
        (checks, "weyl_denominator", d_n), (schur, "weyl_denominator", d_n),
        (checks, "schur_box_sum", counting("box_sum", schur.schur_box_sum)),
    ]:
        monkeypatch.setattr(module, name, wrapper)
    for owner, names, key_of in [
        (combinat, ("symmetric_plane_partitions", "column_strict_odd_pps"), lambda n, m: (n, m)),
        (schur, ("schur_via_tableaux", "schur_via_bialternant"), lambda lam, n: (lam.parts, n)),
    ]:
        for name in names:
            wrapper = counting(name, getattr(owner, name), key_of)
            monkeypatch.setattr(owner, name, wrapper)
            monkeypatch.setattr(checks, name, wrapper)
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


# -- the bijection's pass and schur-agree's layers ----------------------------------------------


@pytest.mark.parametrize("m_range", [(1, 4), (2, 3), (3, 3)])
def test_the_bijection_enumerates_each_side_once_per_n_at_the_last_m(m_range, builds):
    results = run_verification(RunConfig(("bijection",), m_range, (1, 4)))
    assert len(results) == 4 * (m_range[1] - m_range[0] + 1)
    assert all(r.passed for r in results)
    top = m_range[1]
    assert builds == {(kind, (n, top)): 1 for n in range(1, 5)
                      for kind in ("symmetric_plane_partitions", "column_strict_odd_pps")}


@pytest.mark.parametrize("m_range", [(1, 4), (2, 4), (4, 4)])
def test_schur_agree_builds_each_shape_once_per_n(m_range, builds):
    results = run_verification(RunConfig(("schur-agree",), m_range, (1, 4)))
    assert all(r.passed for r in results)
    top = m_range[1]
    assert builds == {(kind, (lam.parts, n)): 1 for n in range(1, 5)
                      for lam in partitions_in_box(top, n)
                      for kind in ("schur_via_tableaux", "schur_via_bialternant")}


def test_the_1_to_4_grid_builds_125_shapes_not_242(builds):
    run_verification(RunConfig(("schur-agree",), (1, 4), (1, 4)))
    shapes = {key for kind, key in builds if kind == "schur_via_tableaux"}
    assert len(shapes) == sum(builds.values()) // 2 == 125
    assert sum(comb(m + n, n) for m, n in GRID) == 242


def top_height(sp):
    return sp.heights[0][0] if sp.heights else 0


def rows(check_id, m_range, n):
    results = run_verification(RunConfig((check_id,), m_range, (n, n)))
    assert [r.m for r in results] == list(range(m_range[0], m_range[1] + 1))
    assert all(r.error is None for r in results)
    return results


SPP_2_3 = list(symmetric_plane_partitions(2, 3))


@pytest.mark.parametrize("target", range(len(SPP_2_3)))
def test_fold_wrong_on_one_object_fails_exactly_the_rows_from_its_top_height(monkeypatch, target):
    """fold sends one plane partition to its neighbour's image, so unfold(fold(sp))
    is not sp; sp is in the n x n x m box exactly when m >= its h[0][0]."""
    sp, other = SPP_2_3[target], SPP_2_3[(target + 1) % len(SPP_2_3)]
    monkeypatch.setattr(checks, "fold", lambda x: fold(other if x == sp else x))
    failed = [r.m for r in rows("bijection", (1, 3), 2) if not r.passed]
    assert failed == [m for m in (1, 2, 3) if m >= top_height(sp)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_an_image_with_one_level_too_many_fails_only_its_row(monkeypatch, m, n):
    """fold sends one sp with h[0][0] = m to the image of an sp' with h[0][0] = m + 1
    and the same weight, and unfold sends that image object back to sp: the maps
    stay mutually inverse and weight-preserving, and the image is a valid array
    with m + 1 levels, so only the row at m, where it has too many, can fail."""
    spps = list(symmetric_plane_partitions(n, 3))
    sp, sp2 = next(
        (a, b) for a in spps for b in spps
        if top_height(a) == m and top_height(b) == m + 1 and a.weight == b.weight
    )
    image = fold(sp2)
    assert len(image.levels) == m + 1
    monkeypatch.setattr(checks, "fold", lambda x: image if x == sp else fold(x))
    monkeypatch.setattr(checks, "unfold", lambda cs: sp if cs is image else unfold(cs))
    results = rows("bijection", (1, 3), n)
    assert [r.m for r in results if not r.passed] == [m]
    assert all(r.lhs == r.rhs for r in results)


BOX_4_3 = list(partitions_in_box(4, 3))


def disagreeing_rows(monkeypatch, targets, n=3):
    """schur-agree over m = 1..4 at n with the tableau sum one too large on each
    shape in ``targets``; each row's sides as text, and what they should be:
    the pair of the first target in that row's box order, if any."""
    tableaux = schur.schur_via_tableaux
    monkeypatch.setattr(
        checks, "schur_via_tableaux", lambda lam, k: tableaux(lam, k) + (1 if lam in targets else 0)
    )
    got, expected = [], []
    for r in rows("schur-agree", (1, 4), n):
        got.append((r.m, r.passed, r.lhs.to_text(), r.rhs.to_text()))
        first = next((lam for lam in partitions_in_box(r.m, n) if lam in targets), None)
        if first is None:
            text = schur_box_sum(BoxParams(r.m, n)).to_text()
            expected.append((r.m, True, text, text))
        else:
            pair = tableaux(first, n) + 1, schur_via_bialternant(first, n)
            expected.append((r.m, False, *(p.to_text() for p in pair)))
    return got, expected


@pytest.mark.parametrize("lam", BOX_4_3, ids=lambda lam: str(list(lam.parts)))
def test_a_tableau_sum_off_on_one_shape_fails_exactly_the_rows_from_its_first_part(
    monkeypatch, lam
):
    got, expected = disagreeing_rows(monkeypatch, {lam})
    assert got == expected
    k = lam.parts[0] if lam.parts else 0
    assert [m for m, passed, *_ in got if not passed] == [m for m in range(1, 5) if m >= k]


@pytest.mark.parametrize("parts", [
    [(), (4, 2)], [(1,), (3, 3, 1)], [(1, 1, 1), (2,), (3, 1)], [(2, 2), (2, 1, 1), (4, 4, 4)],
])
def test_each_failing_schur_agree_row_returns_its_first_pair_in_box_order(monkeypatch, parts):
    """Layers come in box order: (), then the shapes with lambda_1 = m, then lower
    layers; so a later m can return a shape of a newer layer, built after the
    shapes of the row before, and () stays first."""
    got, expected = disagreeing_rows(monkeypatch, {combinat.Partition(p) for p in parts})
    assert got == expected


def test_a_raising_bijection_pass_is_an_error_at_each_m_of_its_n_and_not_kept(monkeypatch):
    calls = []

    def boom(n, m):
        calls.append((n, m))
        if n == 2:
            raise RuntimeError("no strict arrays at n = 2")
        return column_strict_odd_pps(n, m)

    monkeypatch.setattr(checks, "column_strict_odd_pps", boom)
    results = run_verification(RunConfig(("bijection",), (1, 3), (1, 3)))
    assert [(r.n, r.m, r.passed, r.error) for r in results] == [
        *[(1, m, True, None) for m in (1, 2, 3)],
        *[(2, m, False, "RuntimeError: no strict arrays at n = 2") for m in (1, 2, 3)],
        *[(3, m, True, None) for m in (1, 2, 3)],
    ]
    assert calls == [(1, 3), (2, 3), (2, 3), (2, 3), (3, 3)]


def test_a_raising_schur_agree_layer_is_an_error_from_its_m_and_not_kept(monkeypatch):
    calls = []
    bialternant = schur.schur_via_bialternant

    def boom(lam, n):
        if n == 2:
            calls.append(lam.parts)
            if lam.parts == (2, 1):
                raise RuntimeError("no alternant for (2, 1)")
        return bialternant(lam, n)

    monkeypatch.setattr(checks, "schur_via_bialternant", boom)
    results = run_verification(RunConfig(("schur-agree",), (1, 3), (1, 3)))
    assert [(r.n, r.m, r.passed, r.error) for r in results] == [
        *[(1, m, True, None) for m in (1, 2, 3)],
        (2, 1, True, None),
        *[(2, m, False, "RuntimeError: no alternant for (2, 1)") for m in (2, 3)],
        *[(3, m, True, None) for m in (1, 2, 3)],
    ]
    # m = 1 builds its box, m = 2 its layer up to the raise, and m = 3, with
    # nothing kept, its whole box again up to the same shape.
    assert calls == [
        (), (1,), (1, 1),
        (2,), (2, 2), (2, 1),
        (), (3,), (3, 3), (3, 2), (3, 1), (2,), (2, 2), (2, 1),
    ]
