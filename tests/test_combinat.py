"""Enumeration oracles and the fold/unfold bijection."""

from collections import Counter
from itertools import islice
from math import comb

import pytest

import reference_combinat as ref
from schurbox import checks
from schurbox.combinat import (
    ColumnStrictPP,
    MalformedInputError,
    NotSymmetricError,
    Partition,
    PlanePartition,
    column_strict_odd_pps,
    fold,
    generating_function,
    partitions_in_box,
    q_series,
    ssyt,
    symmetric_plane_partitions,
    symmetric_pp_series,
    unfold,
)
from schurbox.poly import MAX_EXPONENT, ExponentRangeError, LaurentPoly, Monomial, parse_poly


# -- partitions ------------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partitions_in_small_boxes():
    assert {p.parts for p in partitions_in_box(1, 1)} == {(), (1,)}
    two_by_two = {p.parts for p in partitions_in_box(2, 2)}
    assert two_by_two == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}
    assert list(partitions_in_box(0, 4)) == [Partition()]


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", range(7))
def test_partitions_in_box_count(m, n):
    out = list(partitions_in_box(m, n))
    assert len(out) == comb(m + n, n)
    assert len(set(out)) == len(out)
    assert all(ref.fits_in_box(p, m, n) for p in out)


def test_partitions_in_box_streams():
    # C(206, 6), about 1.1e11 partitions: only a stream gets to the first ones
    first = [p.parts for p in islice(partitions_in_box(200, 6), 4)]
    assert first == [(), (200,), (200, 200), (200, 200, 200)]


def test_partitions_in_box_refuses_negative_bounds_at_the_call():
    with pytest.raises(ValueError, match="non-negative"):
        partitions_in_box(-1, 3)
    with pytest.raises(ValueError, match="non-negative"):
        partitions_in_box(3, -1)


# The hook helpers live in the test reference (reference_combinat), which
# the reference fold/unfold are built on.


def test_conjugate_and_hooks():
    assert ref.conjugate((3, 2)) == (2, 2, 1)
    assert ref.principal_hooks((2, 2)) == (3, 1)
    assert ref.principal_hooks((2, 1)) == (3,)
    assert ref.principal_hooks(()) == ()


def test_self_conjugate_from_hooks_round_trip():
    for hooks in [(), (1,), (3,), (5, 1), (7, 3, 1), (9, 5, 3)]:
        p = ref.from_principal_hooks(hooks)
        Partition(p)  # weakly decreasing positive parts
        assert p == ref.conjugate(p)
        assert ref.principal_hooks(p) == hooks
        assert sum(p) == sum(hooks)


def test_from_hooks_rejects_bad_sequences():
    for bad in [(2,), (1, 3), (3, 3), (3, 0)]:
        with pytest.raises(MalformedInputError):
            ref.from_principal_hooks(bad)


# -- plane partitions --------------------------------------------------------------


def test_single_cell_box():
    objs = list(symmetric_plane_partitions(1, 5))
    assert [o.weight for o in objs] == list(range(6))


def test_two_by_two_height_one():
    objs = list(symmetric_plane_partitions(2, 1))
    assert sorted(o.weight for o in objs) == [0, 1, 3, 4]


def test_three_cubed_count_is_112():
    objs = list(symmetric_plane_partitions(3, 3))
    assert len(objs) == 112
    assert len(set(objs)) == 112


def test_degenerate_boxes_yield_empty_object():
    assert list(symmetric_plane_partitions(0, 4)) == [PlanePartition()]
    assert list(symmetric_plane_partitions(2, 0)) == [PlanePartition()]


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 2), (3, 3)])
def test_emitted_objects_satisfy_invariants(n, m):
    for sp in symmetric_plane_partitions(n, m):
        sp.validate()
        assert ref.is_symmetric(sp)
        assert ref.is_bounded(sp, m)
    for cs in column_strict_odd_pps(n, m):
        cs.validate()
        assert all(h <= 2 * n - 1 for lvl in cs.levels for h in lvl)
        assert ref.num_levels(cs) <= m


def test_plane_partition_normalizes_to_minimal_square():
    assert PlanePartition(((1, 0), (0, 0))) == PlanePartition(((1,),))
    assert PlanePartition(((0, 0), (0, 0))) == PlanePartition()
    # an empty row counts as all zero
    assert PlanePartition(((),)) == PlanePartition(())
    # rows may come from an iterator, as the signature allows
    assert PlanePartition(r for r in [[1, 0], []]) == PlanePartition([[1]])
    # asymmetric content keeps the square box
    assert PlanePartition(((1, 1), (0, 0))).n == 2


@pytest.mark.parametrize("heights", [((0, 0, 0), (0,)), ((1, 0, 0), (0,))])
def test_ragged_plane_partition_is_not_stripped_into_a_valid_one(heights):
    pp = PlanePartition(heights)
    assert pp != PlanePartition()
    assert pp.heights == heights
    with pytest.raises(ValueError, match="square"):
        pp.validate()


def test_plane_partition_validate_rejects_non_monotone():
    with pytest.raises(ValueError):
        PlanePartition(((1, 2), (0, 0))).validate()


# -- column-strict arrays ------------------------------------------------------------


def test_column_strict_smallest_cases():
    assert [c.levels for c in column_strict_odd_pps(1, 1)] == [(), ((1,),)]
    objs = list(column_strict_odd_pps(2, 1))
    assert sorted(c.weight for c in objs) == [0, 1, 3, 4]
    assert len(objs) == len(set(objs))


def test_column_strict_json_round_trip():
    cs = ColumnStrictPP(((3, 1), (1,)))
    data = cs.to_json_dict()
    assert data == {"1,1": 3, "2,1": 1, "1,2": 1}
    assert list(data) == ["1,1", "2,1", "1,2"]


def test_column_strict_validate():
    with pytest.raises(MalformedInputError):
        ColumnStrictPP(((2,),)).validate()
    with pytest.raises(MalformedInputError):
        ColumnStrictPP(((1, 3),)).validate()
    with pytest.raises(MalformedInputError):
        ColumnStrictPP(((3,), (5,))).validate()  # levels must nest


# -- fold / unfold --------------------------------------------------------------------


def test_fold_example():
    sp = PlanePartition(((2, 1), (1, 1)))
    cs = fold(sp)
    assert cs.to_json_dict() == {"1,1": 3, "2,1": 1, "1,2": 1}
    assert cs.weight == sp.weight == 5


def test_fold_trivial_cases():
    assert fold(PlanePartition()) == ColumnStrictPP()
    assert fold(PlanePartition(((1,),))) == ColumnStrictPP(((1,),))


def test_fold_requires_symmetry():
    with pytest.raises(NotSymmetricError):
        fold(PlanePartition(((1, 1), (0, 0))))


@pytest.mark.parametrize(
    "heights,message",
    [
        (((0, 1), (1, 0)), "row 0 of the height matrix is not weakly decreasing"),
        (((1, 2), (2, 1)), "row 0 of the height matrix is not weakly decreasing"),
        (((1, 1), (1,)), "square"),
        (((2, 1, 1), (1, 1, 1), (1, 1, 2)), "row 2 of the height matrix is not weakly decreasing"),
        (((-1,),), "non-negative"),
        (((1, 0), (0, -1)), "non-negative"),
    ],
)
def test_fold_rejects_symmetric_arrays_that_are_not_plane_partitions(heights, message):
    """Symmetric (or ragged) arrays outside the domain used to fold to arrays
    with even heights, e.g. ((0, 1), (1, 0)) to [[2]]."""
    sp = PlanePartition(heights)
    with pytest.raises(ValueError, match=message) as info:
        fold(sp)
    assert not isinstance(info.value, NotSymmetricError)


def test_unfold_single_hook():
    assert unfold(ColumnStrictPP(((3,),))) == PlanePartition(((1, 1), (1, 0)))


def test_unfold_rejects_malformed():
    with pytest.raises(MalformedInputError):
        unfold(ColumnStrictPP(((2,),)))
    with pytest.raises(MalformedInputError):
        unfold(ColumnStrictPP(((1, 3),)))


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("m", range(4))
def test_bijection_exhaustive(n, m):
    """fold is a weight-preserving bijection onto the direct enumeration."""
    sym = list(symmetric_plane_partitions(n, m))
    strict = list(column_strict_odd_pps(n, m))
    folded = [fold(sp) for sp in sym]
    assert Counter(folded) == Counter(strict)
    assert sorted(f.weight for f in folded) == sorted(s.weight for s in sym)
    for sp, cs in zip(sym, folded):
        assert unfold(cs) == sp
    for cs in strict:
        assert fold(unfold(cs)) == cs


SYM_2_2 = list(symmetric_plane_partitions(2, 2))
STRICT_2_2 = list(column_strict_odd_pps(2, 2))


def check_result(check_id, m=2, n=2):
    (result,) = checks.run_verification(checks.RunConfig((check_id,), (m, m), (n, n)))
    return result


def bijection_result(m=2, n=2):
    return check_result("bijection", m, n)


def bijection_check_passes():
    return bijection_result().passed


def test_bijection_check_passes_on_the_real_maps():
    assert bijection_check_passes()


@pytest.mark.parametrize("target", range(len(SYM_2_2)))
def test_bijection_check_fails_when_fold_is_wrong_on_one_object(monkeypatch, target):
    """fold sends one plane partition to its neighbour's image, a valid array that
    now appears twice; unfold(fold(sp)) is then the neighbour, not sp, and the
    streaming pass catches it at that object."""
    wrong = SYM_2_2[(target + 1) % len(SYM_2_2)]
    monkeypatch.setattr(checks, "fold", lambda sp: fold(wrong if sp == SYM_2_2[target] else sp))
    assert not bijection_check_passes()


@pytest.mark.parametrize("target", range(len(STRICT_2_2)))
def test_bijection_check_fails_when_unfold_is_wrong_on_one_object(monkeypatch, target):
    """unfold sends one array to its neighbour's preimage, so unfold(fold(sp)) != sp
    for the sp that folds to that array; the streaming pass sees it there."""
    wrong = STRICT_2_2[(target + 1) % len(STRICT_2_2)]
    monkeypatch.setattr(
        checks, "unfold", lambda cs: unfold(wrong if cs == STRICT_2_2[target] else cs)
    )
    assert not bijection_check_passes()


# (m, n, sp's height matrix, the array fold sends it to): the array has sp's
# weight and breaks exactly one condition of column_strict_odd_pps(n, m).
IMAGES_OUTSIDE_THE_STRICT_SET = {
    "more-than-m-levels": (1, 2, [[1, 1], [1, 0]], ((1,), (1,), (1,))),
    "empty-level": (2, 1, [[1]], ((1,), ())),
    "first-hook-above-2n-1": (3, 1, [[3]], ((3,),)),
}


@pytest.mark.parametrize(
    "m,n,heights,levels",
    IMAGES_OUTSIDE_THE_STRICT_SET.values(),
    ids=IMAGES_OUTSIDE_THE_STRICT_SET,
)
def test_bijection_check_fails_when_fold_leaves_the_strict_set(monkeypatch, m, n, heights, levels):
    """fold sends one plane partition to a weight-equal array outside the strict set,
    and unfold (rebound unless the real one already does so) sends it back, so
    the maps stay mutually inverse and weight-preserving; only the membership
    condition that the array breaks can catch it."""
    sp, image = PlanePartition(heights), ColumnStrictPP._make(levels)
    assert sp in set(symmetric_plane_partitions(n, m))
    assert image.weight == sp.weight and image not in set(column_strict_odd_pps(n, m))
    monkeypatch.setattr(checks, "fold", lambda x: image if x == sp else fold(x))
    if unfold(image) != sp:
        monkeypatch.setattr(checks, "unfold", lambda cs: sp if cs == image else unfold(cs))
    result = bijection_result(m, n)
    assert result.error is None and not result.passed


def test_bijection_check_folds_each_object_before_enumerating_the_next(monkeypatch):
    """Whenever the enumeration resumes, fold has already seen every object it
    yielded, so the check holds one plane partition at a time, not a list."""
    folded = []

    def enumeration_that_waits_for_fold(n, m):
        for count, sp in enumerate(symmetric_plane_partitions(n, m), 1):
            yield sp
            assert len(folded) == count and folded[-1] is sp

    monkeypatch.setattr(checks, "fold", lambda sp: folded.append(sp) or fold(sp))
    monkeypatch.setattr(checks, "symmetric_plane_partitions", enumeration_that_waits_for_fold)
    result = bijection_result()
    assert result.error is None and result.passed
    assert len(folded) == len(SYM_2_2)


# -- generating functions ---------------------------------------------------------------


def test_generating_function_single_cell():
    gf = generating_function(symmetric_plane_partitions(1, 4))
    assert gf == parse_poly("1 + q + q^2 + q^3 + q^4")


def test_generating_function_two_by_one():
    gf = generating_function(symmetric_plane_partitions(2, 1))
    assert gf == parse_poly("1 + q + q^3 + q^4")


def test_generating_function_empty_stream():
    assert generating_function([]) == LaurentPoly.zero()


def test_generating_function_coefficients_count_objects():
    gf = generating_function(symmetric_plane_partitions(2, 2))
    assert gf.coefficient(Monomial.one()) == 1
    assert all(c > 0 for _, c in gf.terms())
    assert gf.substitute({"q": 1}).constant_value() == 10


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_generating_function_nonnegative_with_unit_constant(n, m):
    gf = generating_function(symmetric_plane_partitions(n, m))
    assert gf.coefficient(Monomial.one()) == 1
    assert all(c > 0 for _, c in gf.terms())


def test_q_series_counts_each_weight():
    assert q_series({}) == LaurentPoly.zero()
    assert q_series({0: 1, 3: 2}) == parse_poly("1 + 2*q^3")
    assert q_series({MAX_EXPONENT: 1}) == LaurentPoly.variable("q", MAX_EXPONENT)


def test_q_series_range_checks_the_largest_weight():
    with pytest.raises(ExponentRangeError, match="of q is outside the packed range"):
        q_series({0: 1, MAX_EXPONENT + 1: 1})


class Weighted:
    def __init__(self, weight):
        self.weight = weight


def test_generating_function_range_checks_the_largest_weight():
    with pytest.raises(ExponentRangeError, match="of q is outside the packed range"):
        generating_function([Weighted(MAX_EXPONENT + 1)])


# -- weight walks ----------------------------------------------------------------------

WALK_GRID = [(n, m) for n in range(5) for m in range(5)] + [(2, 5), (4, 5)]


@pytest.mark.parametrize("n,m", WALK_GRID)
def test_symmetric_walk_equals_the_enumerators_generating_function(n, m):
    series = symmetric_pp_series(n, m)
    expected = generating_function(symmetric_plane_partitions(n, m))
    assert series == expected
    assert series.to_text() == expected.to_text()


@pytest.mark.parametrize("n,m", [(-1, 2), (2, -1), (-1, -1)])
def test_symmetric_walk_refuses_negative_bounds_like_the_enumerator(n, m):
    with pytest.raises(ValueError) as from_enumerator:
        list(symmetric_plane_partitions(n, m))
    with pytest.raises(ValueError) as from_walk:
        symmetric_pp_series(n, m)
    assert str(from_walk.value) == str(from_enumerator.value)


WEIGHTS_2_2 = sorted({sp.weight for sp in SYM_2_2})


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("weight", WEIGHTS_2_2)
def test_macmahon_fails_when_the_symmetric_walk_is_off_by_one_object(monkeypatch, weight, sign):
    """The walk with one object more (sign 1) or fewer (sign -1) at ``weight``."""
    monkeypatch.setattr(
        checks,
        "symmetric_pp_series",
        lambda n, m: symmetric_pp_series(n, m) + sign * LaurentPoly.variable("q", weight),
    )
    result = check_result("macmahon")
    assert result.error is None and not result.passed


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("weight", WEIGHTS_2_2)
def test_bijection_fails_when_its_symmetric_count_is_off_by_one_object(monkeypatch, weight, sign):
    """The pass's left-side count with one object more or fewer at ``weight``:
    the count is the only place the left side comes from."""
    monkeypatch.setattr(
        checks,
        "q_series",
        lambda counts: q_series({**counts, weight: counts.get(weight, 0) + sign}),
    )
    result = check_result("bijection")
    assert result.error is None and not result.passed


def test_macmahon_builds_no_plane_partition_records(monkeypatch):
    def refuse(n, m):
        raise AssertionError("macmahon enumerated plane partitions")

    monkeypatch.setattr(checks, "symmetric_plane_partitions", refuse)
    for m, n in [(1, 1), (2, 2), (3, 3)]:
        result = check_result("macmahon", m, n)
        assert result.error is None and result.passed


# -- tableaux -----------------------------------------------------------------------------


def tableaux(shape, n):
    """``ssyt``'s entry tuples rebuilt as reference tableaux of row tuples."""
    return [ref.Tableau.from_entries(shape, entries) for entries in ssyt(shape, n)]


def test_ssyt_column_shape():
    tabs = tableaux(Partition((1, 1)), 2)
    assert len(tabs) == 1 and tabs[0].rows == ((1,), (2,))
    assert list(ssyt(Partition((1, 1)), 2)) == [(1, 2)]


def test_ssyt_row_shape():
    rows = {t.rows for t in tableaux(Partition((2,)), 2)}
    assert rows == {((1, 1),), ((1, 2),), ((2, 2),)}


def test_ssyt_hook_shape():
    tabs = tableaux(Partition((2, 1)), 2)
    assert len(tabs) == 2
    monos = {t.content_monomial() for t in tabs}
    assert monos == {Monomial({"x1": 2, "x2": 1}), Monomial({"x1": 1, "x2": 2})}


def test_ssyt_too_many_rows_is_empty():
    assert list(ssyt(Partition((1, 1, 1)), 2)) == []


@pytest.mark.parametrize("shape", [(3, 1), (2, 2), (2, 1, 1)])
def test_ssyt_outputs_are_semistandard(shape):
    for tab in tableaux(Partition(shape), 3):
        tab.validate(3)
