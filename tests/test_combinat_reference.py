"""The int-tuple combinatorial kernels against the object-building ones they
replaced (``reference_combinat``): fold, unfold, the enumerators, ssyt (its
flat entry tuples against the reference's row-tuple tableaux), the
tableau Schur sum and the single-m streaming bijection check against the
two-pass one; and the runner's bijection and schur-agree rows, which share
one pass or one growing sum over m at each n, against the single-m checks
at every (m, n)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference_combinat as ref
from schurbox.checks import RunConfig, run_verification
from schurbox.combinat import (
    ColumnStrictPP,
    MalformedInputError,
    PlanePartition,
    column_strict_odd_pps,
    fold,
    partitions_in_box,
    ssyt,
    symmetric_plane_partitions,
    unfold,
)
from schurbox.schur import schur_via_tableaux

GRID = [(n, m) for n in range(5) for m in range(5)]


def assert_canonical(obj, cls, field):
    """``obj`` equals, and hashes like, the same value built through the
    normalizing constructor, and holds plain int tuples."""
    data = getattr(obj, field)
    rebuilt = cls(data)
    assert obj == rebuilt and hash(obj) == hash(rebuilt)
    assert getattr(rebuilt, field) == data
    assert type(data) is tuple
    assert all(type(row) is tuple and all(type(v) is int for v in row) for row in data)


# -- full enumerations, m, n <= 4 ----------------------------------------------------


@pytest.mark.parametrize("n,m", GRID)
def test_symmetric_plane_partitions_match_reference(n, m):
    new = list(symmetric_plane_partitions(n, m))
    assert [sp.heights for sp in new] == [sp.heights for sp in ref.symmetric_plane_partitions(n, m)]
    for sp in new:
        assert_canonical(sp, PlanePartition, "heights")


@pytest.mark.parametrize("n,m", GRID)
def test_fold_and_unfold_match_reference_on_full_enumerations(n, m):
    for sp in symmetric_plane_partitions(n, m):
        cs = fold(sp)
        assert cs.levels == ref.fold(sp).levels
        assert_canonical(cs, ColumnStrictPP, "levels")
        back = unfold(cs)
        assert back.heights == ref.unfold(cs).heights == sp.heights
        assert_canonical(back, PlanePartition, "heights")
    for cs in column_strict_odd_pps(n, m):
        assert_canonical(cs, ColumnStrictPP, "levels")
        sp = unfold(cs)
        assert sp.heights == ref.unfold(cs).heights
        assert fold(sp).levels == ref.fold(sp).levels == cs.levels


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("m", range(1, 5))
def test_streaming_bijection_check_matches_the_two_pass_reference(m, n):
    lhs, rhs, ok = ref.streaming_bijection_sides(m, n)
    ref_lhs, ref_rhs, ref_ok = ref.bijection_sides(m, n)
    assert (lhs.to_text(), rhs.to_text(), ok) == (ref_lhs.to_text(), ref_rhs.to_text(), ref_ok)
    assert ok


@pytest.mark.parametrize("m_range", [(1, 4), (2, 3), (3, 3), (4, 4)])
def test_shared_bijection_and_schur_agree_rows_match_the_single_m_references(m_range):
    results = run_verification(RunConfig(("bijection", "schur-agree"), m_range, (1, 4)))
    points = [(m, n) for n in range(1, 5) for m in range(m_range[0], m_range[1] + 1)]
    assert [(r.identity, r.m, r.n) for r in results] == [
        (c, m, n) for c in ("bijection", "schur-agree") for m, n in points
    ]
    for r in results:
        if r.identity == "bijection":
            lhs, rhs, ok = ref.streaming_bijection_sides(r.m, r.n)
        else:
            (lhs, rhs), ok = ref.schur_agree_sides(r.m, r.n), True
        assert (r.lhs.to_text(), r.rhs.to_text(), r.passed) == (
            lhs.to_text(), rhs.to_text(), lhs == rhs and ok
        ), r[:3]
        assert r.passed


@pytest.mark.parametrize("n,m", GRID)
def test_ssyt_and_tableau_sum_match_reference(n, m):
    # Shapes with up to n + 1 rows, so shapes taller than n (no tableaux,
    # the zero polynomial) are compared too.
    for shape in partitions_in_box(m, n + 1):
        assert list(ssyt(shape, n)) == [tab.entries() for tab in ref.ssyt(shape, n)]
        assert schur_via_tableaux(shape, n) == ref.schur_via_tableaux(shape, n)


# -- random objects beyond the grid ------------------------------------------------------


@st.composite
def symmetric_pps(draw, max_side=6, max_height=6):
    """A random symmetric plane partition: each upper-triangle cell in
    row-major order is drawn below the bound its neighbours leave it."""
    n = draw(st.integers(0, max_side))
    m = draw(st.integers(0, max_height))
    h = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == 0:
                bound = m if j == 0 else h[0][j - 1]
            elif i == j:
                bound = h[i - 1][j]
            else:
                bound = min(h[i - 1][j], h[i][j - 1])
            h[i][j] = h[j][i] = draw(st.integers(0, bound))
    return PlanePartition(tuple(map(tuple, h)))


@st.composite
def odd_column_strict(draw, max_n=6, max_levels=7):
    """A random odd-column-strict array with heights at most 2 * max_n - 1."""
    prev = tuple(range(2 * draw(st.integers(0, max_n)) - 1, 0, -2))
    levels = []
    for _ in range(draw(st.integers(0, max_levels))):
        level: list[int] = []
        for c in range(draw(st.integers(0, len(prev)))):
            top = prev[c] if not level else min(prev[c], level[-1] - 2)
            if top < 1:
                break
            level.append(2 * draw(st.integers(0, (top - 1) // 2)) + 1)
        if not level:
            break
        levels.append(tuple(level))
        prev = level
    return ColumnStrictPP(tuple(levels))


@settings(max_examples=300)
@given(symmetric_pps())
def test_fold_matches_reference_on_random_spps(sp):
    cs = fold(sp)
    assert cs == ref.fold(sp)
    assert cs.levels == ref.fold(sp).levels
    assert cs.weight == sp.weight
    assert unfold(cs).heights == ref.unfold(cs).heights == sp.heights


@settings(max_examples=300)
@given(odd_column_strict())
def test_unfold_matches_reference_on_random_arrays(cs):
    cs.validate()
    sp = unfold(cs)
    assert sp.heights == ref.unfold(cs).heights
    ref.validate_plane_partition(sp)
    assert ref.is_symmetric(sp)
    assert fold(sp).levels == cs.levels


def outcome(fn, arg):
    """The result, or the type and message of the error raised."""
    try:
        return fn(arg)
    except ValueError as exc:
        return (type(exc), str(exc))


@settings(max_examples=300)
@given(
    st.lists(
        st.lists(st.integers(-2, 8), min_size=0, max_size=4).map(tuple),
        min_size=0,
        max_size=4,
    ).map(lambda levels: ColumnStrictPP(tuple(levels)))
)
def test_unfold_matches_reference_on_arbitrary_levels(cs):
    """Malformed levels raise the same error as before; valid ones give the same matrix."""
    new, old = outcome(unfold, cs), outcome(ref.unfold, cs)
    if isinstance(old, tuple):
        assert old[0] is MalformedInputError
        assert new == old
    else:
        assert new.heights == old.heights


@settings(max_examples=300)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(st.integers(-1, 3), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(
            lambda values: (n, values)
        )
    )
)
def test_fold_refuses_exactly_the_symmetric_arrays_that_are_not_plane_partitions(case):
    n, values = case
    h = [[0] * n for _ in range(n)]
    it = iter(values)
    for i in range(n):
        for j in range(i, n):
            h[i][j] = h[j][i] = next(it)
    sp = PlanePartition(tuple(map(tuple, h)))
    try:
        ref.validate_plane_partition(sp)
    except ValueError:
        with pytest.raises(ValueError):
            fold(sp)
    else:
        assert fold(sp).levels == ref.fold(sp).levels
