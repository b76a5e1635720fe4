"""The record classes: constructor signatures and defaults, reprs, equality
(by class as well as by value for the combinatorial records), hashing, and
the refusal of parts, heights, level entries and box dimensions that are not
ints."""

import pytest

from schurbox.checks import CheckResult, RunConfig
from schurbox.combinat import ColumnStrictPP, Partition, PlanePartition
from schurbox.poly import LaurentPoly
from schurbox.schur import BoxParams, DnReport

ZERO, ONE = LaurentPoly.zero(), LaurentPoly.one()


def test_reprs():
    assert repr(BoxParams(m=1, n=2)) == "BoxParams(m=1, n=2)"
    assert repr(Partition([2, 1])) == "Partition([2, 1])"
    assert repr(PlanePartition([[1]])) == "PlanePartition([[1]])"
    assert repr(ColumnStrictPP([[3, 1]])) == "ColumnStrictPP([[3, 1]])"
    assert repr(RunConfig()) == "RunConfig(checks=('all',), m_range=(1, 3), n_range=(1, 3))"
    assert repr(CheckResult("dn", None, 2, ZERO, ONE, False, 1.5)) == (
        "CheckResult(identity='dn', m=None, n=2, lhs=<LaurentPoly 0>, rhs=<LaurentPoly 1>, "
        "passed=False, elapsed_ms=1.5, error=None, divisor=None)"
    )
    assert repr(DnReport(2, (("x1:=1", True),), ONE, ONE)) == (
        "DnReport(n=2, root_checks=(('x1:=1', True),), lead=<LaurentPoly 1>, "
        "expected=<LaurentPoly 1>)"
    )


def test_defaults_and_keywords():
    assert Partition().parts == () and Partition(parts=[2]) == Partition((2,))
    assert PlanePartition().heights == () and PlanePartition(heights=[[1]]) == PlanePartition([[1]])
    assert ColumnStrictPP().levels == () and ColumnStrictPP(levels=[[1]]) == ColumnStrictPP([[1]])
    config = RunConfig()
    assert (config.checks, config.m_range, config.n_range) == (("all",), (1, 3), (1, 3))
    assert RunConfig(checks=("eq6",)) == RunConfig(("eq6",), (1, 3), (1, 3))
    result = CheckResult("eq6", None, 2, ZERO, ZERO, True, 1.5)
    assert (result.error, result.divisor) == (None, None)
    assert result == CheckResult(
        identity="eq6", m=None, n=2, lhs=ZERO, rhs=ZERO, passed=True, elapsed_ms=1.5,
        error=None, divisor=None,
    )
    assert result != CheckResult("eq6", None, 2, ZERO, ZERO, True, 1.5, "ValueError: x")
    assert BoxParams(m=2, n=3) == BoxParams(2, 3) and BoxParams(2, 3).n == 3


def test_combinatorial_records_are_equal_only_within_their_class():
    assert PlanePartition(((1,),)) != ColumnStrictPP(((1,),))
    assert not PlanePartition(((1,),)) == ColumnStrictPP(((1,),))
    assert Partition((1,)) != PlanePartition(((1,),)) and Partition((1,)) != (1,)
    assert len({PlanePartition(((1,),)), ColumnStrictPP(((1,),)), PlanePartition([[1]])}) == 2


@pytest.mark.parametrize(
    "a, b",
    [
        (Partition([2, 1]), Partition((2, 1))),
        (PlanePartition(((1, 0), (0, 0))), PlanePartition(((1,),))),
        (ColumnStrictPP([[3, 1], []]), ColumnStrictPP(((3, 1),))),
        (BoxParams(1, 2), BoxParams(m=1, n=2)),
        (RunConfig(checks=("eq4",)), RunConfig(("eq4",))),
    ],
)
def test_equal_values_hash_equal(a, b):
    assert a == b and hash(a) == hash(b)


def test_tuple_records_are_read_only():
    for record, field in [
        (BoxParams(1, 2), "m"),
        (RunConfig(), "checks"),
        (CheckResult("dn", None, 2, ZERO, ZERO, True, 1.0), "passed"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_box_params_refuse_negative_dimensions():
    with pytest.raises(ValueError, match="non-negative"):
        BoxParams(-1, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Partition((2.7, 1.2)),
        lambda: Partition(("3", "1")),
        lambda: PlanePartition(((1.0,),)),
        lambda: PlanePartition([["1"]]),
        lambda: ColumnStrictPP(((3.5, 1),)),
        lambda: ColumnStrictPP([["3"]]),
        lambda: BoxParams(1.5, 2),
        lambda: BoxParams(1, "2"),
    ],
    ids=[
        "partition-float", "partition-str", "plane-partition-float", "plane-partition-str",
        "column-strict-float", "column-strict-str", "box-params-float", "box-params-str",
    ],
)
def test_non_integral_values_are_refused(build):
    with pytest.raises(TypeError):
        build()
