"""Named verification checks and the serial sweep runner used by the CLI.

Each check is one table row: whether it depends on m (if not, it runs once
per n), its minimum n, whether its cost grows like n! (it expands an
order-n determinant or multiplies n!-term Vandermonde products),
``sides(m, n)``, which builds both sides of one identity and returns
``(lhs, rhs)`` or ``(lhs, rhs, ok)`` with ``ok`` a structural verdict (fold
inverses, D_n roots), and the divisor form the check records, if any (the
theorem's is ``"bn-alternant"``: the numerator and D_n are divided as type-B
alternants).  Multi-stage checks return their first disagreeing pair.  The
runner records each outcome as a :class:`CheckResult` with
``passed = lhs == rhs and ok``; a ``sides`` call that raises becomes a failed
result with the error text, and the sweep goes on.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from collections.abc import Iterable

from .combinat import (
    column_strict_odd_pps,
    fold,
    generating_function,
    partitions_in_box,
    symmetric_plane_partitions,
    unfold,
)
from .identity import eq4_sides, eq5_sides, eq6_sides, lemma_sides, vanishing_det
from .poly import DEFAULT_MAX_ORDER, LaurentPoly
from .schur import (
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

__all__ = [
    "CHECK_IDS",
    "CheckResult",
    "InvalidRangeError",
    "RunConfig",
    "UnknownCheckError",
    "expand_checks",
    "expands_order_n",
    "minimum_n",
    "run_verification",
]


class UnknownCheckError(ValueError):
    """A requested identity id is not in the registry."""


class InvalidRangeError(ValueError):
    """A parameter range is empty or not positive."""


class CheckResult(namedtuple(
    "CheckResult", "identity m n lhs rhs passed elapsed_ms error divisor", defaults=(None, None)
)):
    """Outcome of one identity verification at concrete parameters; ``error`` is
    ``"<Type>: <message>"`` if building the sides raised (then both sides are 0),
    and ``divisor`` names the divisor form of the check's table row, if any."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "m": self.m,
            "n": self.n,
            "pass": self.passed,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.divisor is not None:
            out["divisor"] = self.divisor
        if not self.passed:
            out["lhs"] = self.lhs.to_text()
            out["rhs"] = self.rhs.to_text()
        if self.error is not None:
            out["error"] = self.error
        return out


class RunConfig(namedtuple(
    "RunConfig", "checks m_range n_range", defaults=(("all",), (1, 3), (1, 3))
)):
    """A verification sweep: which checks, over which (m, n) grid."""

    __slots__ = ()


# Every sides function calls the identity and Schur functions through this
# module's globals at call time (never a function object captured at
# import), so a wrapper rebound onto those names sees every call.


def _macmahon_sides(m: int, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Brute-force generating function == specialized box sum == q-product."""
    brute = generating_function(symmetric_plane_partitions(n, m))
    specialized = principal_specialization(
        schur_box_sum(BoxParams(m, n)), [2 * (n - i) + 1 for i in range(1, n + 1)]
    )
    if brute != specialized:
        return brute, specialized
    product = macmahon_product(BoxParams(m, n))
    if specialized != product:
        return specialized, product
    return brute, product


def _bijection_sides(m: int, n: int) -> tuple[LaurentPoly, LaurentPoly, bool]:
    """fold/unfold are mutually inverse and weight-preserving on full enumerations.

    Two passes suffice: ``unfold(fold(sp)) == sp`` with equal weights for every
    sp, and the folded list equals ``strict`` as a multiset.  Then each cs in
    ``strict`` is ``fold(sp)`` for some sp, so ``fold(unfold(cs)) = fold(sp) = cs``,
    for any fold and unfold that are functions of their argument's value.
    """
    sym = list(symmetric_plane_partitions(n, m))
    strict = list(column_strict_odd_pps(n, m))
    folded = [fold(sp) for sp in sym]
    ok = (
        all(cs.weight == sp.weight and unfold(cs) == sp for sp, cs in zip(sym, folded))
        and Counter(folded) == Counter(strict)
    )
    return generating_function(sym), generating_function(strict), ok


def _schur_agree_sides(m: int, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Tableau-sum and alternant-ratio Schur backends agree on every shape in the box."""
    total_tab = total_alt = LaurentPoly.zero()
    for lam in partitions_in_box(m, n):
        a = schur_via_tableaux(lam, n)
        b = schur_via_bialternant(lam, n)
        if a != b:
            return a, b
        total_tab = total_tab + a
        total_alt = total_alt + b
    return total_tab, total_alt


def _dn_sides(_: int | None, n: int) -> tuple[LaurentPoly, LaurentPoly, bool]:
    """Root substitutions and the leading-coefficient recursion for D_n."""
    report = dn_checks(n)
    return report.lead, report.expected, report.all_pass


_Check = namedtuple("_Check", "uses_m min_n expands_order_n sides divisor", defaults=(None,))


_TABLE: dict[str, _Check] = {
    "theorem": _Check(True, 1, True, lambda m, n: (
        schur_box_sum(BoxParams(m, n)), box_det_ratio(BoxParams(m, n))), "bn-alternant"),
    "weyl": _Check(False, 1, True, lambda _, n: (
        weyl_denominator(n, "determinant"), weyl_denominator(n, "product"))),
    "lemma": _Check(False, 1, True, lambda _, n: lemma_sides(n)),
    "eq4": _Check(True, 1, True, lambda m, n: eq4_sides(BoxParams(m, n))),
    "eq5": _Check(True, 1, True, lambda m, n: eq5_sides(BoxParams(m, n))),
    "eq6": _Check(False, 1, True, lambda _, n: eq6_sides(n)),
    "vanishing": _Check(False, 1, True, lambda _, n: (vanishing_det(n), LaurentPoly.zero())),
    "macmahon": _Check(True, 1, False, _macmahon_sides),
    "gordon": _Check(True, 1, False, lambda m, n: (
        principal_specialization(schur_box_sum(BoxParams(m, n)), list(range(n, 0, -1))),
        gordon_product(BoxParams(m, n)))),
    "bijection": _Check(True, 1, False, _bijection_sides),
    "schur-agree": _Check(True, 1, True, _schur_agree_sides),
    "dn": _Check(False, 2, True, _dn_sides),
}

CHECK_IDS: tuple[str, ...] = tuple(_TABLE)


def minimum_n(check_id: str) -> int:
    return _TABLE[check_id].min_n


def expands_order_n(check_id: str) -> bool:
    """Whether the check expands an order-n determinant or multiplies n!-term
    Vandermonde products (the lemma), so n <= DEFAULT_MAX_ORDER."""
    return _TABLE[check_id].expands_order_n


def expand_checks(requested: Iterable[str]) -> list[str]:
    """Check ids in first-seen order, with ``all`` expanded and repeats dropped;
    an empty request is refused like an unknown id."""
    ids: dict[str, None] = {}
    for check_id in requested:
        ids.update(dict.fromkeys(CHECK_IDS if check_id == "all" else (check_id,)))
    expected = f"expected one of: {', '.join(CHECK_IDS)} (or 'all')"
    if not ids:
        raise UnknownCheckError(f"no checks requested; {expected}")
    unknown = [c for c in ids if c not in _TABLE]
    if unknown:
        raise UnknownCheckError(f"unknown check(s) {', '.join(map(repr, unknown))}; {expected}")
    return list(ids)


def _validate_range(name: str, rng: tuple[int, int]) -> None:
    lo, hi = rng
    if lo > hi:
        raise InvalidRangeError(f"{name} range {lo}..{hi} is empty")
    if lo < 1:
        raise InvalidRangeError(f"{name} range must start at 1 or above, got {lo}")


def _evaluate(check_id: str, m: int | None, n: int) -> CheckResult:
    entry = _TABLE[check_id]
    start = time.perf_counter()
    error = None
    try:
        lhs, rhs, *ok = entry.sides(m, n)
    except Exception as exc:  # one raising check must not abort the sweep
        lhs = rhs = LaurentPoly.zero()
        ok, error = [False], f"{type(exc).__name__}: {exc}"
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(
        check_id, m, n, lhs, rhs, lhs == rhs and all(ok), elapsed, error, entry.divisor
    )


def run_verification(config: RunConfig) -> list[CheckResult]:
    """Run every requested check over the (m, n) grid; see RunConfig.

    Unknown checks, bad ranges and an n above DEFAULT_MAX_ORDER for a check
    whose cost grows like n! are rejected before any work starts.
    Grid points below a check's minimum n (dn needs n >= 2) are skipped.
    Results come in ``CHECK_IDS`` order, then by n, then by m.
    """
    ids = expand_checks(config.checks)
    _validate_range("m", config.m_range)
    _validate_range("n", config.n_range)
    bounded = [c for c in ids if expands_order_n(c)]
    if bounded and config.n_range[1] > DEFAULT_MAX_ORDER:
        raise InvalidRangeError(
            f"n = {config.n_range[1]} exceeds the order bound {DEFAULT_MAX_ORDER} "
            f"of {', '.join(bounded)}"
        )

    results: list[CheckResult] = []
    for check_id in (c for c in CHECK_IDS if c in ids):
        entry = _TABLE[check_id]
        for n in range(max(config.n_range[0], entry.min_n), config.n_range[1] + 1):
            ms = range(config.m_range[0], config.m_range[1] + 1) if entry.uses_m else (None,)
            results.extend(_evaluate(check_id, m, n) for m in ms)
    return results
