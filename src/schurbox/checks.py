"""Named verification checks and the sweep runner used by the CLI.

Each check builds both sides of one identity at concrete (m, n) and records
the outcome as a :class:`~schurbox.identity.CheckResult`.  Checks that do not
depend on m run once per n.  Sweeps may run on a bounded thread pool; results
are sorted into a fixed order afterwards so output is deterministic.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .combinat import (
    column_strict_odd_pps,
    fold,
    generating_function,
    partitions_in_box,
    symmetric_plane_partitions,
    unfold,
)
from .identity import CheckResult, eq4_sides, eq5_sides, eq6_sides, lemma_sides, vanishing_det
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
    "InvalidRangeError",
    "RunConfig",
    "UnknownCheckError",
    "check_uses_m",
    "expand_checks",
    "expands_order_n",
    "minimum_n",
    "run_verification",
]


class UnknownCheckError(ValueError):
    """A requested identity id is not in the registry."""


class InvalidRangeError(ValueError):
    """A parameter range is empty or not positive."""


@dataclass(frozen=True)
class RunConfig:
    """A verification sweep: which checks, over which (m, n) grid."""

    checks: tuple[str, ...] = ("all",)
    m_range: tuple[int, int] = (1, 3)
    n_range: tuple[int, int] = (1, 3)
    output: str = "text"
    parallel: int = 1


def _timed_sides(
    identity: str,
    m: int | None,
    n: int,
    sides: Callable[[], tuple[LaurentPoly, LaurentPoly]],
) -> CheckResult:
    start = time.perf_counter()
    lhs, rhs = sides()
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(identity, m, n, lhs, rhs, lhs == rhs, elapsed)


def _run_theorem(m: int, n: int) -> CheckResult:
    box = BoxParams(m, n)
    return _timed_sides("theorem", m, n, lambda: (schur_box_sum(box), box_det_ratio(box)))


def _run_weyl(_: int | None, n: int) -> CheckResult:
    return _timed_sides(
        "weyl", None, n,
        lambda: (weyl_denominator(n, "determinant"), weyl_denominator(n, "product")),
    )


def _run_lemma(_: int | None, n: int) -> CheckResult:
    return _timed_sides("lemma", None, n, lambda: lemma_sides(n))


def _run_eq4(m: int, n: int) -> CheckResult:
    return _timed_sides("eq4", m, n, lambda: eq4_sides(BoxParams(m, n)))


def _run_eq5(m: int, n: int) -> CheckResult:
    return _timed_sides("eq5", m, n, lambda: eq5_sides(BoxParams(m, n)))


def _run_eq6(_: int | None, n: int) -> CheckResult:
    return _timed_sides("eq6", None, n, lambda: eq6_sides(n))


def _run_vanishing(_: int | None, n: int) -> CheckResult:
    return _timed_sides("vanishing", None, n, lambda: (vanishing_det(n), LaurentPoly.zero()))


def _run_macmahon(m: int, n: int) -> CheckResult:
    """Brute-force generating function == specialized box sum == q-product."""
    start = time.perf_counter()
    brute = generating_function(symmetric_plane_partitions(n, m))
    specialized = principal_specialization(
        schur_box_sum(BoxParams(m, n)), [2 * (n - i) + 1 for i in range(1, n + 1)]
    )
    product = macmahon_product(BoxParams(m, n))
    elapsed = (time.perf_counter() - start) * 1000.0
    if brute != specialized:
        return CheckResult("macmahon", m, n, brute, specialized, False, elapsed)
    if specialized != product:
        return CheckResult("macmahon", m, n, specialized, product, False, elapsed)
    return CheckResult("macmahon", m, n, brute, product, True, elapsed)


def _run_gordon(m: int, n: int) -> CheckResult:
    def sides() -> tuple[LaurentPoly, LaurentPoly]:
        specialized = principal_specialization(
            schur_box_sum(BoxParams(m, n)), list(range(n, 0, -1))
        )
        return specialized, gordon_product(BoxParams(m, n))

    return _timed_sides("gordon", m, n, sides)


def _run_bijection(m: int, n: int) -> CheckResult:
    """fold/unfold are mutually inverse and weight-preserving on full enumerations."""
    start = time.perf_counter()
    sym = list(symmetric_plane_partitions(n, m))
    strict = list(column_strict_odd_pps(n, m))
    ok = True
    folded = []
    for sp in sym:
        cs = fold(sp)
        folded.append(cs)
        if cs.weight != sp.weight or unfold(cs) != sp:
            ok = False
    if Counter(folded) != Counter(strict):
        ok = False
    for cs in strict:
        if fold(unfold(cs)) != cs:
            ok = False
    lhs = generating_function(sym)
    rhs = generating_function(strict)
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult("bijection", m, n, lhs, rhs, ok and lhs == rhs, elapsed)


def _run_schur_agree(m: int, n: int) -> CheckResult:
    """Tableau-sum and alternant-ratio Schur backends agree on every shape in the box."""
    start = time.perf_counter()
    total_tab = LaurentPoly.zero()
    total_alt = LaurentPoly.zero()
    ok = True
    first_bad: tuple[LaurentPoly, LaurentPoly] | None = None
    for lam in partitions_in_box(m, n):
        a = schur_via_tableaux(lam, n)
        b = schur_via_bialternant(lam, n)
        total_tab = total_tab + a
        total_alt = total_alt + b
        if a != b and first_bad is None:
            ok = False
            first_bad = (a, b)
    lhs, rhs = first_bad if first_bad else (total_tab, total_alt)
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult("schur-agree", m, n, lhs, rhs, ok, elapsed)


def _run_dn(_: int | None, n: int) -> CheckResult:
    """Root substitutions and the leading-coefficient recursion for D_n."""
    start = time.perf_counter()
    report = dn_checks(n)
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult("dn", None, n, report.lead, report.expected, report.all_pass, elapsed)


@dataclass(frozen=True)
class _CheckSpec:
    uses_m: bool
    min_n: int
    run: Callable[[int | None, int], CheckResult] = field(compare=False)
    expands_order_n: bool = True


_REGISTRY: dict[str, _CheckSpec] = {
    "theorem": _CheckSpec(True, 1, _run_theorem),
    "weyl": _CheckSpec(False, 1, _run_weyl),
    "lemma": _CheckSpec(False, 1, _run_lemma, expands_order_n=False),
    "eq4": _CheckSpec(True, 1, _run_eq4),
    "eq5": _CheckSpec(True, 1, _run_eq5),
    "eq6": _CheckSpec(False, 1, _run_eq6),
    "vanishing": _CheckSpec(False, 1, _run_vanishing),
    "macmahon": _CheckSpec(True, 1, _run_macmahon, expands_order_n=False),
    "gordon": _CheckSpec(True, 1, _run_gordon, expands_order_n=False),
    "bijection": _CheckSpec(True, 1, _run_bijection, expands_order_n=False),
    "schur-agree": _CheckSpec(True, 1, _run_schur_agree),
    "dn": _CheckSpec(False, 2, _run_dn),
}

CHECK_IDS: tuple[str, ...] = tuple(_REGISTRY)


def check_uses_m(check_id: str) -> bool:
    return _REGISTRY[check_id].uses_m


def minimum_n(check_id: str) -> int:
    return _REGISTRY[check_id].min_n


def expands_order_n(check_id: str) -> bool:
    """Whether the check expands an order-n determinant, so n <= DEFAULT_MAX_ORDER."""
    return _REGISTRY[check_id].expands_order_n


def expand_checks(requested: Iterable[str]) -> list[str]:
    """Check ids in first-seen order, with ``all`` expanded and repeats dropped."""
    ids: dict[str, None] = {}
    for check_id in requested:
        ids.update(dict.fromkeys(CHECK_IDS if check_id == "all" else (check_id,)))
    unknown = [c for c in ids if c not in _REGISTRY]
    if unknown:
        raise UnknownCheckError(
            f"unknown check(s) {', '.join(map(repr, unknown))}; "
            f"expected one of: {', '.join(CHECK_IDS)} (or 'all')"
        )
    return list(ids)


def _validate_range(name: str, rng: tuple[int, int]) -> None:
    lo, hi = rng
    if lo > hi:
        raise InvalidRangeError(f"{name} range {lo}..{hi} is empty")
    if lo < 1:
        raise InvalidRangeError(f"{name} range must start at 1 or above, got {lo}")


def run_verification(config: RunConfig) -> list[CheckResult]:
    """Run every requested check over the (m, n) grid; see RunConfig.

    Unknown checks, bad ranges and an n above DEFAULT_MAX_ORDER for a check
    that expands an order-n determinant are rejected before any work starts.
    Grid points below a check's minimum n (dn needs n >= 2) are skipped.
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
    if config.parallel < 1:
        raise InvalidRangeError(f"parallel worker count must be >= 1, got {config.parallel}")

    tasks: list[tuple[str, int | None, int]] = []
    for check_id in ids:
        entry = _REGISTRY[check_id]
        for n in range(config.n_range[0], config.n_range[1] + 1):
            if n < entry.min_n:
                continue
            if entry.uses_m:
                for m in range(config.m_range[0], config.m_range[1] + 1):
                    tasks.append((check_id, m, n))
            else:
                tasks.append((check_id, None, n))

    def execute(task: tuple[str, int | None, int]) -> CheckResult:
        check_id, m, n = task
        return _REGISTRY[check_id].run(m, n)

    if config.parallel == 1 or len(tasks) <= 1:
        results = [execute(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=config.parallel) as pool:
            results = list(pool.map(execute, tasks))

    order = {check_id: k for k, check_id in enumerate(CHECK_IDS)}
    results.sort(key=lambda r: (order[r.identity], r.n, r.m if r.m is not None else 0))
    return results
