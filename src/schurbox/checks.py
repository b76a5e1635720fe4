"""Named verification checks and the serial sweep runner used by the CLI.

Each check is one table row: whether it depends on m (if not, it runs once
per n), its minimum n, whether its cost grows like n! (it expands an
order-n determinant or multiplies n!-term Vandermonde products),
``sides(m, n, shared)``, which builds both sides of one identity and returns
``(lhs, rhs)`` or ``(lhs, rhs, ok)`` with ``ok`` a structural verdict (fold
an injection, D_n roots), and the divisor form the check records, if any:
``"bn-alternant"`` for the theorem and ``"a-alternant"`` for schur-agree,
whose ratios are solved from dominant weights as type-B and type-A
alternants.  Neither expands a determinant, yet both keep their n! flag:
the theorem's quotient has (m+1)^n terms, and schur-agree's shapes and
tableaux grow with the box, so until a cost budget refuses large inputs the
order bound is what stops them at n = 9.  Multi-stage checks return their
first disagreeing pair.  ``shared`` is the run's store of sides that
several checks, or one check's rows at several m, use: eq6's right side,
which eq5 puts m back into at every m, and D_n, which weyl compares with
its product form and dn substitutes into, each kept for one n; the box
sum, which theorem, macmahon and gordon take at one (m, n); the
bijection's pass at one n, made at the run's last m (``shared["last_m"]``)
and read by its row at every m through the objects of top height at most
m; and schur-agree's sum over the m x n box, which its row at m + 1
extends by the shapes with lambda_1 = m + 1.  :func:`run_verification`
makes one per call and runs the grid point by point, so each side is
built once, by the first check that needs it, and dropped at the next n
(or (m, n)) or when the call returns.
The runner records each outcome as a :class:`CheckResult` with
``passed = lhs == rhs and ok``; a ``sides`` call that raises, a shared
build included, becomes a failed result with the error text, and the sweep
goes on.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable
from itertools import accumulate
from typing import TypeVar

from .combinat import (
    Partition,
    column_strict_odd_pps,
    fold,
    partitions_in_box,
    q_series,
    symmetric_plane_partitions,
    symmetric_pp_series,
    unfold,
)
from .identity import eq4_sides, eq5_sides, eq6_rhs, eq6_sides, lemma_sides, vanishing_det
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


_T = TypeVar("_T")


class UnknownCheckError(ValueError):
    """A requested identity id is not in the registry."""


class InvalidRangeError(ValueError):
    """A parameter range is empty or not positive."""


class CheckResult(namedtuple(
    "CheckResult", "identity m n lhs rhs passed elapsed_ms error divisor", defaults=(None, None)
)):
    """Outcome of one identity verification at concrete parameters; ``error`` is
    ``"<Type>: <message>"`` if building the sides raised (then both sides are 0),
    and ``divisor`` names the divisor form of the check's table row, if any.
    A passing result holds one polynomial as both ``lhs`` and ``rhs``, the
    left side as built, since the two are equal; a failed result, an error
    record included, keeps two side objects, so ``lhs is rhs`` exactly when
    the result passed.

    ``elapsed_ms`` includes the build of any shared side that this check was
    the first to need: eq6's right side or D_n at its n, or the box sum at its
    (m, n), which theorem builds when it runs and macmahon or gordon
    otherwise.  The checks after it reuse the side and do not pay for it.
    So the first bijection row at each n pays for the whole pass, at the
    run's last m, and the rows after it only read it; a schur-agree row
    pays for its own layer of shapes, the first at each n for its whole
    box."""

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

    def to_text_line(self) -> str:
        """One line of ``schurbox verify`` text output: PASS/FAIL and the time, or
        ``ERROR  <Type>: <message>`` for a check that raised."""
        m_text = "-" if self.m is None else str(self.m)
        head = f"{self.identity:<12} m={m_text:<3} n={self.n:<3}"
        if self.error is not None:
            return f"{head} ERROR  {self.error}"
        return f"{head} {'PASS' if self.passed else 'FAIL'}  {self.elapsed_ms:8.1f} ms"


class RunConfig(namedtuple(
    "RunConfig", "checks m_range n_range", defaults=(("all",), (1, 3), (1, 3))
)):
    """A verification sweep: which checks, over which (m, n) grid."""

    __slots__ = ()


# Every sides function calls the identity and Schur functions through this
# module's globals at call time (never a function object captured at
# import), so a wrapper rebound onto those names sees every call.


def _macmahon_sides(m: int, n: int, shared: dict) -> tuple[LaurentPoly, LaurentPoly]:
    """Brute-force count == specialized box sum == q-product.

    The brute side is ``symmetric_pp_series``: every symmetric plane
    partition in the box counted once by weight, no record built.
    """
    brute = symmetric_pp_series(n, m)
    specialized = principal_specialization(
        _box_sum(shared, m, n), [2 * (n - i) + 1 for i in range(1, n + 1)]
    )
    if brute != specialized:
        return brute, specialized
    product = macmahon_product(BoxParams(m, n))
    if specialized != product:
        return specialized, product
    return brute, product


def _bijection_pass(n: int, top: int) -> tuple[dict[int, list], list[LaurentPoly]]:
    """Both sides of the fold bijection for every m <= ``top`` at n, one pass per side.

    Each symmetric plane partition in the n x n x ``top`` box is folded,
    unfolded and tested as it is enumerated, and lands in the bucket of its
    top height ``h[0][0]``: the n x n x m box holds exactly those in buckets
    0..m.  ``unfold(fold(sp)) == sp`` makes fold injective, and ``unfold``
    validates the levels; with no empty level and a first hook of at most
    2n - 1, fold(sp) is one of the arrays ``column_strict_odd_pps`` enumerates
    once it also has at most m levels, so a bucket is ``[{weight: count},
    every object passed, the most levels an image had]``.  The strict side
    is counted by number of levels (the arrays for m are those with at most
    m), and summed into its series at every m.  Equal generating functions
    at m then give both sets as many objects in every weight, so the
    injection is onto.  Buckets are made as objects reach them, so nothing
    is sized by ``top`` before the pass.
    """
    buckets: dict[int, list] = {}
    for sp in symmetric_plane_partitions(n, top):
        cs = fold(sp)
        lv = cs.levels
        w = sp.weight
        k = sp.heights[0][0] if sp.heights else 0
        bucket = buckets.get(k)
        if bucket is None:
            bucket = buckets[k] = [{}, True, 0]
        counts, passed, most_levels = bucket
        in_strict_set = all(lv) and (not lv or lv[0][0] < 2 * n)
        bucket[1] = passed and in_strict_set and cs.weight == w and unfold(cs) == sp
        if len(lv) > most_levels:
            bucket[2] = len(lv)
        counts[w] = counts.get(w, 0) + 1
    by_levels: dict[int, dict[int, int]] = {}
    for cs in column_strict_odd_pps(n, top):
        k, w = len(cs.levels), cs.weight
        counts = by_levels.get(k)
        if counts is None:
            counts = by_levels[k] = {}
        counts[w] = counts.get(w, 0) + 1
    series = accumulate(q_series(by_levels.get(k, {})) for k in range(top + 1))
    return buckets, list(series)


def _bijection_sides(m: int, n: int, shared: dict) -> tuple[LaurentPoly, LaurentPoly, bool]:
    """fold is a weight-preserving bijection onto the strict arrays, read from the
    run's pass at n (made at the run's last m) through the buckets up to m."""
    buckets, strict = _share(shared, "bijection", n, lambda: _bijection_pass(n, shared["last_m"]))
    merged: Counter[int] = Counter()
    ok = True
    for k, (counts, passed, most_levels) in buckets.items():
        if k <= m:
            merged.update(counts)
            ok = ok and passed and most_levels <= m
    return q_series(merged), strict[m], ok


def _box_order(lam: Partition) -> list[int]:
    """Sort key of ``partitions_in_box`` order: the negated parts."""
    return [-p for p in lam.parts]


def _schur_agree_sides(m: int, n: int, shared: dict) -> tuple[LaurentPoly, LaurentPoly]:
    """Tableau-sum and alternant-ratio Schur backends agree on every shape in the box.

    The run's store keeps the row at (m - 1, n): its box's sum and its first
    disagreeing shape with that shape's pair, if any.  This row then builds
    one layer, the shapes with lambda_1 = m, ``(m,) + mu`` for mu in the
    m x (n - 1) box; a row with no such store builds its whole box.  The
    first disagreeing pair is the first in ``partitions_in_box(m, n)``
    order: (), then the new layer, then the lower layers.  With none, every
    shape's two Schur functions are equal, so the two sums are one sum: the
    previous sum's terms and each new shape's added into one dict, which
    holds no shape's polynomial past its own turn.
    """
    prev = shared.pop("schur_agree", None)
    if prev is not None and prev[0] == (m - 1, n):
        _, total, first_bad = prev
        shapes = (Partition((m, *mu.parts)) for mu in partitions_in_box(m, n - 1))
    else:
        total, first_bad = LaurentPoly.zero(), None
        shapes = partitions_in_box(m, n)
    terms = dict(total.key_terms())
    get = terms.get
    for lam in shapes:
        a = schur_via_tableaux(lam, n)
        b = schur_via_bialternant(lam, n)
        if a != b and (first_bad is None or _box_order(lam) < _box_order(first_bad[0])):
            first_bad = lam, a, b
        for key, coeff in a.key_terms():
            terms[key] = get(key, 0) + coeff
    total = LaurentPoly.from_keys(terms.items(), m)
    shared["schur_agree"] = (m, n), total, first_bad
    if first_bad is not None:
        return first_bad[1:]
    return total, total


def _share(shared: dict, kind: str, key: int | tuple[int, int], build: Callable[[], _T]) -> _T:
    """The ``kind`` side at ``key`` (n, or (m, n)) from the run's store, ``build()``
    on a miss.

    The store holds one ``(key, side)`` slot per kind.  A miss drops the slot
    before it builds, and a build that raises leaves it empty, so the next
    check at that key builds again and records its own error.
    """
    if shared.get(kind, (None,))[0] != key:
        shared.pop(kind, None)
        shared[kind] = (key, build())
    return shared[kind][1]


def _rhs6(shared: dict, n: int) -> LaurentPoly:
    """eq6's right side, for eq5 at every m and for eq6."""
    return _share(shared, "eq6_rhs", n, lambda: eq6_rhs(n))


def _d_n(shared: dict, n: int) -> LaurentPoly:
    """The Weyl determinant D_n, for weyl and dn."""
    return _share(shared, "d_n", n, lambda: weyl_denominator(n, "determinant"))


def _box_sum(shared: dict, m: int, n: int) -> LaurentPoly:
    """The box sum at (m, n), for theorem, macmahon and gordon."""
    return _share(shared, "box_sum", (m, n), lambda: schur_box_sum(BoxParams(m, n)))


def _dn_sides(m: int | None, n: int, shared: dict) -> tuple[LaurentPoly, LaurentPoly, bool]:
    """Root substitutions and the leading-coefficient recursion for D_n."""
    report = dn_checks(n, _d_n(shared, n))
    return report.lead, report.expected, report.all_pass


_Check = namedtuple("_Check", "uses_m min_n expands_order_n sides divisor", defaults=(None,))


_TABLE: dict[str, _Check] = {
    "theorem": _Check(True, 1, True, lambda m, n, shared: (
        _box_sum(shared, m, n), box_det_ratio(BoxParams(m, n))), "bn-alternant"),
    "weyl": _Check(False, 1, True, lambda m, n, shared: (
        _d_n(shared, n), weyl_denominator(n, "product"))),
    "lemma": _Check(False, 1, True, lambda m, n, shared: lemma_sides(n)),
    "eq4": _Check(True, 1, True, lambda m, n, shared: eq4_sides(BoxParams(m, n))),
    "eq5": _Check(True, 1, True, lambda m, n, shared: eq5_sides(
        BoxParams(m, n), _rhs6(shared, n))),
    "eq6": _Check(False, 1, True, lambda m, n, shared: eq6_sides(n, _rhs6(shared, n))),
    "vanishing": _Check(False, 1, True, lambda m, n, shared: (
        vanishing_det(n), LaurentPoly.zero())),
    "macmahon": _Check(True, 1, False, _macmahon_sides),
    "gordon": _Check(True, 1, False, lambda m, n, shared: (
        principal_specialization(_box_sum(shared, m, n), list(range(n, 0, -1))),
        gordon_product(BoxParams(m, n)))),
    "bijection": _Check(True, 1, False, _bijection_sides),
    "schur-agree": _Check(True, 1, True, _schur_agree_sides, "a-alternant"),
    "dn": _Check(False, 2, True, _dn_sides),
}

CHECK_IDS: tuple[str, ...] = tuple(_TABLE)


def minimum_n(check_id: str) -> int:
    return _TABLE[check_id].min_n


def expands_order_n(check_id: str) -> bool:
    """Whether the check is held to n <= DEFAULT_MAX_ORDER.  Most flagged
    checks expand an order-n determinant or multiply n!-term Vandermonde
    products (the lemma); the theorem and schur-agree expand neither, and the
    flag is their only size limit until a cost budget replaces it."""
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


def _evaluate(check_id: str, m: int | None, n: int, shared: dict) -> CheckResult:
    entry = _TABLE[check_id]
    start = time.perf_counter()
    error = None
    try:
        lhs, rhs, *ok = entry.sides(m, n, shared)
    except Exception as exc:  # one raising check must not abort the sweep
        lhs, rhs = LaurentPoly.zero(), LaurentPoly.zero()
        ok, error = [False], f"{type(exc).__name__}: {exc}"
    elapsed = (time.perf_counter() - start) * 1000.0
    passed = lhs == rhs and all(ok)
    if passed:
        rhs = lhs  # one object for the two equal sides, so the run holds one
    return CheckResult(check_id, m, n, lhs, rhs, passed, elapsed, error, entry.divisor)


def run_verification(config: RunConfig) -> list[CheckResult]:
    """Run every requested check over the (m, n) grid; see RunConfig.

    Unknown checks, bad ranges and an n above DEFAULT_MAX_ORDER for a check
    that :func:`expands_order_n` flags are rejected before any work starts.
    Grid points below a check's minimum n (dn needs n >= 2) are skipped.

    The checks run point by point: for each n, for each m, every requested
    check in ``CHECK_IDS`` order, with the checks that do not use m run once
    per n, at the first m.  One store of shared sides is made for this call:
    eq6's right side (eq5 at every m, and eq6) and D_n (weyl and dn) are
    built once per n, and the box sum (theorem, macmahon and gordon) once
    per (m, n), each by the first check that needs it.  The bijection's
    pass runs once per n, at the last m of ``config.m_range``, and serves
    its row at every m; schur-agree builds each shape once per n, the row
    at each m adding the layer lambda_1 = m to the sum of the row before.
    Each kind keeps only its latest n or (m, n).  Results come in
    ``CHECK_IDS`` order, then by n, then by m.
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

    results: dict[str, list[CheckResult]] = {c: [] for c in CHECK_IDS if c in ids}
    first_m, last_m = config.m_range
    shared: dict[str, object] = {"last_m": last_m}
    for n in range(config.n_range[0], config.n_range[1] + 1):
        for m in range(first_m, last_m + 1):
            for check_id, out in results.items():
                entry = _TABLE[check_id]
                if n >= entry.min_n and (entry.uses_m or m == first_m):
                    out.append(_evaluate(check_id, m if entry.uses_m else None, n, shared))
    return [r for out in results.values() for r in out]
