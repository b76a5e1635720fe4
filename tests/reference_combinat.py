"""Reference fold, unfold, enumerators and tableau Schur sum, test-only.

These are the object-building implementations that ``schurbox.combinat``
and ``schurbox.schur`` used before their kernels moved to plain int tuples
and packed keys.  ``symmetric_plane_partitions`` and ``ssyt`` recurse with
one generator frame per cell and build every object through its
normalizing constructor; ``ssyt`` yields :class:`Tableau` objects of row
tuples.  ``fold`` cuts each slice out of the height matrix and reads its
principal hooks through the conjugate.  ``unfold`` rebuilds each level's
self-conjugate diagram from its hooks and counts the diagrams over every
cell.  ``schur_via_tableaux`` names each entry ``x{v}`` and parses it
through ``Monomial``.  The partition helpers were methods of ``Partition``
and ``PlanePartition`` and are plain functions on parts tuples here, and the
record predicates that only tests read (``fits_in_box``, ``max_height``,
``is_symmetric``, ``is_bounded``, ``num_levels``) are plain functions on the
records; the bodies are otherwise kept as they were, so the differential tests in
``test_combinat_reference.py`` compare against what ran before.  Only valid
inputs are compared for ``fold``: this one does not check that its
argument is a plane partition.  ``bijection_sides`` is the two-pass
bijection check that ``schurbox.checks`` ran before it streamed, and
``streaming_bijection_sides`` the one-pass check at a single m that it ran
before one pass per n served every m; ``schur_agree_sides`` is the
schur-agree check at a single m, a sum over the whole box, that it ran
before it built one layer of shapes per m.  These three call the package's
own fold, unfold, enumerators and Schur functions.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from schurbox import combinat, schur
from schurbox.combinat import (
    ColumnStrictPP,
    MalformedInputError,
    NotSymmetricError,
    Partition,
    PlanePartition,
)
from schurbox.poly import LaurentPoly, Monomial

Parts = tuple[int, ...]


def conjugate(parts: Parts) -> Parts:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > c) for c in range(parts[0]))


def principal_hooks(parts: Parts) -> Parts:
    """Hook lengths of the diagonal cells: arm + leg + 1, strictly decreasing."""
    conj = conjugate(parts)
    hooks = []
    for c in range(len(parts)):
        if parts[c] < c + 1:
            break
        hooks.append((parts[c] - c - 1) + (conj[c] - c - 1) + 1)
    return tuple(hooks)


def from_principal_hooks(hooks: Iterable[int]) -> Parts:
    """The self-conjugate partition with the given diagonal hooks.

    Requires strictly decreasing positive odd values (the hooks of a
    self-conjugate diagram are exactly such sequences).
    """
    hooks = tuple(hooks)
    for i, d in enumerate(hooks):
        if d < 1 or d % 2 == 0 or (i > 0 and hooks[i - 1] <= d):
            raise MalformedInputError(
                f"hooks must be strictly decreasing positive odd values: {hooks}"
            )
    if not hooks:
        return ()
    arms = [(d - 1) // 2 for d in hooks]
    r = len(hooks)
    side = arms[0] + 1
    parts = [arms[c] + c + 1 for c in range(r)]
    for i in range(r + 1, side + 1):
        parts.append(sum(1 for c in range(r) if c + 1 + arms[c] >= i))
    return tuple(p for p in parts if p)


def fits_in_box(p: Partition, m: int, n: int) -> bool:
    """At most n parts, each at most m."""
    return len(p.parts) <= n and (not p.parts or p.parts[0] <= m)


def max_height(sp: PlanePartition) -> int:
    return max((row[0] for row in sp.heights), default=0)


def is_symmetric(sp: PlanePartition) -> bool:
    h = sp.heights
    return all(h[i][j] == h[j][i] for i in range(sp.n) for j in range(i + 1, sp.n))


def is_bounded(sp: PlanePartition, m: int) -> bool:
    return all(v <= m for row in sp.heights for v in row)


def num_levels(cs: ColumnStrictPP) -> int:
    return len(cs.levels)


def slice_partition(sp: PlanePartition, level: int) -> Parts:
    """Row lengths of the horizontal slice at height ``level`` (1-based)."""
    counts = []
    for row in sp.heights:
        c = sum(1 for v in row if v >= level)
        if c:
            counts.append(c)
    return tuple(counts)


@dataclass(frozen=True)
class Tableau:
    """Semistandard filling: rows weakly increase, columns strictly increase."""

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_entries(cls, shape: Partition, entries: Iterable[int]) -> Tableau:
        """The tableau whose row-major reading is ``entries``, as ``combinat.ssyt`` yields it."""
        it = iter(entries)
        return cls(shape, tuple(tuple(next(it) for _ in range(p)) for p in shape.parts))

    def entries(self) -> tuple[int, ...]:
        """The row-major reading."""
        return tuple(v for row in self.rows for v in row)

    def validate(self, n: int) -> None:
        if len(self.rows) != len(self.shape.parts):
            raise ValueError("row count does not match shape")
        for r, row in enumerate(self.rows):
            if len(row) != self.shape.parts[r]:
                raise ValueError(f"row {r} has wrong length")
            for c, v in enumerate(row):
                if not 1 <= v <= n:
                    raise ValueError(f"entry {v} outside 1..{n}")
                if c > 0 and row[c - 1] > v:
                    raise ValueError(f"row {r} not weakly increasing")
                if r > 0 and self.rows[r - 1][c] >= v:
                    raise ValueError(f"column {c} not strictly increasing")

    def content_monomial(self) -> Monomial:
        counts: dict[str, int] = {}
        for row in self.rows:
            for v in row:
                name = f"x{v}"
                counts[name] = counts.get(name, 0) + 1
        return Monomial(counts)


def symmetric_plane_partitions(n: int, m: int) -> Iterator[PlanePartition]:
    """All symmetric plane partitions in the n x n x m box, streamed.

    Backtracks over the upper triangle in row-major order (the mirror cell
    carries the lower triangle), pruning with the row/column monotonicity
    bounds, so nothing is materialized beyond the current matrix.
    """
    if n < 0 or m < 0:
        raise ValueError("box dimensions must be non-negative")
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    h = [[0] * n for _ in range(n)]

    def rec(k: int) -> Iterator[PlanePartition]:
        if k == len(cells):
            yield PlanePartition(tuple(tuple(row) for row in h))
            return
        i, j = cells[k]
        if i == 0 and j == 0:
            bound = m
        elif i == 0:
            bound = h[0][j - 1]
        elif i == j:
            bound = h[i - 1][j]
        else:
            bound = min(h[i - 1][j], h[i][j - 1])
        for v in range(bound + 1):
            h[i][j] = v
            h[j][i] = v
            yield from rec(k + 1)
        h[i][j] = 0
        h[j][i] = 0

    yield from rec(0)


def ssyt(shape: Partition, n: int) -> Iterator[Tableau]:
    """All semistandard tableaux of the given shape with entries in 1..n."""
    parts = shape.parts
    if len(parts) > n:
        return
    if not parts:
        yield Tableau(shape, ())
        return
    rows = [[0] * p for p in parts]
    order = [(r, c) for r in range(len(parts)) for c in range(parts[r])]

    def rec(k: int) -> Iterator[Tableau]:
        if k == len(order):
            yield Tableau(shape, tuple(tuple(row) for row in rows))
            return
        r, c = order[k]
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, n + 1):
            rows[r][c] = v
            yield from rec(k + 1)

    yield from rec(0)


def fold(sp: PlanePartition) -> ColumnStrictPP:
    """Symmetric plane partition -> odd-column-strict array, weight-preserving.

    Level y of the image records the principal hook lengths of the y-th
    horizontal slice of ``sp`` (a self-conjugate diagram).
    """
    if not is_symmetric(sp):
        raise NotSymmetricError("fold requires a symmetric plane partition")
    levels = tuple(
        principal_hooks(slice_partition(sp, level))
        for level in range(1, max_height(sp) + 1)
    )
    return ColumnStrictPP(levels)


def unfold(cs: ColumnStrictPP) -> PlanePartition:
    """Inverse of :func:`fold`: rebuild the symmetric plane partition.

    Level y's heights are read as principal hooks of a self-conjugate
    diagram; stacking the diagrams gives the height matrix.  Raises
    MalformedInputError if any level is not strictly decreasing positive odd
    values (or levels fail to nest).
    """
    cs.validate()
    if not cs.levels:
        return PlanePartition()
    diagrams = [from_principal_hooks(lvl) for lvl in cs.levels]
    side = diagrams[0][0]  # self-conjugate, so widest = tallest
    heights = [
        [sum(1 for d in diagrams if i < len(d) and d[i] > j) for j in range(side)]
        for i in range(side)
    ]
    return PlanePartition(tuple(tuple(row) for row in heights))


def schur_via_tableaux(shape: Partition, n: int) -> LaurentPoly:
    """Sum over semistandard tableaux of shape ``shape`` of prod x_entry."""
    acc: dict[Monomial, int] = {}
    for tab in ssyt(shape, n):
        mono = tab.content_monomial()
        acc[mono] = acc.get(mono, 0) + 1
    return LaurentPoly(acc)


def bijection_sides(m: int, n: int) -> tuple[LaurentPoly, LaurentPoly, bool]:
    """fold/unfold are mutually inverse and weight-preserving on full enumerations.

    Two passes suffice: ``unfold(fold(sp)) == sp`` with equal weights for every
    sp, and the folded list equals ``strict`` as a multiset.  Then each cs in
    ``strict`` is ``fold(sp)`` for some sp, so ``fold(unfold(cs)) = fold(sp) = cs``,
    for any fold and unfold that are functions of their argument's value.
    """
    sym = list(combinat.symmetric_plane_partitions(n, m))
    strict = list(combinat.column_strict_odd_pps(n, m))
    folded = [combinat.fold(sp) for sp in sym]
    ok = (
        all(cs.weight == sp.weight and combinat.unfold(cs) == sp for sp, cs in zip(sym, folded))
        and Counter(folded) == Counter(strict)
    )
    return combinat.generating_function(sym), combinat.generating_function(strict), ok


def streaming_bijection_sides(m: int, n: int) -> tuple[LaurentPoly, LaurentPoly, bool]:
    """fold is a weight-preserving bijection onto the strict arrays; one pass per side.

    ``unfold(fold(sp)) == sp`` makes fold injective, and ``unfold`` validates
    the levels; with at most m levels, none empty, and a first hook of at
    most 2n - 1, fold(sp) is one of the arrays ``column_strict_odd_pps``
    enumerates.  Equal generating functions then give both sets as many
    objects in every weight, so the injection is onto.  The pass reads each
    plane partition's weight once, for the weight test and for the count.
    """
    ok = True
    counts: dict[int, int] = {}
    for sp in combinat.symmetric_plane_partitions(n, m):
        cs = combinat.fold(sp)
        lv = cs.levels
        w = sp.weight
        in_strict_set = len(lv) <= m and all(lv) and (not lv or lv[0][0] < 2 * n)
        ok = ok and in_strict_set and cs.weight == w and combinat.unfold(cs) == sp
        counts[w] = counts.get(w, 0) + 1
    strict = combinat.generating_function(combinat.column_strict_odd_pps(n, m))
    return combinat.q_series(counts), strict, ok


def schur_agree_sides(m: int, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Tableau-sum and alternant-ratio Schur backends agree on every shape in the box;
    the first disagreeing pair in ``partitions_in_box`` order, or the two sums."""
    total_tab = total_alt = LaurentPoly.zero()
    for lam in combinat.partitions_in_box(m, n):
        a = schur.schur_via_tableaux(lam, n)
        b = schur.schur_via_bialternant(lam, n)
        if a != b:
            return a, b
        total_tab = total_tab + a
        total_alt = total_alt + b
    return total_tab, total_alt
