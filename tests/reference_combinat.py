"""Reference fold, unfold, enumerators and tableau Schur sum, test-only.

These are the object-building implementations that ``schurbox.combinat``
and ``schurbox.schur`` used before their kernels moved to plain int tuples
and packed keys.  ``symmetric_plane_partitions`` and ``ssyt`` recurse with
one generator frame per cell and build every object through its
normalizing constructor.  ``fold`` builds each slice as a ``Partition``
and reads its principal hooks through ``conjugate()``.  ``unfold`` rebuilds
each level's self-conjugate diagram with ``Partition.from_principal_hooks``
and counts the diagrams over every cell.  ``schur_via_tableaux`` names each
entry ``x{v}`` and parses it through ``Monomial``.  The bodies are kept
verbatim so the differential tests in ``test_combinat_reference.py``
compare against exactly what ran before.  Only valid inputs are compared
for ``fold``: this one does not check that its argument is a plane
partition.
"""

from __future__ import annotations

from collections.abc import Iterator

from schurbox.combinat import (
    ColumnStrictPP,
    NotSymmetricError,
    Partition,
    PlanePartition,
    Tableau,
)
from schurbox.poly import LaurentPoly, Monomial


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
    if not sp.is_symmetric():
        raise NotSymmetricError("fold requires a symmetric plane partition")
    levels = tuple(
        sp.slice_partition(level).principal_hooks()
        for level in range(1, sp.max_height + 1)
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
    diagrams = [Partition.from_principal_hooks(lvl) for lvl in cs.levels]
    side = diagrams[0].parts[0]  # self-conjugate, so widest = tallest
    heights = [
        [sum(1 for d in diagrams if i < len(d.parts) and d.parts[i] > j) for j in range(side)]
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
