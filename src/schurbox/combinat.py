"""Plane partitions, odd-column-strict arrays, tableaux, and the fold bijection.

A plane partition is stored as its height matrix: entry (i, j) is the number
of lattice points stacked over (i, j), weakly decreasing along rows and
columns.  A symmetric plane partition has a symmetric height matrix; its
horizontal slices are then self-conjugate Young diagrams.

``fold`` maps a symmetric plane partition to the column-strict array whose
column heights at level y are the principal hook lengths of the y-th slice.
Self-conjugate diagrams correspond exactly to strictly decreasing sequences
of odd principal hooks, and slice containment makes hooks weakly decrease
from one level to the next, so the image is precisely an odd-column-strict
array; the map preserves the number of lattice points.  ``unfold`` inverts
it.  The brute-force sides of the combinatorial checks count every object
once.  macmahon's is ``symmetric_pp_series``, a weight walk that builds no
records.  The bijection folds each record of ``symmetric_plane_partitions``
and counts the records of ``column_strict_odd_pps`` itself.  The symmetric
enumerator stays the bijection's input, ``schurbox enumerate``'s source and
the walk's test reference.  ``q_series`` turns ``{weight: count}`` into the
q-series for the walk, the bijection's pass and ``generating_function``
alike.

The kernels work on plain int tuples and lists.  ``fold`` reads each level's
hooks straight off the height matrix: the hook at diagonal cell c of the
slice at height y is ``2 * #{j >= c : h[c][j] >= y} - 1``.  ``unfold`` adds
each hook's cells (the diagonal cell, its arm and its mirrored leg) into the
height matrix.  ``partitions_in_box``, ``symmetric_plane_partitions`` and
``ssyt`` walk a flat cursor; ``column_strict_odd_pps`` nests one generator
per level and ``_levels_under`` one per column of a level.  The objects they
build are already canonical, so they skip the normalizing constructors, and
``ssyt`` yields each tableau as the flat tuple of its entries in row-major order.
``symmetric_pp_series`` keeps a stack of (weight so far, bound) and lists
each bound's rows, or for the last two rows their fillings' weights, once
per call.

``Partition``, ``PlanePartition`` and ``ColumnStrictPP`` are slotted records,
immutable by convention and equal only within their class; their constructors
take ints only (``operator.index``: a float or a str raises TypeError).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping

from .poly import LaurentPoly, Monomial

__all__ = [
    "ColumnStrictPP",
    "MalformedInputError",
    "NotSymmetricError",
    "Partition",
    "PlanePartition",
    "column_strict_odd_pps",
    "fold",
    "generating_function",
    "partitions_in_box",
    "q_series",
    "ssyt",
    "symmetric_plane_partitions",
    "symmetric_pp_series",
    "unfold",
]


class NotSymmetricError(ValueError):
    """fold() requires a symmetric plane partition."""


class MalformedInputError(ValueError):
    """Column heights must be strictly decreasing positive odd values."""


class _Record:
    """One slotted field; equal only to its own class with an equal ``_field``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field(self) == other._field(other)

    def __hash__(self) -> int:
        return hash(self._field(self))


class Partition(_Record):
    """Weakly decreasing positive parts; () is the empty partition."""

    __slots__ = ("parts",)
    _field = operator.attrgetter("parts")

    def __init__(self, parts: Iterable[int] = ()):
        self.parts = parts = tuple(map(operator.index, parts))
        for i, p in enumerate(parts):
            if p < 1 or (i > 0 and parts[i - 1] < p):
                raise ValueError(f"not weakly decreasing positive parts: {parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def padded(self, n: int) -> tuple[int, ...]:
        if len(self.parts) > n:
            raise ValueError(f"{self} has more than {n} parts")
        return self.parts + (0,) * (n - len(self.parts))

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


class PlanePartition(_Record):
    """Height matrix of a plane partition, kept in the minimal square box.

    Equality is equality as sets of lattice points: trailing all-zero
    row/column pairs (an empty row counts as all zero) are stripped at
    construction, so the same solid built in different box sizes compares equal.
    A matrix that is not square, empty rows aside, is kept as given, so
    ``fold`` refuses it.
    """

    __slots__ = ("heights",)
    _field = operator.attrgetter("heights")

    def __init__(self, heights: Iterable[Iterable[int]] = ()):
        rows = [tuple(map(operator.index, row)) for row in heights]
        rows = [row or (0,) * len(rows) for row in rows]
        if all(len(row) == len(rows) for row in rows):
            while rows and not any(rows[-1]) and not any(r[-1] for r in rows):
                rows = [r[:-1] for r in rows[:-1]]
        self.heights = tuple(rows)

    @classmethod
    def _make(cls, heights: tuple[tuple[int, ...], ...]) -> PlanePartition:
        """Wrap a height matrix that is already int tuples in its minimal square."""
        pp = object.__new__(cls)
        pp.heights = heights
        return pp

    @property
    def weight(self) -> int:
        return sum(map(sum, self.heights))

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.heights]

    def __repr__(self) -> str:
        return f"PlanePartition({self.to_json()})"


class ColumnStrictPP(_Record):
    """Column-strict plane partition with odd column heights.

    ``levels[j-1]`` holds the column heights at y = j in x order: strictly
    decreasing positive odd values, weakly decreasing level to level.
    Trailing empty levels are stripped so equality is canonical.
    """

    __slots__ = ("levels",)
    _field = operator.attrgetter("levels")

    def __init__(self, levels: Iterable[Iterable[int]] = ()):
        levels = [tuple(map(operator.index, lvl)) for lvl in levels]
        while levels and not levels[-1]:
            levels.pop()
        self.levels = tuple(levels)

    @classmethod
    def _make(cls, levels: tuple[tuple[int, ...], ...]) -> ColumnStrictPP:
        """Wrap levels that are already int tuples with no trailing empty level."""
        cs = object.__new__(cls)
        cs.levels = levels
        return cs

    @property
    def weight(self) -> int:
        return sum(map(sum, self.levels))

    def validate(self) -> None:
        """Check odd/strict/nesting invariants; raises MalformedInputError."""
        prev: tuple[int, ...] | None = None
        for j, lvl in enumerate(self.levels, 1):
            above = None  # the previous height in this level
            for h in lvl:
                if h < 1 or not h & 1:
                    raise MalformedInputError(f"height {h} at level {j} is not a positive odd value")
                if above is not None and above <= h:
                    raise MalformedInputError(f"level {j} is not strictly decreasing")
                above = h
            if prev is not None and (len(lvl) > len(prev) or any(map(operator.gt, lvl, prev))):
                raise MalformedInputError(f"level {j} does not nest inside level {j - 1}")
            prev = lvl

    def to_json(self) -> dict[str, int]:
        """``{"i,j": height}`` of column i at level j, level by level, then by column."""
        return {f"{i},{j}": h for j, lvl in enumerate(self.levels, 1) for i, h in enumerate(lvl, 1)}

    def __repr__(self) -> str:
        return f"ColumnStrictPP({[list(lvl) for lvl in self.levels]})"


# -- enumeration --------------------------------------------------------------


def partitions_in_box(m: int, n: int) -> Iterator[Partition]:
    """All partitions with at most n parts, each at most m (binomial(m+n, n) of
    them), streamed; negative bounds raise ValueError at the call.

    The order is depth first, larger parts first: (), (m), (m, m), ...  A
    cursor of parts goes down by appending the largest part allowed, and
    otherwise moves on by lowering its last part above 1, dropping the 1s
    after it.
    """
    if m < 0 or n < 0:
        raise ValueError("box dimensions must be non-negative")
    return _partitions_in_box(m, n)


def _partitions_in_box(m: int, n: int) -> Iterator[Partition]:
    parts: list[int] = []
    while True:
        yield Partition(tuple(parts))
        top = parts[-1] if parts else m
        if len(parts) < n and top:
            parts.append(top)
            continue
        while parts and parts[-1] == 1:
            parts.pop()
        if not parts:
            return
        parts[-1] -= 1


def symmetric_plane_partitions(n: int, m: int) -> Iterator[PlanePartition]:
    """All symmetric plane partitions in the n x n x m box, streamed.

    Walks the upper triangle in row-major order with a cursor (the mirror
    cell carries the lower triangle), each cell trying 0 up to the bound
    that row/column monotonicity leaves it and handing back to the cell
    before when it runs out, so nothing is materialized beyond the current
    matrix.
    """
    if n < 0 or m < 0:
        raise ValueError("box dimensions must be non-negative")
    if n == 0:
        yield PlanePartition._make(())
        return
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    h = [[0] * n for _ in range(n)]
    bounds = [m] * len(cells)
    last = len(cells) - 1
    k = 0
    h[0][0] = -1
    while k >= 0:
        i, j = cells[k]
        v = h[i][j] + 1
        if v > bounds[k]:
            k -= 1
            continue
        h[i][j] = h[j][i] = v
        if k == last:
            # The minimal square: rows and columns past the last positive
            # entry of row 0 are all zero.
            side = n - h[0].count(0)
            yield PlanePartition._make(tuple([tuple(row[:side]) for row in h[:side]]))
            continue
        k += 1
        i, j = cells[k]
        if i == 0:
            bounds[k] = h[0][j - 1]
        elif i == j:
            bounds[k] = h[i - 1][j]
        else:
            bounds[k] = min(h[i - 1][j], h[i][j - 1])
        h[i][j] = -1


def _levels_under(prev: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Nonempty strictly decreasing odd tuples bounded componentwise by prev."""
    acc: list[int] = []

    def rec(pos: int, cap: int) -> Iterator[tuple[int, ...]]:
        if pos >= len(prev):
            return
        start = min(prev[pos], cap)
        if start % 2 == 0:
            start -= 1
        for v in range(start, 0, -2):
            acc.append(v)
            yield tuple(acc)
            yield from rec(pos + 1, v - 2)
            acc.pop()

    yield from rec(0, prev[0] if prev else 0)


def column_strict_odd_pps(n: int, m: int) -> Iterator[ColumnStrictPP]:
    """All odd-column-strict plane partitions with y <= m and heights <= 2n-1."""
    if n < 0 or m < 0:
        raise ValueError("bounds must be non-negative")
    root = tuple(range(2 * n - 1, 0, -2))
    stack: list[tuple[int, ...]] = []

    def rec(depth: int, prev: tuple[int, ...]) -> Iterator[ColumnStrictPP]:
        yield ColumnStrictPP._make(tuple(stack))
        if depth == m:
            return
        for lvl in _levels_under(prev):
            stack.append(lvl)
            yield from rec(depth + 1, lvl)
            stack.pop()

    yield from rec(0, root)


def _rows_under(bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Weakly decreasing tuples bounded componentwise by ``bound``."""
    rows: list[tuple[int, ...]] = [()]
    for b in bound:
        rows = [r + (v,) for r in rows for v in range((min(b, r[-1]) if r else b) + 1)]
    return rows


def _fillings(bound: tuple[int, ...]) -> list[int]:
    """The weight of each way to fill the rows under ``bound``, one entry per way."""
    if not bound:
        return [0]
    return [2 * sum(r) - r[0] + w for r in _rows_under(bound) for w in _fillings(r[1:])]


def symmetric_pp_series(n: int, m: int) -> LaurentPoly:
    """``generating_function(symmetric_plane_partitions(n, m))`` without the records.

    Walks the upper triangle row by row: row c, ``h[c][c:]``, is weakly
    decreasing and bounded entry by entry by ``h[c-1][c:]`` (by m for row
    0), and adds ``2 * sum(row) - row[0]`` to the weight, its diagonal cell
    once and the rest twice for their mirrors.  The last two rows come from
    a list of the weight of each way to fill them, one list per bound, so
    each height matrix is still one leaf, counted once.
    """
    if n < 0 or m < 0:
        raise ValueError("box dimensions must be non-negative")
    children: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    tails: dict[tuple[int, ...], tuple[int, ...]] = {}  # one object per bound, for a smaller memo
    fillings: dict[tuple[int, ...], list[int]] = {}
    counts: dict[int, int] = {}
    stack = [(0, (m,) * n)]
    while stack:
        weight, bound = stack.pop()
        if len(bound) <= 2:
            leaves = fillings.get(bound)
            if leaves is None:
                leaves = fillings[bound] = _fillings(bound)
            for w in leaves:
                w += weight
                counts[w] = counts.get(w, 0) + 1
            continue
        kids = children.get(bound)
        if kids is None:
            kids = children[bound] = [
                (2 * sum(r) - r[0], tails.setdefault(r[1:], r[1:])) for r in _rows_under(bound)
            ]
        stack.extend([(weight + w, below) for w, below in kids])
    return q_series(counts)


def ssyt(shape: Partition, n: int) -> Iterator[tuple[int, ...]]:
    """All semistandard tableaux of the given shape with entries in 1..n,
    each as the tuple of its entries in row-major order.

    Cells are filled in row-major order, each trying its values in
    ascending order, so tableaux come out in lexicographic order of their
    row-major reading.  One flat list holds the entries and a cursor walks
    it: each cell's smallest value is read from its left and upper
    neighbours, and a cell that runs past n hands back to the one before.
    """
    parts = shape.parts
    if len(parts) > n:
        return
    size = sum(parts)
    if not size:
        yield ()
        return
    # Flat index of each cell's left and upper neighbour; -1 reads the
    # sentinel 0 at the end of ``vals``, so a missing neighbour bounds nothing.
    left: list[int] = []
    up: list[int] = []
    start = 0
    for r, p in enumerate(parts):
        for c in range(p):
            left.append(start + c - 1 if c else -1)
            up.append(start - parts[r - 1] + c if r else -1)
        start += p
    vals = [0] * (size + 1)
    last = size - 1
    k = 0
    while k >= 0:
        v = vals[k]
        if v < n:
            vals[k] = v + 1
            if k == last:
                yield tuple(vals[:size])
            else:
                k += 1
                lo = vals[up[k]] + 1
                vals[k] = (lo if lo > vals[left[k]] else vals[left[k]]) - 1
        else:
            k -= 1


# -- the fold bijection --------------------------------------------------------


def fold(sp: PlanePartition) -> ColumnStrictPP:
    """Symmetric plane partition -> odd-column-strict array, weight-preserving.

    Level y of the image records the principal hook lengths of the y-th
    horizontal slice of ``sp``.  That slice is self-conjugate with row
    lengths ``#{j : h[i][j] >= y}``, so its hook at diagonal cell c is
    ``2 * #{j >= c : h[c][j] >= y} - 1`` whenever ``h[c][c] >= y``; each row
    is read once, from its diagonal outwards.  Raises NotSymmetricError for
    an asymmetric matrix and ValueError for one that is not a plane
    partition (not square, a row that increases, a negative height).
    """
    h = sp.heights
    side = len(h)
    if h != tuple(zip(*h)):
        if any(len(row) != side for row in h):
            raise ValueError("fold requires a square height matrix")
        raise NotSymmetricError("fold requires a symmetric plane partition")
    levels: list[list[int]] = [[] for _ in range(h[0][0])] if h else []
    for c, row in enumerate(h):
        # Rows decrease and the matrix is symmetric, so columns decrease too.
        if list(row) != sorted(row, reverse=True):
            raise ValueError(f"row {c} of the height matrix is not weakly decreasing")
        if row[-1] < 0:
            raise ValueError("heights must be non-negative")
        k = side  # row[c:k] are the entries >= the current level
        for y in range(row[c]):
            while row[k - 1] <= y:
                k -= 1
            levels[y].append(2 * (k - c) - 1)
    return ColumnStrictPP._make(tuple(map(tuple, levels)))


def unfold(cs: ColumnStrictPP) -> PlanePartition:
    """Inverse of :func:`fold`: rebuild the symmetric plane partition.

    Each hook 2a + 1 at diagonal cell c of a level covers (c, c) and its arm
    and leg (c, c + 1..c + a), (c + 1..c + a, c); adding 1 over every hook
    of every level gives the height matrix.  Raises MalformedInputError if
    any level is not strictly decreasing positive odd values (or levels fail
    to nest).
    """
    cs.validate()
    if not cs.levels:
        return PlanePartition._make(())
    side = (cs.levels[0][0] + 1) // 2  # arm of the largest hook, plus 1
    h = [[0] * side for _ in range(side)]
    for lvl in cs.levels:
        for c, hook in enumerate(lvl):
            row = h[c]
            row[c] += 1
            for j in range(c + 1, c + (hook + 1) // 2):
                row[j] += 1
                h[j][c] += 1
    return PlanePartition._make(tuple(map(tuple, h)))


def q_series(counts: Mapping[int, int]) -> LaurentPoly:
    """Sum of count * q^weight over ``{weight: count}``; a weight outside
    ``±MAX_EXPONENT`` raises ExponentRangeError, as ``Monomial.variable`` does."""
    bound = max(map(abs, counts), default=0)
    Monomial.variable("q", bound)  # the range check
    q = Monomial.variable("q").key
    return LaurentPoly.from_keys([(w * q, c) for w, c in counts.items()], bound)


def generating_function(objects: Iterable[object]) -> LaurentPoly:
    """Sum of q^weight over a finite stream of objects with a ``weight`` attribute."""
    counts: dict[int, int] = {}
    for obj in objects:
        w = obj.weight
        counts[w] = counts.get(w, 0) + 1
    return q_series(counts)
