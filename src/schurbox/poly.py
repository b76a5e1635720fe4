"""Exact sparse Laurent-polynomial arithmetic over arbitrary-precision integers.

Every identity this package verifies is an equality in the ring
Z[q, q^-1, t1, t1^-1, ..., x1, x1^-1, ...], so all arithmetic here is exact
and "equal" means literal equality of canonical term maps.

Representation: a polynomial is a map {Monomial: nonzero int}; a monomial is
a sorted tuple of (variable, exponent) pairs with no zero exponents, and
exponents may be negative.  Variable names come from the fixed namespace
``q``, ``t1, t2, ...``, ``x1, x2, ...`` (in that order).

The canonical term order is graded lexicographic: total degree first, then
the exponent vector compared variable by variable.  Canonical text output
lists terms in ascending order, so q-series read naturally:
``1 + q + q^3 + q^4``.

Exact division (:func:`exact_div`) has its own local encoding: it packs each
shifted exponent vector into one int with base ``2**bits`` digits
``(total degree, e_1, ..., e_k)``, so integer order is graded-lex order, and
finds leading terms with a heap that shares its int keys with the remainder
dict.  Its docstring gives the digit-width bound.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache, total_ordering
import re

__all__ = [
    "DEFAULT_MAX_ORDER",
    "LaurentPoly",
    "Monomial",
    "NotDivisibleError",
    "OrderTooLargeError",
    "PolyMatrix",
    "determinant",
    "exact_div",
    "inversion_count",
    "parse_poly",
]

# Permutation expansion of an n x n determinant costs n! products; this bound
# keeps accidental blow-ups out of verification sweeps.
DEFAULT_MAX_ORDER = 8


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class OrderTooLargeError(ValueError):
    """A determinant order exceeds the factorial-expansion bound."""


_VAR_RE = re.compile(r"(?:q|[tx][1-9][0-9]*)\Z")


@lru_cache(maxsize=None)
def _var_key(name: str) -> tuple[str, int]:
    """Sort key fixing the variable order q < t1 < t2 < ... < x1 < x2 < ..."""
    if not _VAR_RE.match(name):
        raise ValueError(f"unknown variable {name!r}: expected q, tN, or xN")
    if name == "q":
        return ("q", 0)
    return (name[0], int(name[1:]))


def _sorted_pairs(exponents: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(exponents, key=lambda p: _var_key(p[0])))


@total_ordering
class Monomial:
    """A product of variable powers; absent variables have exponent 0."""

    __slots__ = ("pairs",)

    def __init__(self, exponents: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        merged: dict[str, int] = {}
        for var, exp in items:
            _var_key(var)
            merged[var] = merged.get(var, 0) + int(exp)
        self.pairs = _sorted_pairs((v, e) for v, e in merged.items() if e)

    @classmethod
    def _make(cls, pairs: tuple[tuple[str, int], ...]) -> Monomial:
        mono = object.__new__(cls)
        mono.pairs = pairs
        return mono

    @classmethod
    def one(cls) -> Monomial:
        return _MONO_ONE

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> Monomial:
        _var_key(name)
        if exp == 0:
            return _MONO_ONE
        return cls._make(((name, int(exp)),))

    def exponents(self) -> dict[str, int]:
        return dict(self.pairs)

    def exponent(self, var: str) -> int:
        for v, e in self.pairs:
            if v == var:
                return e
        return 0

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.pairs)

    def variables(self) -> set[str]:
        return {v for v, _ in self.pairs}

    def is_one(self) -> bool:
        return not self.pairs

    def __mul__(self, other: Monomial) -> Monomial:
        if not isinstance(other, Monomial):
            return NotImplemented
        if not self.pairs:
            return other
        if not other.pairs:
            return self
        merged = dict(self.pairs)
        for v, e in other.pairs:
            ne = merged.get(v, 0) + e
            if ne:
                merged[v] = ne
            else:
                del merged[v]
        return Monomial._make(_sorted_pairs(merged.items()))

    def __pow__(self, exp: int) -> Monomial:
        if exp == 0:
            return _MONO_ONE
        return Monomial._make(tuple((v, e * exp) for v, e in self.pairs))

    def __truediv__(self, other: Monomial) -> Monomial:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self * other**-1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def _cmp(self, other: Monomial) -> int:
        """Graded-lex comparison; earlier variables dominate the lex step."""
        if self.pairs == other.pairs:
            return 0
        da, db = self.degree, other.degree
        if da != db:
            return 1 if da > db else -1
        ia = ib = 0
        pa, pb = self.pairs, other.pairs
        while ia < len(pa) or ib < len(pb):
            ka = _var_key(pa[ia][0]) if ia < len(pa) else None
            kb = _var_key(pb[ib][0]) if ib < len(pb) else None
            if kb is None or (ka is not None and ka < kb):
                ea, eb = pa[ia][1], 0
                ia += 1
            elif ka is None or kb < ka:
                ea, eb = 0, pb[ib][1]
                ib += 1
            else:
                ea, eb = pa[ia][1], pb[ib][1]
                ia += 1
                ib += 1
            if ea != eb:
                return 1 if ea > eb else -1
        return 0

    def __lt__(self, other: Monomial) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._cmp(other) < 0

    def factors_text(self) -> str:
        """Render as ``q^2*x1`` (or ``1`` for the empty monomial)."""
        if not self.pairs:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.pairs)

    def __repr__(self) -> str:
        return f"Monomial({self.factors_text()})"


_MONO_ONE = Monomial._make(())


class LaurentPoly:
    """Sparse Laurent polynomial with exact integer coefficients.

    Instances are immutable by convention; all operations return new values,
    so they are safe to share across threads.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[Monomial, int] = {}
        for mono, coeff in items:
            if not isinstance(mono, Monomial):
                raise TypeError(f"term key must be a Monomial, got {type(mono).__name__}")
            c = data.get(mono, 0) + int(coeff)
            if c:
                data[mono] = c
            elif mono in data:
                del data[mono]
        self._terms = data

    @classmethod
    def _make(cls, data: dict[Monomial, int]) -> LaurentPoly:
        poly = object.__new__(cls)
        poly._terms = data
        return poly

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls._make({})

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls.constant(1)

    @classmethod
    def constant(cls, value: int) -> LaurentPoly:
        return cls._make({_MONO_ONE: int(value)} if value else {})

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> LaurentPoly:
        return cls._make({Monomial.variable(name, exp): 1})

    @classmethod
    def term(cls, mono: Monomial, coeff: int = 1) -> LaurentPoly:
        return cls._make({mono: int(coeff)} if coeff else {})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        return tuple(self._terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in ascending canonical (graded-lex) order."""
        return sorted(self._terms.items(), key=lambda item: _GrlexKey(item[0]))

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for mono in self._terms:
            out.update(v for v, _ in mono.pairs)
        return out

    def constant_value(self) -> int:
        """The value of a constant polynomial; error if any variable remains."""
        if not self._terms:
            return 0
        if len(self._terms) == 1:
            mono, coeff = next(iter(self._terms.items()))
            if not mono.pairs:
                return coeff
        raise ValueError(f"polynomial is not constant: {self.to_text()}")

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> LaurentPoly | None:
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly.constant(value)
        return None

    def _add_scaled(self, other: LaurentPoly, scale: int) -> LaurentPoly:
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = out.get(mono, 0) + scale * coeff
            if c:
                out[mono] = c
            elif mono in out:
                del out[mono]
        return LaurentPoly._make(out)

    def __add__(self, other: object) -> LaurentPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._add_scaled(rhs, 1)

    __radd__ = __add__

    def __sub__(self, other: object) -> LaurentPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._add_scaled(rhs, -1)

    def __rsub__(self, other: object) -> LaurentPoly:
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs._add_scaled(self, -1)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._make({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: object) -> LaurentPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self._terms or not rhs._terms:
            return LaurentPoly.zero()
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in rhs._terms.items():
                mono = m1 * m2
                c = out.get(mono, 0) + c1 * c2
                if c:
                    out[mono] = c
                elif mono in out:
                    del out[mono]
        return LaurentPoly._make(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> LaurentPoly:
        if exp < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = LaurentPoly.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    __hash__ = None  # mutable dict inside; equality is structural

    # -- substitution and extraction --------------------------------------

    def substitute(self, assignments: Mapping[str, Monomial | str | int]) -> LaurentPoly:
        """Simultaneously replace variables by monomial powers, 1, or 0.

        A target may be a Monomial (typically a single variable power such as
        ``Monomial.variable("q", 3)``), a bare variable name, or the integers
        1 (erase the variable) and 0 (kill every term where it appears with
        positive exponent; negative exponents raise ZeroDivisionError).
        Unassigned variables pass through.
        """
        norm: dict[str, Monomial | int] = {}
        for var, target in assignments.items():
            _var_key(var)
            if isinstance(target, Monomial):
                norm[var] = target
            elif isinstance(target, str):
                norm[var] = Monomial.variable(target)
            elif isinstance(target, int) and target in (0, 1):
                norm[var] = target
            else:
                raise ValueError(f"unsupported substitution target for {var!r}: {target!r}")

        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            exps: dict[str, int] = {}
            killed = False
            for v, e in mono.pairs:
                target = norm.get(v)
                if target is None:
                    exps[v] = exps.get(v, 0) + e
                elif isinstance(target, int):
                    if target == 0:
                        if e < 0:
                            raise ZeroDivisionError(
                                f"cannot substitute 0 for {v} with exponent {e}"
                            )
                        killed = True
                        break
                    # target == 1: variable disappears
                else:
                    for tv, te in target.pairs:
                        exps[tv] = exps.get(tv, 0) + te * e
            if killed:
                continue
            new_mono = Monomial._make(_sorted_pairs((v, e) for v, e in exps.items() if e))
            c = out.get(new_mono, 0) + coeff
            if c:
                out[new_mono] = c
            elif new_mono in out:
                del out[new_mono]
        return LaurentPoly._make(out)

    def coefficient_of(self, var: str, exp: int) -> LaurentPoly:
        """The polynomial coefficient of ``var**exp`` (a poly in the rest)."""
        _var_key(var)
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            if mono.exponent(var) == exp:
                rest = Monomial._make(tuple((v, e) for v, e in mono.pairs if v != var))
                out[rest] = coeff
        return LaurentPoly._make(out)

    # -- canonical text format ---------------------------------------------

    def to_text(self) -> str:
        """Canonical text: ascending graded-lex terms, e.g. ``1 - q^2``."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for k, (mono, coeff) in enumerate(self.sorted_terms()):
            mag = abs(coeff)
            if mono.pairs:
                body = mono.factors_text() if mag == 1 else f"{mag}*{mono.factors_text()}"
            else:
                body = str(mag)
            if k == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append((" + " if coeff > 0 else " - ") + body)
        return "".join(chunks)

    @staticmethod
    def parse(text: str) -> LaurentPoly:
        return parse_poly(text)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<LaurentPoly {self.to_text()}>"


class _GrlexKey:
    """Sort adapter so Monomial's graded-lex comparison drives sorted()."""

    __slots__ = ("mono",)

    def __init__(self, mono: Monomial):
        self.mono = mono

    def __lt__(self, other: _GrlexKey) -> bool:
        return self.mono._cmp(other.mono) < 0


# -- parsing ----------------------------------------------------------------

_FACTOR_RE = re.compile(r"(?:(\d+)|(q|[tx][1-9][0-9]*)(?:\^(-?\d+))?)\Z")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical text format produced by :meth:`LaurentPoly.to_text`."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero()
    # Split into signed terms; '-' directly after '^' is an exponent sign.
    boundaries = [0]
    for idx in range(1, len(s)):
        if s[idx] in "+-" and s[idx - 1] not in "^*+-":
            boundaries.append(idx)
    boundaries.append(len(s))
    data: dict[Monomial, int] = {}
    for lo, hi in zip(boundaries, boundaries[1:]):
        chunk = s[lo:hi]
        sign = 1
        if chunk and chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exps: dict[str, int] = {}
        for factor in chunk.split("*"):
            match = _FACTOR_RE.match(factor)
            if not match:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            digits, var, exp = match.groups()
            if digits is not None:
                coeff *= int(digits)
            else:
                exps[var] = exps.get(var, 0) + (int(exp) if exp is not None else 1)
        mono = Monomial(exps)
        c = data.get(mono, 0) + coeff
        if c:
            data[mono] = c
        elif mono in data:
            del data[mono]
    return LaurentPoly._make(data)


# -- matrices and determinants ----------------------------------------------


@dataclass(frozen=True)
class PolyMatrix:
    """A square matrix of Laurent polynomials."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("matrix order must be at least 1")
        for row in self.entries:
            if len(row) != len(self.entries):
                raise ValueError("matrix must be square")
            for entry in row:
                if not isinstance(entry, LaurentPoly):
                    raise TypeError("matrix entries must be LaurentPoly values")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[LaurentPoly | int]]) -> PolyMatrix:
        coerced = tuple(
            tuple(e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e) for e in row)
            for row in rows
        )
        return cls(coerced)


def inversion_count(seq: Sequence[int]) -> int:
    """Number of pairs i < j with seq[i] > seq[j]."""
    count = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                count += 1
    return count


def determinant(matrix: PolyMatrix, max_order: int = DEFAULT_MAX_ORDER) -> LaurentPoly:
    """Signed permutation expansion: sum over sigma of (-1)^inv(sigma) prod M[i][sigma(i)]."""
    n = matrix.n
    if n > max_order:
        raise OrderTooLargeError(f"determinant order {n} exceeds bound {max_order}")
    rows = matrix.entries
    total: dict[Monomial, int] = {}
    for perm in itertools.permutations(range(n)):
        sign = -1 if inversion_count(perm) & 1 else 1
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        for mono, coeff in prod._terms.items():
            c = total.get(mono, 0) + sign * coeff
            if c:
                total[mono] = c
            elif mono in total:
                del total[mono]
    return LaurentPoly._make(total)


# -- exact division -----------------------------------------------------------


def _min_exponents(poly: LaurentPoly, universe: Sequence[str]) -> dict[str, int]:
    """Per-variable minimum exponent across terms, counting absence as 0."""
    mins: dict[str, int] = {}
    seen: dict[str, int] = {}
    n_terms = len(poly._terms)
    for mono in poly._terms:
        for v, e in mono.pairs:
            seen[v] = seen.get(v, 0) + 1
            if v not in mins or e < mins[v]:
                mins[v] = e
    out = {}
    for v in universe:
        m = mins.get(v, 0)
        if seen.get(v, 0) < n_terms:
            m = min(m, 0)
        out[v] = m
    return out


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring: returns q with num == q * den.

    Both operands are shifted by per-variable monomials so all exponents are
    non-negative, divided by multivariate long division under the graded-lex
    order, and the quotient is shifted back (so quotients may carry negative
    exponents).  Raises NotDivisibleError as soon as divisibility fails; its
    message gives the remainder's leading exponents in the dividend's
    (unshifted) Laurent coordinates.

    Each shifted exponent vector is packed into one int whose base
    ``2**bits`` digits are ``(total degree, e_1, ..., e_k)``, most significant
    first, so integer order is graded-lex order and multiplying monomials is
    adding keys.  Every remainder term has total degree at most the larger
    total degree of the shifted operands (each step replaces the leading
    term by terms below it), and every digit is at most that bound, so with
    ``bits`` one more than its bit length no digit can carry.

    The remainder is a dict from negated key to coefficient, and a heap
    holds the same int objects, so ``heapq``'s minimum is the graded-lex
    leading term (Johnson 1974; Monagan & Pearce 2011).  A key is pushed
    once, when it first enters the dict, and popped from both at once; a key
    whose coefficient cancelled to 0 stays in both until it is popped and
    skipped.  Sharing the objects keeps one copy of each key in memory.
    """
    if den.is_zero():
        raise ZeroDivisionError("exact_div: divisor is the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    universe = sorted(num.variables() | den.variables(), key=_var_key)
    num_min = _min_exponents(num, universe)
    den_min = _min_exponents(den, universe)

    def to_vectors(poly: LaurentPoly, mins: dict[str, int]) -> dict[tuple[int, ...], int]:
        out: dict[tuple[int, ...], int] = {}
        for mono, coeff in poly._terms.items():
            exps = dict(mono.pairs)
            out[tuple(exps.get(v, 0) - mins[v] for v in universe)] = coeff
        return out

    num_vecs = to_vectors(num, num_min)
    den_vecs = to_vectors(den, den_min)
    bits = max(sum(vec) for vec in itertools.chain(num_vecs, den_vecs)).bit_length() + 1
    mask = (1 << bits) - 1
    low_shifts = [bits * (len(universe) - 1 - i) for i in range(len(universe))]

    def neg_key(vec: tuple[int, ...]) -> int:
        key = sum(vec)
        for e in vec:
            key = (key << bits) | e
        return -key

    def unpack(key: int) -> tuple[int, ...]:
        return tuple((key >> s) & mask for s in low_shifts)

    den_rest = {neg_key(vec): c for vec, c in den_vecs.items()}
    neg_den_lead = min(den_rest)
    den_lead = unpack(-neg_den_lead)
    # The divisor's leading term cancels the remainder's by construction.
    den_lead_coeff = den_rest.pop(neg_den_lead)

    remainder = {neg_key(vec): c for vec, c in num_vecs.items()}
    del num_vecs, den_vecs  # from here on only the packed keys are held
    heap = list(remainder)
    heapq.heapify(heap)
    quotient: dict[tuple[int, ...], int] = {}
    while heap:
        neg_lead = heapq.heappop(heap)
        lead_coeff = remainder.pop(neg_lead)
        if not lead_coeff:
            continue
        lead = unpack(-neg_lead)
        q_vec = tuple(a - b for a, b in zip(lead, den_lead))
        if any(e < 0 for e in q_vec) or lead_coeff % den_lead_coeff:
            exps = {v: e + num_min[v] for v, e in zip(universe, lead)}
            raise NotDivisibleError(f"nonzero remainder: leading term has exponents {exps}")
        q_coeff = lead_coeff // den_lead_coeff
        quotient[q_vec] = q_coeff
        neg_q = neg_lead - neg_den_lead
        for neg_d, d_coeff in den_rest.items():
            t_key = neg_q + neg_d
            c = remainder.get(t_key)
            if c is None:
                remainder[t_key] = -q_coeff * d_coeff
                heapq.heappush(heap, t_key)
            else:
                remainder[t_key] = c - q_coeff * d_coeff

    shift = [num_min[v] - den_min[v] for v in universe]
    out: dict[Monomial, int] = {}
    for vec, coeff in quotient.items():
        pairs = tuple((v, e + s) for v, e, s in zip(universe, vec, shift) if e + s)
        out[Monomial._make(pairs)] = coeff
    return LaurentPoly._make(out)
