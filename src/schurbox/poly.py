"""Exact sparse Laurent-polynomial arithmetic over arbitrary-precision integers.

Every identity this package verifies is an equality in the ring
Z[q, q^-1, t1, t1^-1, ..., x1, x1^-1, ...], so all arithmetic here is exact
and "equal" means literal equality of canonical term maps.

Representation: a polynomial is a map {key: nonzero int}.  A key packs a
monomial's exponents into one Python int as signed digits of
``DIGIT_BITS`` bits: variable v at fixed position p(v) contributes
``e_v * 2**(DIGIT_BITS * p(v))``, with p(q) = 0, p(t_i) = 2i - 1 and
p(x_i) = 2i.  The monomial 1 is the key 0, and since every digit stays in
``[-MAX_EXPONENT, MAX_EXPONENT]`` no digit carries into the next, so
multiplying monomials is adding keys.  Each polynomial carries a bound on
the absolute value of its exponents.  A product whose operand bounds sum
past ``MAX_EXPONENT`` is checked exactly, from each position's smallest and
largest digit, and raises :class:`ExponentRangeError` before any key is
built if some exponent of the product would leave the range.
:func:`unit_keys` gives the keys of t_i and x_i by index, so callers can
build terms from exponents without naming variables.
Determinants take one of two routes: :func:`determinant` multiplies the
polynomial entries of a :class:`PolyMatrix`, and :func:`expand_det` adds the
packed keys of monomial or binomial entries straight into terms.
:class:`Monomial` is the boundary value that wraps one key.  It has no
arithmetic: every product and power is a :class:`LaurentPoly` operation,
so one exponent check guards them all.  Keys are decoded only at the
boundary (canonical text, ``Monomial.pairs``, ``variables()``, substitution,
the entry of :func:`divide_bn_alternants` and the entry and exit of
:func:`exact_div`), in bulk: every digit is
biased to an unsigned value, and all keys of one polynomial are read
through one ``memoryview``.  :func:`divide_binomials` reads only the one
digit it steps along, with a shift and a mask per key.

Variable names come from the fixed namespace ``q``, ``t1, t2, ...``,
``x1, x2, ...`` (in that order).  The canonical term order is graded
lexicographic: total degree first, then the exponent vector compared
variable by variable in that order.  Canonical text output lists terms in
ascending order, so q-series read naturally: ``1 + q + q^3 + q^4``.

Exact division takes one of three routes.  :func:`divide_bn_alternants`
divides the theorem's numerator by the Weyl determinant D_n: both are
type-B_n alternants, so after each is checked against its own expansion the
quotient is solved on their few dominant terms.  :func:`divide_binomials`
is the route of every other ratio a check takes: each of those divisors is a
product of binomials x^a - x^b (a Vandermonde, 1 - prod x_i,
prod (1 - q^e)), and dividing by one of them is a prefix sum along v = b - a
inside each coset k + Z*v of the packed keys, exact if and only if every
coset sums to 0.  :func:`exact_div` divides by any divisor and is the
general reference both fast routes are tested against: it packs each shifted
exponent vector once more, into base ``2**bits`` digits
``(total degree, e_1, ..., e_k)`` with non-negative digits, so integer order
is graded-lex order, and finds leading terms with a heap that shares its int
keys with the remainder dict.  Its docstring gives the digit-width bound.

Multiplication takes two routes.  ``LaurentPoly.__mul__`` multiplies any two
polynomials, one row per term of the smaller operand.  :func:`times_binomials`
multiplies by a product of binomials x^a - x^b (the Vandermonde, the B_n
factors (1 - x_i) and (x_i x_j - 1), prod (1 - q^e)), the mirror of
:func:`divide_binomials`: each factor is x^a (1 - x^v), multiplying by
1 - x^v is a copy of the terms and one subtraction per term at its key
plus v, and the units x^a are applied once, at the end.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import struct
import sys
from collections import namedtuple
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
import re

__all__ = [
    "DEFAULT_MAX_ORDER",
    "DIGIT_BITS",
    "ExponentRangeError",
    "LaurentPoly",
    "MAX_EXPONENT",
    "Monomial",
    "NotDivisibleError",
    "OrderTooLargeError",
    "PolyMatrix",
    "determinant",
    "divide_binomials",
    "divide_bn_alternants",
    "exact_div",
    "expand_det",
    "parse_poly",
    "signed_permutations",
    "times_binomials",
    "unit_keys",
]

# Permutation expansion of an n x n determinant costs n! products; this bound
# keeps accidental blow-ups out of verification sweeps.
DEFAULT_MAX_ORDER = 8

# Width of one exponent digit in a packed key, and the largest |exponent|.
DIGIT_BITS = 32
MAX_EXPONENT = (1 << (DIGIT_BITS - 1)) - 1
_BASE = 1 << DIGIT_BITS
_HALF = 1 << (DIGIT_BITS - 1)  # added to each digit to make it unsigned
_DIGIT_FORMAT = "I"
if struct.calcsize(_DIGIT_FORMAT) * 8 != DIGIT_BITS:
    raise ImportError(f"memoryview format {_DIGIT_FORMAT!r} is not {DIGIT_BITS} bits here")
_BOUND_CHUNK = 1024  # keys per digit buffer in _bound


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class ExponentRangeError(ArithmeticError):
    """An exponent does not fit the packed digit range ``±MAX_EXPONENT``."""


class OrderTooLargeError(ValueError):
    """An n!-term permutation expansion with n above ``DEFAULT_MAX_ORDER``."""


_VAR_RE = re.compile(r"(?:q|[tx][1-9][0-9]*)\Z")


@lru_cache(maxsize=256)
def _position(name: str) -> int:
    """Digit position of a variable: q -> 0, t_i -> 2i - 1, x_i -> 2i."""
    if not _VAR_RE.match(name):
        raise ValueError(f"unknown variable {name!r}: expected q, tN, or xN")
    if name == "q":
        return 0
    return 2 * int(name[1:]) - (name[0] == "t")


def _name(pos: int) -> str:
    return "q" if pos == 0 else f"{'tx'[(pos + 1) % 2]}{(pos + 1) // 2}"


def _canonical_positions(npos: int) -> list[int]:
    """Positions 0..npos-1 in variable order q < t1 < t2 < ... < x1 < x2 < ..."""
    return [0, *range(1, npos, 2), *range(2, npos, 2)]


def _checked_exponent(exp: int, pos: int) -> int:
    if not -MAX_EXPONENT <= exp <= MAX_EXPONENT:
        raise ExponentRangeError(
            f"exponent {exp} of {_name(pos)} is outside the packed range ±{MAX_EXPONENT}"
        )
    return exp


def _checked_bound(bound: int) -> int:
    """``bound`` if every exponent up to it in absolute value fits a digit."""
    if bound > MAX_EXPONENT:
        raise ExponentRangeError(
            f"exponents may reach {bound} in absolute value, outside the packed "
            f"range ±{MAX_EXPONENT}"
        )
    return bound


def _span(keys: Iterable[int]) -> int:
    """Number of digit positions up to the highest nonzero digit of any key (at least 1)."""
    return max(map(abs, keys), default=0).bit_length() // DIGIT_BITS + 1


def _digits(keys: Iterable[int], npos: int = 0) -> tuple[int, memoryview]:
    """All keys' digits as one flat buffer, each digit biased by ``_HALF``.

    Returns ``(npos, flat)`` with ``flat[t * npos + p] - _HALF`` the exponent
    at position p of the t-th key; ``npos`` covers every key and is at least
    the ``npos`` given.  Adding ``_HALF`` to every digit makes each digit
    unsigned without a carry, so the bytes of one int hold them all.
    """
    npos = max(npos, _span(keys))
    bias = _HALF * ((_BASE**npos - 1) // (_BASE - 1))
    nbytes = npos * DIGIT_BITS // 8
    order = sys.byteorder
    buf = b"".join([(k + bias).to_bytes(nbytes, order) for k in keys])
    return npos, memoryview(buf).cast(_DIGIT_FORMAT)


def _bound(keys: Collection[int]) -> int:
    """Largest absolute exponent over the keys (0 for none).

    More than ``_BOUND_CHUNK`` keys are read a chunk at a time: a digit
    buffer for all of them would take about 200 bytes per key on top of the
    term map being built (10 MB for the 46,080 terms of an eq6 side at n = 6).
    """
    if len(keys) > _BOUND_CHUNK:
        keys = list(keys)
        return max(_bound(keys[i:i + _BOUND_CHUNK]) for i in range(0, len(keys), _BOUND_CHUNK))
    _, flat = _digits(keys)
    if not flat:
        return 0
    return max(max(flat) - _HALF, _HALF - min(flat))


def _product_bound(a_keys: Iterable[int], a_bound: int, b_keys: Iterable[int], b_bound: int) -> int:
    """A bound on |exponent| over all products of an a key and a b key.

    The sum of the operands' bounds when it fits the digit range (O(1));
    otherwise the exact bound from each position's smallest and largest
    digit, which raises :class:`ExponentRangeError` only if some product
    really leaves the range.
    """
    bound = a_bound + b_bound
    if bound <= MAX_EXPONENT:
        return bound
    npos = max(_span(a_keys), _span(b_keys))
    _, a_flat = _digits(a_keys, npos)
    _, b_flat = _digits(b_keys, npos)
    bound = 0
    for p in range(npos):
        a_col, b_col = a_flat[p::npos], b_flat[p::npos]
        hi = max(a_col) + max(b_col) - 2 * _HALF
        lo = min(a_col) + min(b_col) - 2 * _HALF
        bound = max(bound, hi, -lo)
    return _checked_bound(bound)


def _substitution_bound(flat: memoryview, npos: int, images: list[tuple[int, int]]) -> int:
    """The exact largest |exponent| that ``LaurentPoly.substitute`` can produce from
    the terms' digits ``flat`` and its ``(position, image key - variable key)`` pairs;
    raises :class:`ExponentRangeError` only if some new exponent leaves the range."""
    npos_out, deltas = _digits([delta for _, delta in images], npos)
    bound = 0
    for p in range(npos_out):
        exps = [d - _HALF for d in flat[p::npos]] if p < npos else [0] * (len(flat) // npos)
        for row, (s, _) in enumerate(images):
            c = deltas[row * npos_out + p] - _HALF
            if c and s < npos:
                exps = [e + c * (d - _HALF) for e, d in zip(exps, flat[s::npos])]
        bound = max(bound, max(map(abs, exps), default=0))
    return _checked_bound(bound)


def unit_keys(letter: str, count: int) -> tuple[int, ...]:
    """Packed keys of the monomials ``letter1, ..., letter<count>``.

    ``letter`` is ``"t"`` or ``"x"``; entry i - 1 is the key of the i-th
    variable, so ``e * unit_keys("x", n)[i - 1]`` is the key of x_i^e.
    """
    if letter not in ("t", "x"):
        raise ValueError(f"unit_keys takes 't' or 'x', not {letter!r}")
    return tuple(1 << (DIGIT_BITS * _position(f"{letter}{i}")) for i in range(1, count + 1))


def _used_positions(flat: memoryview, npos: int) -> list[int]:
    """Positions, in variable order, where some key has a nonzero digit."""
    out = []
    for p in _canonical_positions(npos):
        col = flat[p::npos]
        if col and (min(col) != _HALF or max(col) != _HALF):
            out.append(p)
    return out


def _factors_text(pairs: Iterable[tuple[str, int]]) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in pairs) or "1"


def _accumulate(out: dict[int, int], items: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Add (key, coefficient) pairs into ``out``, dropping keys that sum to 0."""
    get = out.get
    for key, coeff in items:
        coeff += get(key, 0)
        if coeff:
            out[key] = coeff
        else:
            out.pop(key, None)
    return out


class Monomial:
    """A product of variable powers; absent variables have exponent 0.

    ``key`` is the packed exponent int described in the module docstring.
    """

    __slots__ = ("key",)

    def __init__(self, exponents: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        merged: dict[int, int] = {}
        for var, exp in items:
            pos = _position(var)
            merged[pos] = merged.get(pos, 0) + int(exp)
        self.key = sum(
            _checked_exponent(e, p) << (DIGIT_BITS * p) for p, e in merged.items()
        )

    @classmethod
    def _make(cls, key: int) -> Monomial:
        mono = object.__new__(cls)
        mono.key = key
        return mono

    @classmethod
    def one(cls) -> Monomial:
        return _MONO_ONE

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> Monomial:
        pos = _position(name)
        return cls._make(_checked_exponent(int(exp), pos) << (DIGIT_BITS * pos))

    @property
    def pairs(self) -> tuple[tuple[str, int], ...]:
        """(variable, exponent) pairs with nonzero exponent, in variable order."""
        npos, flat = _digits((self.key,))
        return tuple(
            (_name(p), flat[p] - _HALF) for p in _canonical_positions(npos) if flat[p] != _HALF
        )

    def exponents(self) -> dict[str, int]:
        return dict(self.pairs)

    def exponent(self, var: str) -> int:
        return self.exponents().get(var, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def factors_text(self) -> str:
        """Render as ``q^2*x1`` (or ``1`` for the empty monomial)."""
        return _factors_text(self.pairs)

    def __repr__(self) -> str:
        return f"Monomial({self.factors_text()})"


_MONO_ONE = Monomial._make(0)


class LaurentPoly:
    """Sparse Laurent polynomial with exact integer coefficients.

    Instances are immutable by convention; all operations return new values,
    so they are safe to share across threads.  ``_bound`` is at least the
    largest absolute exponent of any term.
    """

    __slots__ = ("_terms", "_bound")

    def __init__(
        self,
        terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _accumulate({}, ((_key_of(mono), int(coeff)) for mono, coeff in items))
        self._bound = _bound(self._terms)

    @classmethod
    def _make(cls, data: dict[int, int], bound: int) -> LaurentPoly:
        poly = object.__new__(cls)
        poly._terms = data
        poly._bound = bound
        return poly

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls._make({}, 0)

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls.constant(1)

    @classmethod
    def constant(cls, value: int) -> LaurentPoly:
        return cls._make({0: int(value)} if value else {}, 0)

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> LaurentPoly:
        return cls._make({Monomial.variable(name, exp).key: 1}, abs(int(exp)))

    @classmethod
    def from_keys(cls, items: Iterable[tuple[int, int]]) -> LaurentPoly:
        """Sum of ``(packed key, coefficient)`` pairs.

        Each key must hold every exponent within ``±MAX_EXPONENT``, as a sum
        of :func:`unit_keys` entries times such exponents (one per variable)
        does; this builds terms without naming their variables.
        """
        terms = _accumulate({}, items)
        return cls._make(terms, _bound(terms))

    @classmethod
    def term(cls, mono: Monomial, coeff: int = 1) -> LaurentPoly:
        return cls._make({mono.key: int(coeff)} if coeff else {}, _bound((mono.key,)))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def key_terms(self) -> Iterable[tuple[int, int]]:
        """The ``(packed key, coefficient)`` pairs, as :meth:`from_keys` takes them."""
        return self._terms.items()

    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        return tuple((Monomial._make(k), c) for k, c in self._terms.items())

    def _grlex_rows(self) -> tuple[list[str], list[tuple[int, list[int], int, int]]]:
        """Variable names in canonical order, and one row per term in ascending
        graded-lex order: (biased degree, biased exponents by name, key, coeff).

        The bias adds the same constant to every row's degree and to every
        entry, so it does not change the order.
        """
        npos, flat = _digits(self._terms)
        names = [_name(p) for p in _canonical_positions(npos)]
        digits = flat.tolist()
        rows = []
        for t, (key, coeff) in enumerate(self._terms.items()):
            d = digits[t * npos:(t + 1) * npos]
            rows.append((sum(d), d[:1] + d[1::2] + d[2::2], key, coeff))
        rows.sort()
        return names, rows

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in ascending canonical (graded-lex) order."""
        return [(Monomial._make(key), coeff) for _, _, key, coeff in self._grlex_rows()[1]]

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono.key, 0)

    def variables(self) -> set[str]:
        npos, flat = _digits(self._terms)
        return {_name(p) for p in _used_positions(flat, npos)}

    def constant_value(self) -> int:
        """The value of a constant polynomial; error if any variable remains."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and 0 in self._terms:
            return self._terms[0]
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
        items = other._terms.items()
        if scale != 1:
            items = ((k, scale * c) for k, c in items)
        return LaurentPoly._make(
            _accumulate(dict(self._terms), items), max(self._bound, other._bound)
        )

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
        return LaurentPoly._make({k: -c for k, c in self._terms.items()}, self._bound)

    def __mul__(self, other: object) -> LaurentPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self._terms or not rhs._terms:
            return LaurentPoly.zero()
        bound = _product_bound(self._terms, self._bound, rhs._terms, rhs._bound)
        small, big = sorted((self._terms, rhs._terms), key=len)
        rows = iter(small.items())
        k1, c1 = next(rows)
        out = {k1 + k2: c1 * c2 for k2, c2 in big.items()}
        get = out.get
        for k1, c1 in rows:
            for k2, c2 in big.items():
                key = k1 + k2
                c = get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
        return LaurentPoly._make(out, bound)

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
        """Simultaneously replace variables by monomials or 1.

        A target is one of three kinds: a Monomial (typically a single
        variable power such as ``Monomial.variable("q", 3)``), a bare variable
        name, or the integer 1 (erase the variable).  Anything else, 0
        included, raises ValueError: x := 0 is no ring map on Laurent
        polynomials, and on a true polynomial it is ``coefficient_of(x, 0)``.
        Unassigned variables pass through.

        A term's new key is its key plus, for each assigned position p with
        exponent e_p, ``e_p * (image key - key of the variable)``.
        """
        images: list[tuple[int, int]] = []  # (position, image key - variable key)
        image_keys: list[int] = []
        for var, target in assignments.items():
            pos = _position(var)
            if isinstance(target, Monomial):
                image = target.key
            elif isinstance(target, str):
                image = Monomial.variable(target).key
            elif isinstance(target, int) and target == 1:
                image = 0
            else:
                raise ValueError(f"unsupported substitution target for {var!r}: {target!r}")
            images.append((pos, image - (1 << (DIGIT_BITS * pos))))
            image_keys.append(image)

        npos, flat = _digits(self._terms)
        # |new exponent of v| <= bound * ([v unassigned] + sum of |image exponents of v|),
        # so a renaming keeps the bound.
        ipos, iflat = _digits(image_keys, npos)
        assigned = {pos for pos, _ in images}
        bound = self._bound * max(
            (p not in assigned) + sum(abs(d - _HALF) for d in iflat[p::ipos]) for p in range(ipos)
        )
        if bound > MAX_EXPONENT:
            bound = _substitution_bound(flat, npos, images)
        keys = list(self._terms)
        for pos, delta in images:
            if pos < npos and delta:
                keys = [k + (d - _HALF) * delta for k, d in zip(keys, flat[pos::npos])]
        return LaurentPoly._make(_accumulate({}, zip(keys, self._terms.values())), bound)

    def coefficient_of(self, var: str, exp: int) -> LaurentPoly:
        """The polynomial coefficient of ``var**exp`` (a poly in the rest)."""
        pos = _position(var)
        npos, flat = _digits(self._terms, pos + 1)
        shift = exp << (DIGIT_BITS * pos)
        out = {
            k - shift: c
            for (k, c), d in zip(self._terms.items(), flat[pos::npos])
            if d - _HALF == exp
        }
        return LaurentPoly._make(out, self._bound)

    # -- canonical text format ---------------------------------------------

    def to_text(self) -> str:
        """Canonical text: ascending graded-lex terms, e.g. ``1 - q^2``."""
        if not self._terms:
            return "0"
        names, rows = self._grlex_rows()
        chunks: list[str] = []
        for k, (_, exps, _, coeff) in enumerate(rows):
            mag = abs(coeff)
            pairs = [(v, d - _HALF) for v, d in zip(names, exps) if d != _HALF]
            if pairs:
                body = _factors_text(pairs) if mag == 1 else f"{mag}*{_factors_text(pairs)}"
            else:
                body = str(mag)
            if k == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append((" + " if coeff > 0 else " - ") + body)
        return "".join(chunks)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<LaurentPoly {self.to_text()}>"


def _key_of(mono: object) -> int:
    if not isinstance(mono, Monomial):
        raise TypeError(f"term key must be a Monomial, got {type(mono).__name__}")
    return mono.key


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
    terms: list[tuple[Monomial, int]] = []
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
        terms.append((Monomial(exps), coeff))
    return LaurentPoly(terms)


# -- matrices and determinants ----------------------------------------------


class PolyMatrix(namedtuple("PolyMatrix", "entries")):
    """A square matrix of Laurent polynomials."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[LaurentPoly, ...], ...]):
        if not entries:
            raise ValueError("matrix order must be at least 1")
        for row in entries:
            if len(row) != len(entries):
                raise ValueError("matrix must be square")
            for entry in row:
                if not isinstance(entry, LaurentPoly):
                    raise TypeError("matrix entries must be LaurentPoly values")
        return super().__new__(cls, entries)

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


def signed_permutations(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Every permutation of range(n) as ``(images, sign)``, sign (-1)^inversions.

    Each permutation of range(top + 1) is one of range(top) with ``top``
    inserted at some position k.  ``top`` exceeds the top - k entries after
    it, so the insertion adds top - k inversions and flips the sign when
    top - k is odd (Knuth, TAOCP 4A, 7.2.1.2).  This is the one order guard:
    n above ``DEFAULT_MAX_ORDER`` raises :class:`OrderTooLargeError` at once.
    """
    if n > DEFAULT_MAX_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds the bound {DEFAULT_MAX_ORDER}")
    perms: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for top in range(n):
        perms = [
            (perm[:k] + (top,) + perm[k:], -sign if (top - k) & 1 else sign)
            for perm, sign in perms
            for k in range(top + 1)
        ]
    return perms


def expand_det(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]] | None = None
) -> Iterator[tuple[int, int]]:
    """The ``(packed key, coefficient)`` terms of det(x^a[i][j]), or of
    det(x^a[i][j] - x^b[i][j]) when ``b`` is given, for :meth:`LaurentPoly.from_keys`.

    ``a`` and ``b`` are n x n tables of packed keys built from range-checked
    exponents (a key whose digit carried looks valid), and each sum of one
    entry per row must stay in range, as when row i holds only powers of
    x_i and t_i.  The order guard of :func:`signed_permutations` runs at the
    call.  With ``b``, each permutation's binomial product expands over the
    subsets S of rows taking their b entry, sign (-1)^|S|, doubling the term
    list once per row.
    """
    perms = signed_permutations(len(a))

    def terms() -> Iterator[tuple[int, int]]:
        for images, sign in perms:
            out = [(sum([row[s] for row, s in zip(a, images)]), sign)]
            for ra, rb, s in zip(a, b or (), images):
                delta = rb[s] - ra[s]
                out += [(k + delta, -c) for k, c in out]
            yield from out

    return terms()


def determinant(matrix: PolyMatrix) -> LaurentPoly:
    """Signed permutation expansion: sum over sigma of (-1)^inv(sigma) prod M[i][sigma(i)]."""
    n = matrix.n
    rows = matrix.entries
    total: dict[int, int] = {}
    bound = 0
    for perm, sign in signed_permutations(n):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        items = prod._terms.items()
        if sign < 0:
            items = ((k, -c) for k, c in items)
        _accumulate(total, items)
        bound = max(bound, prod._bound)
    return LaurentPoly._make(total, bound)


# -- exact division -----------------------------------------------------------


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring: returns q with num == q * den.

    Both operands are shifted by per-variable monomials so all exponents are
    non-negative, divided by multivariate long division under the graded-lex
    order, and the quotient is shifted back (so quotients may carry negative
    exponents).  Raises NotDivisibleError as soon as divisibility fails; its
    message gives the remainder's leading exponents in the dividend's
    (unshifted) Laurent coordinates.

    The operands' keys are decoded once, and each shifted exponent vector
    (over the variables either operand uses, in variable order) is packed
    into one int whose base ``2**bits`` digits are
    ``(total degree, e_1, ..., e_k)``, most significant first, so integer
    order is graded-lex order and multiplying monomials is adding keys.
    Every remainder term has total degree at most the larger total degree of
    the shifted operands (each step replaces the leading term by terms below
    it), and every digit is at most that bound, so with ``bits`` one more
    than its bit length no digit can carry.

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
    npos = max(_span(num._terms), _span(den._terms))
    _, num_flat = _digits(num._terms, npos)
    _, den_flat = _digits(den._terms, npos)
    used = set(_used_positions(num_flat, npos)) | set(_used_positions(den_flat, npos))
    universe = [p for p in _canonical_positions(npos) if p in used]

    def to_vectors(poly: LaurentPoly, flat: memoryview):
        """{shifted exponent vector over the universe: coeff}, and the
        per-variable minimum exponent (absence counting as 0) subtracted."""
        cols = [flat[p::npos] for p in universe]
        lows = [min(col) for col in cols]
        rows = zip(*cols) if cols else [()] * len(poly)
        vecs = (tuple(d - lo for d, lo in zip(row, lows)) for row in rows)
        return dict(zip(vecs, poly._terms.values())), [lo - _HALF for lo in lows]

    num_vecs, num_min = to_vectors(num, num_flat)
    den_vecs, den_min = to_vectors(den, den_flat)
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
            exps = {_name(p): e + lo for p, e, lo in zip(universe, lead, num_min)}
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

    shift = [a - b for a, b in zip(num_min, den_min)]
    bound = _checked_bound(
        max(
            (max(abs(min(col) + s), abs(max(col) + s)) for col, s in zip(zip(*quotient), shift)),
            default=0,
        )
    )
    units = [1 << (DIGIT_BITS * p) for p in universe]
    shift_key = sum(s * u for s, u in zip(shift, units))
    out = {
        shift_key + sum(e * u for e, u in zip(vec, units)): coeff
        for vec, coeff in quotient.items()
    }
    return LaurentPoly._make(out, bound)


def _binomial_parts(factor: LaurentPoly, caller: str) -> tuple[int, int]:
    """``(a, v)`` with ``factor == x^a * (1 - x^v)``: a is the key of the +1 term and
    a + v that of the -1 term.  Any other factor raises ValueError."""
    terms = factor._terms if isinstance(factor, LaurentPoly) else {}
    if len(terms) != 2 or sorted(terms.values()) != [-1, 1]:
        raise ValueError(f"{caller}: {factor!r} is not x^a - x^b with a != b")
    (k1, c1), (k2, _) = terms.items()
    a, b = (k1, k2) if c1 == 1 else (k2, k1)
    return a, b - a


def _divide_one_minus(terms: dict[int, int], v: int) -> dict[int, int]:
    """The quotient of ``terms`` by 1 - x^v, by a prefix sum along v in each coset.

    With d the lowest nonzero digit of v, at position p, every key k is
    ``c + t * v`` for the step index t = (digit p of k) // d and the coset id
    c = k - t * v.  The quotient r satisfies r[k] = terms[k] + r[k - v], so
    within a coset r is the running sum of the coefficients in step order,
    and it is finite exactly when the whole coset sums to 0.  One sweep over
    the steps present keeps every coset's running sum by id and writes it out
    at each step up to the next step with terms.  Each quotient key lies
    between two keys of one coset, so its digits stay within those of
    ``terms``.
    """
    _, v_flat = _digits((v,))
    pos = next(p for p, d in enumerate(v_flat) if d != _HALF)
    step = v_flat[pos] - _HALF
    shift = DIGIT_BITS * pos
    bias = _HALF * (((1 << (shift + DIGIT_BITS)) - 1) // (_BASE - 1))  # digits 0..pos
    mask = _BASE - 1
    by_step: dict[int, list[tuple[int, int]]] = {}
    get = by_step.get
    for item in terms.items():
        t = ((((item[0] + bias) >> shift) & mask) - _HALF) // step
        bucket = get(t)
        if bucket is None:
            by_step[t] = [item]
        else:
            bucket.append(item)
    order = sorted(by_step)
    out: dict[int, int] = {}
    runs: dict[int, int] = {}  # coset id -> running sum, for the open cosets
    run = runs.get
    for t, t_next in zip(order, order[1:] + [order[-1] + 1]):
        tv = t * v
        for key, coeff in by_step[t]:
            cid = key - tv
            c = run(cid, 0) + coeff
            if c:
                runs[cid] = c
            else:
                del runs[cid]
        if runs:
            for _ in range(t_next - t):
                out.update({cid + tv: c for cid, c in runs.items()})
                tv += v
    if runs:
        cid, total = next(iter(runs.items()))
        top = next(cid + t * v for t in reversed(order) if cid + t * v in terms)
        raise NotDivisibleError(
            f"nonzero remainder: dividing by {LaurentPoly.from_keys([(0, 1), (v, -1)])}, "
            f"the coset of the dividend term with exponents "
            f"{Monomial._make(top).exponents()} sums to {total}"
        )
    return out


def divide_binomials(num: LaurentPoly, factors: Iterable[LaurentPoly]) -> LaurentPoly:
    """Exact division of ``num`` by the product of ``factors``, one factor at a time.

    Each factor must be a binomial x^a - x^b with coefficients +1 and -1
    (``a != b``); anything else raises ValueError.  Write it as
    x^a (1 - x^v) with v = b - a.  The division by 1 - x^v is a prefix sum
    along v inside each coset k + Z*v of the keys, exact if and only if every
    coset's coefficients sum to 0; otherwise :class:`NotDivisibleError` names
    a term of that step's dividend by its Laurent exponents.  A product of
    factors divides ``num`` only if each partial product does, so every step
    stays a Laurent polynomial whose exponents lie within those of ``num``.
    The units x^a are divided out once, at the end; a quotient exponent
    outside ``±MAX_EXPONENT`` raises :class:`ExponentRangeError`.
    """
    terms = num._terms
    shift, shift_bound = 0, 0  # the product of the x^a, as a key
    for factor in factors:
        a, v = _binomial_parts(factor, "divide_binomials")
        shift_bound = _product_bound((shift,), shift_bound, (a,), _bound((a,)))
        shift += a
        if terms:
            terms = _divide_one_minus(terms, v)
    if not shift:
        return LaurentPoly._make(terms, num._bound)
    bound = _product_bound(terms, num._bound, (-shift,), shift_bound)
    return LaurentPoly._make({k - shift: c for k, c in terms.items()}, bound)


def times_binomials(poly: LaurentPoly, factors: Iterable[LaurentPoly]) -> LaurentPoly:
    """``poly`` times the product of ``factors``, one factor at a time.

    The mirror of :func:`divide_binomials`: each factor must be a binomial
    x^a - x^b with coefficients +1 and -1 (``a != b``); anything else raises
    ValueError.  Write it as x^a (1 - x^v) with v = b - a.  Multiplying by
    1 - x^v copies the terms and subtracts each coefficient once more at its
    key plus v, so a step costs one dict copy and len(terms) updates.  The
    units x^a are multiplied in once, at the end.  Before each step the
    exponents it can reach are bounded by ``_product_bound`` (the sum of
    bounds, exact past ``MAX_EXPONENT``), so no key ever carries: a step or
    the final shift whose exponents leave ``±MAX_EXPONENT`` raises
    :class:`ExponentRangeError`, even when the units would bring the product
    back in range.
    """
    terms, bound = poly._terms, poly._bound
    shift, shift_bound = 0, 0  # the product of the x^a, as a key
    for factor in factors:
        a, v = _binomial_parts(factor, "times_binomials")
        shift_bound = _product_bound((shift,), shift_bound, (a,), _bound((a,)))
        shift += a
        if not terms:
            continue
        bound = _product_bound(terms, bound, (0, v), _bound((v,)))
        out = dict(terms)
        get = out.get
        for key, coeff in terms.items():
            key += v
            coeff = get(key, 0) - coeff
            if coeff:
                out[key] = coeff
            else:
                del out[key]
        terms = out
    if not terms:
        return LaurentPoly.zero()
    if shift:
        bound = _product_bound(terms, bound, (shift,), shift_bound)
        terms = {k + shift: c for k, c in terms.items()}
    return LaurentPoly._make(terms, bound)


def _bn_dominant(poly: LaurentPoly, n: int, npos: int, role: str) -> tuple[int, dict]:
    """The centre C of ``poly`` in x1..xn and its dominant part.

    C is min + max exponent of each x_i, the same for every i (otherwise
    ArithmeticError).  The dominant part maps g = 2e - C, for each term x^e
    whose g is strictly decreasing and positive, to the coefficient; the
    candidate terms are narrowed one digit comparison at a time.  A term in
    q or some t_i raises ValueError.
    """
    if not poly:
        return 0, {}
    _, flat = _digits(poly._terms, npos)
    zeros = _HALF.to_bytes(DIGIT_BITS // 8, sys.byteorder) * len(poly)
    if any(flat[p::npos].tobytes() != zeros for p in (0, *range(1, npos, 2))):
        raise ValueError(f"divide_bn_alternants: the {role} is not a polynomial in x1..x{n} only")
    cols = [flat[2 * i::npos].tolist() for i in range(1, n + 1)]
    centres = {min(col) + max(col) - 2 * _HALF for col in cols}
    if len(centres) > 1:
        raise ArithmeticError(
            f"divide_bn_alternants: the {role} has no common centre "
            f"(min + max exponents {sorted(centres)})"
        )
    centre = centres.pop() if centres else 0
    off = 2 * _HALF + centre  # g = 2 * digit - off, and g > 0 iff digit > off // 2
    keep = [t for t, d in enumerate(cols[-1]) if d > off // 2] if cols else [0]
    for hi, lo in zip(cols, cols[1:]):
        keep = [t for t in keep if hi[t] > lo[t]]
    coeffs = list(poly._terms.values())
    return centre, {tuple([2 * col[t] - off for col in cols]): coeffs[t] for t in keep}


def _check_alternant(poly: LaurentPoly, n: int, centre: int, dominant: dict, role: str) -> None:
    """Raise ArithmeticError unless ``poly`` is the sum of c * A_g over its dominant
    part, A_g = det(x_i^{(C+g_j)/2} - x_i^{(C-g_j)/2}) expanded by :func:`expand_det`.

    The |g_j| are distinct and nonzero, so A_g has 2^n n! distinct terms, and
    distinct dominant g have disjoint orbits: ``poly`` is that sum exactly when
    it has that many terms and each expanded term matches its coefficient.
    """
    units = unit_keys("x", n)
    get = poly._terms.get
    ok = len(poly) == len(dominant) * 2**n * math.factorial(n)
    for g, c in dominant.items():
        if not ok:
            break
        a = [[(centre + gj) // 2 * u for gj in g] for u in units]
        b = [[(centre - gj) // 2 * u for gj in g] for u in units]
        ok = all([get(k) == c * s for k, s in expand_det(a, b)])
    if not ok:
        raise ArithmeticError(
            f"divide_bn_alternants: the {role} is not the sum of the type-B alternants "
            f"of its {len(dominant)} dominant term(s) about the centre {centre}"
        )


def _signed_orbit(mu: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct signed permutations of ``mu``, ``mu`` itself first."""
    return [
        nu
        for perm in dict.fromkeys(itertools.permutations(mu))
        for nu in itertools.product(*[(v, -v) if v else (0,) for v in perm])
    ]


def divide_bn_alternants(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division of two type-B_n alternants in x1..xn, solved on dominant terms.

    In doubled centred coordinates g = 2e - C, with C the operand's centre
    (min + max exponent of every x_i), a type-B alternant is
    A_g = det(x_i^{(C+g_j)/2} - x_i^{(C-g_j)/2}) = sum over signed
    permutations w of sign(w) x^w(g), and its one term with g strictly
    decreasing and positive (dominant) is x^g itself.  Both operands are
    first checked to equal the sum of c * A_g over their dominant parts,
    re-expanded by :func:`expand_det` (ArithmeticError otherwise).  ``den``
    must have exactly one dominant term c_rho x^rho (ValueError otherwise).

    The quotient chi is then invariant under signed permutations, a sum of
    orbit sums chi_mu m_mu, and m_mu * A_rho is the sum of the straightened
    A_{nu+rho} over nu in the orbit of mu (flip negative entries, sort, take
    the sign; a zero or repeated |entry| vanishes).  Each A_{nu+rho} with
    nu != mu lies below mu + rho in dominance order, so a triangular solve
    recovers chi: take the lex-largest remaining dominant term mu + rho of
    ``num``, record chi_mu = its coefficient / c_rho, and subtract
    chi_mu * c_rho * m_mu * A_rho.  A leading mu that is not weakly
    decreasing and >= 0, or a coefficient that c_rho does not divide, raises
    :class:`NotDivisibleError`.  When nothing remains, chi * den has
    ``num``'s dominant part and both are alternants, so chi * den == num
    (Fulton & Harris, Representation Theory, section 24).  The work is the
    size of the operands and the quotient.  chi is expanded over its orbits
    with every exponent shifted by (C_num - C_den) / 2; a quotient exponent
    outside ``±MAX_EXPONENT`` raises :class:`ExponentRangeError`.
    """
    npos = max(_span(num._terms), _span(den._terms))
    n = (npos - 1) // 2
    den_centre, den_dom = _bn_dominant(den, n, npos, "divisor")
    if len(den_dom) != 1:
        raise ValueError(
            f"divide_bn_alternants: the divisor has {len(den_dom)} dominant terms, not one"
        )
    num_centre, num_dom = _bn_dominant(num, n, npos, "dividend")
    _check_alternant(den, n, den_centre, den_dom, "divisor")
    _check_alternant(num, n, num_centre, num_dom, "dividend")
    ((rho, c_rho),) = den_dom.items()

    residual = dict(num_dom)
    heap = [tuple([-v for v in g]) for g in residual]
    heapq.heapify(heap)
    chi: list[tuple[list[tuple[int, ...]], int]] = []  # (orbit of mu, chi_mu)
    get = residual.get
    while heap:
        lead = tuple([-v for v in heapq.heappop(heap)])
        coeff = get(lead)
        if coeff is None:
            continue
        mu = tuple(map(operator.sub, lead, rho))
        if not all(map(operator.ge, mu, mu[1:] + (0,))) or coeff % c_rho:
            exps = {f"x{i}": (g + num_centre) // 2 for i, g in enumerate(lead, 1)}
            raise NotDivisibleError(
                f"nonzero remainder: the leading remaining dividend term has exponents "
                f"{exps} and coefficient {coeff}; the divisor's leading dominant term, "
                f"coefficient {c_rho}, does not divide it"
            )
        orbit = _signed_orbit(mu)
        chi.append((orbit, coeff // c_rho))
        for nu in orbit:
            gamma = list(map(operator.add, nu, rho))
            mags = [abs(v) for v in gamma]
            if 0 in mags or len(set(mags)) < n:
                continue
            flips = sum([v < 0 for v in gamma])
            flips += sum([a < b for i, a in enumerate(mags) for b in mags[i + 1:]])
            g = tuple(sorted(mags, reverse=True))
            c = get(g, 0) - (coeff if flips % 2 == 0 else -coeff)
            if c:
                if g not in residual:
                    heapq.heappush(heap, tuple([-v for v in g]))
                residual[g] = c
            else:
                del residual[g]

    shift = num_centre - den_centre
    top = max((max(orbit[0], default=0) for orbit, _ in chi), default=0)  # the largest mu_1
    bound = _checked_bound((top + abs(shift)) // 2)
    units = unit_keys("x", n)
    out = {
        sum([(v + shift) // 2 * u for v, u in zip(nu, units)]): c
        for orbit, c in chi
        for nu in orbit
    }
    return LaurentPoly._make(out, bound)
