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
:func:`expand_det` adds the packed keys of monomial or binomial entries
into terms, and :func:`binomial_det` builds every det(x_i^{a_j} - x_i^{b_j})
on it; :func:`determinant`, which expands rows of polynomials over
permutations, is the tests' reference.
:class:`Monomial` is the boundary value that wraps one key.  It has no
arithmetic: every product and power is a :class:`LaurentPoly` operation,
so one exponent check guards them all.  Keys are decoded only at the
boundary (canonical text, ``Monomial.pairs``, substitution and the entry
and exit of :func:`exact_div`), in bulk: every digit is
biased to an unsigned value, and all keys of one polynomial are read
through one ``memoryview``.  :func:`divide_binomials` and
``LaurentPoly.powers`` read only the one digit they step along or split
by, with a shift and a mask per key; :func:`from_powers` sums the parts of
such a split under an image of the variable, so several substitutions for
one variable read the keys once.  :func:`swap_images` decodes a
polynomial's keys once and gives its images under a chain of index swaps
x_a <-> x_b, t_a <-> t_b, one pass over the keys per swap.

Variable names come from the fixed namespace ``q``, ``t1, t2, ...``,
``x1, x2, ...`` (in that order).  The canonical term order is graded
lexicographic: total degree first, then the exponent vector compared
variable by variable in that order.  Canonical text output lists terms in
ascending order, so q-series read naturally: ``1 + q + q^3 + q^4``.

Exact division takes one of three routes.  :func:`divide_alternants`
divides alternants of the Weyl group S_n (type A) or B_n (type B) given by
their dominant weights, as the bialternant a_{lambda+delta} / a_delta and
the theorem's numerator over the Weyl determinant D_n are: the quotient is
one triangular solve on weights, over orbits stepped by next-permutation,
and no determinant is expanded.  :func:`divide_binomials` is the route of
eq6 and the q-ratios: each of those divisors is a product of binomials
x^a - x^b (1 - prod x_i, prod (1 - q^e)), and dividing by one of them is a
prefix sum along v = b - a inside each coset k + Z*v of the packed keys,
exact if and only if every coset sums to 0.  :func:`exact_div` divides by
any divisor and no check calls it: it is plain long division under the
graded-lex order on exponent tuples, the general reference both fast routes
are tested against.

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
import operator
import struct
import sys
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
    "binomial_det",
    "determinant",
    "divide_alternants",
    "divide_binomials",
    "exact_div",
    "expand_det",
    "from_powers",
    "signed_permutations",
    "swap_images",
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
    """Largest absolute exponent over the keys (0 for none)."""
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


def _shifted_bound(parts: Mapping[int, LaurentPoly], shift: int) -> int:
    """The exact largest |exponent| of the keys ``k + e * shift``, k a key of
    ``parts[e]``; raises :class:`ExponentRangeError` only if some exponent leaves
    the range."""
    parts = {e: part._terms for e, part in parts.items() if part._terms}
    npos, image = _digits((shift,), max(map(_span, parts.values()), default=1))
    bound = 0
    for e, terms in parts.items():
        _, flat = _digits(terms, npos)
        for p in range(npos):
            col, c = flat[p::npos], e * (image[p] - _HALF)
            bound = max(bound, max(col) - _HALF + c, _HALF - min(col) - c)
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
            merged[pos] = merged.get(pos, 0) + operator.index(exp)
        self.key = sum(
            _checked_exponent(e, p) << (DIGIT_BITS * p) for p, e in merged.items()
        )

    @classmethod
    def _make(cls, key: int) -> Monomial:
        mono = object.__new__(cls)
        mono.key = key
        return mono

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> Monomial:
        pos = _position(name)
        return cls._make(_checked_exponent(operator.index(exp), pos) << (DIGIT_BITS * pos))

    @property
    def pairs(self) -> tuple[tuple[str, int], ...]:
        """(variable, exponent) pairs with nonzero exponent, in variable order."""
        npos, flat = _digits((self.key,))
        return tuple(
            (_name(p), flat[p] - _HALF) for p in _canonical_positions(npos) if flat[p] != _HALF
        )

    def exponents(self) -> dict[str, int]:
        return dict(self.pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def factors_text(self) -> str:
        """Render as ``q^2*x1`` (or ``1`` for the empty monomial)."""
        return _factors_text(self.pairs)

    def __repr__(self) -> str:
        return f"Monomial({self.factors_text()})"


class LaurentPoly:
    """Sparse Laurent polynomial with exact integer coefficients.

    Instances are immutable by convention; all operations return new values,
    so builders may share one value.  ``_bound`` is at least the largest
    absolute exponent of any term.
    """

    __slots__ = ("_terms", "_bound")

    def __init__(
        self,
        terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _accumulate({}, ((_key_of(m), operator.index(c)) for m, c in items))
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
        return cls._make(_accumulate({}, [(0, operator.index(value))]), 0)

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> LaurentPoly:
        return cls._make({Monomial.variable(name, exp).key: 1}, abs(operator.index(exp)))

    @classmethod
    def from_keys(cls, items: Iterable[tuple[int, int]], bound: int | None = None) -> LaurentPoly:
        """Sum of ``(packed key, coefficient)`` pairs.

        Each key must hold every exponent within ``±MAX_EXPONENT``, as a sum
        of :func:`unit_keys` entries times such exponents (one per variable)
        does; this builds terms without naming their variables.  A caller
        that knows a bound on every |exponent| of the keys passes it as
        ``bound`` (range-checked) and no key is decoded; otherwise every
        key is read for the exact bound.
        """
        terms = _accumulate({}, items)
        return cls._make(terms, _bound(terms) if bound is None else _checked_bound(bound))

    @classmethod
    def term(cls, mono: Monomial, coeff: int = 1) -> LaurentPoly:
        return cls._make(_accumulate({}, [(mono.key, operator.index(coeff))]), _bound((mono.key,)))

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
        exp = operator.index(exp)
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
        polynomials, and on a true polynomial it is ``powers(x).get(0)``.
        Unassigned variables pass through.

        A term's new key is its key plus, for each assigned position p with
        exponent e_p, ``e_p * (image key - key of the variable)``.
        """
        images: list[tuple[int, int]] = []  # (position, image key - variable key)
        image_keys: list[int] = []
        for var, target in assignments.items():
            pos = _position(var)
            image = _target_key(target, var)
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

    def powers(self, var: str) -> dict[int, LaurentPoly]:
        """``{e: coefficient of var**e}``, each a polynomial in the other variables,
        over the exponents e that occur, reading only ``var``'s digit of each key,
        with a shift and a mask.

        :func:`from_powers` puts the parts back together under any image of
        ``var``, so one split serves several substitutions for ``var``.
        """
        shift = DIGIT_BITS * _position(var)
        bias = _HALF * (((1 << (shift + DIGIT_BITS)) - 1) // (_BASE - 1))  # digits 0..pos
        mask = _BASE - 1
        groups: dict[int, dict[int, int]] = {}
        get = groups.get
        for key, coeff in self._terms.items():
            e = (((key + bias) >> shift) & mask) - _HALF
            part = get(e)
            if part is None:
                part = groups[e] = {}
            part[key - (e << shift)] = coeff
        return {e: LaurentPoly._make(part, self._bound) for e, part in groups.items()}

    # -- canonical text format ---------------------------------------------

    def to_text(self) -> str:
        """Canonical text: ascending graded-lex terms, e.g. ``1 - q^2``."""
        if not self._terms:
            return "0"
        # One row per term, (biased degree, biased exponents by name, coeff),
        # sorted: the bias adds the same constant to every row's degree and to
        # every entry, so it does not change the order.
        npos, flat = _digits(self._terms)
        names = [_name(p) for p in _canonical_positions(npos)]
        digits = flat.tolist()
        rows = []
        for t, coeff in enumerate(self._terms.values()):
            d = digits[t * npos:(t + 1) * npos]
            rows.append((sum(d), d[:1] + d[1::2] + d[2::2], coeff))
        rows.sort()
        chunks: list[str] = []
        for k, (_, exps, coeff) in enumerate(rows):
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


def _target_key(target: object, var: str | None = None) -> int:
    """The key of a substitution target: a Monomial, a variable name, or 1."""
    if isinstance(target, Monomial):
        return target.key
    if isinstance(target, str):
        return Monomial.variable(target).key
    if isinstance(target, int) and target == 1:
        return 0
    where = "" if var is None else f" for {var!r}"
    raise ValueError(f"unsupported substitution target{where}: {target!r}")


def from_powers(parts: Mapping[int, LaurentPoly], image: Monomial | str | int) -> LaurentPoly:
    """Sum over e of image**e * parts[e], in one accumulation of shifted keys.

    ``image`` takes the targets of :meth:`LaurentPoly.substitute`, so with
    ``parts = p.powers(v)`` this is ``p.substitute({v: image})``, and
    ``from_powers(p.powers(v), v) == p``.  The bound is the parts' bound plus
    the largest |e| times the image's; past ``MAX_EXPONENT`` it is made exact,
    from each part's smallest and largest digit per position, and raises
    :class:`ExponentRangeError` before any key is built if some exponent
    would leave the range.
    """
    shift = _target_key(image)
    bound = max((part._bound for part in parts.values()), default=0) + max(
        map(abs, parts), default=0
    ) * _bound((shift,))
    if bound > MAX_EXPONENT:
        bound = _shifted_bound(parts, shift)
    out: dict[int, int] = {}
    get = out.get
    for e, part in parts.items():
        step = e * shift
        for key, coeff in part._terms.items():
            key += step
            coeff += get(key, 0)
            if coeff:
                out[key] = coeff
            else:
                del out[key]
    return LaurentPoly._make(out, bound)


def swap_images(poly: LaurentPoly, swaps: Iterable[tuple[int, int]]) -> Iterator[list[int]]:
    """The keys of ``poly``, then of its image under each successive renaming.

    Swap (a, b) renames x_a <-> x_b and t_a <-> t_b in the previous image, so
    the r-th list after the first is ``poly`` under the first r swaps
    composed.  Every list holds its image's keys in the order of
    ``poly.key_terms()``: a renaming permutes each key's digits, so it is
    injective on keys, keeps the coefficients and the bound, and needs no
    range check.  ``poly``'s keys are decoded once, into one x and one t
    digit column per index; ``held[i]`` is the index whose columns variable
    i holds in the current image, and swap (a, b) adds (e_b - e_a)(u_a - u_b)
    to each key, for the x and for the t digits e and unit keys u of a and b.
    An index below 1 raises ValueError at the call.
    """
    swaps = [(operator.index(a), operator.index(b)) for a, b in swaps]
    if min(map(min, swaps), default=1) < 1:
        raise ValueError(f"swap_images: variable indices start at 1, got {swaps}")
    top = max(map(max, swaps), default=0)
    npos, flat = _digits(poly._terms, 2 * top + 1)
    xcols = [flat[p::npos].tolist() for p in range(0, 2 * top + 1, 2)]  # x_i at 2i
    tcols = [[]] + [flat[p::npos].tolist() for p in range(1, 2 * top + 1, 2)]  # t_i at 2i - 1
    xu, tu = (0, *unit_keys("x", top)), (0, *unit_keys("t", top))

    def images() -> Iterator[list[int]]:
        keys = list(poly._terms)
        yield keys
        held = list(range(top + 1))
        for a, b in swaps:
            ha, hb = held[a], held[b]
            dx, dt = xu[a] - xu[b], tu[a] - tu[b]
            keys = [k + (xb - xa) * dx + (tb - ta) * dt for k, xa, xb, ta, tb
                    in zip(keys, xcols[ha], xcols[hb], tcols[ha], tcols[hb])]
            held[a], held[b] = hb, ha
            yield keys

    return images()


# -- matrices and determinants ----------------------------------------------


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
    list once per row; a zero factor x^e - x^e drops the permutation there.
    """
    perms = signed_permutations(len(a))

    def terms() -> Iterator[tuple[int, int]]:
        for images, sign in perms:
            out = [(sum([row[s] for row, s in zip(a, images)]), sign)]
            for ra, rb, s in zip(a, b or (), images):
                delta = rb[s] - ra[s]
                if not delta:
                    break
                out += [(k + delta, -c) for k, c in out]
            else:
                yield from out

    return terms()


def binomial_det(names: Sequence[str], a: Sequence[int], b: Sequence[int]) -> LaurentPoly:
    """det(v_i^{a_j} - v_i^{b_j}) for the distinct variables v_i of ``names`` and one
    (a_j, b_j) per name (ValueError otherwise), by :func:`expand_det` on range-checked
    :meth:`Monomial.variable` keys.  Row i holds only v_i, so each exponent of a
    term is an a_j or b_j: the largest |a_j|, |b_j| bounds them with no key decode."""
    if len(set(names)) != len(names) or not len(a) == len(b) == len(names):
        raise ValueError(f"binomial_det: want distinct names, one per exponent pair: {names}")
    ta, tb = ([[Monomial.variable(v, e).key for e in exps] for v in names] for exps in (a, b))
    bound = max(map(abs, [*a, *b]), default=0)
    return LaurentPoly._make(_accumulate({}, expand_det(ta, tb)), bound)


def determinant(rows: Iterable[Iterable[LaurentPoly | int]]) -> LaurentPoly:
    """Signed permutation expansion: sum over sigma of (-1)^inv(sigma) prod M[i][sigma(i)].

    Int entries are constants; an empty or non-square matrix raises ValueError."""
    rows = [[e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e) for e in row]
            for row in rows]
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ValueError("determinant: want a square matrix of order at least 1")
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

    The operands' keys are decoded once into exponent tuples over the
    variables either operand uses, in variable order.  The remainder maps
    tuple to coefficient, and a heap of ``(-degree, negated tuple)`` entries
    gives its leading term.  A tuple is pushed when it first enters the
    remainder; one whose coefficient cancelled to 0 stays until it is popped.
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

    remainder, num_min = to_vectors(num, num_flat)
    den_rest, den_min = to_vectors(den, den_flat)
    den_lead = max(den_rest, key=lambda vec: (sum(vec), vec))
    # The divisor's leading term cancels the remainder's by construction.
    den_lead_coeff = den_rest.pop(den_lead)
    den_rest = [(vec, sum(vec) - sum(den_lead), c) for vec, c in den_rest.items()]

    heap = [(-sum(vec), tuple(map(operator.neg, vec))) for vec in remainder]
    heapq.heapify(heap)
    get = remainder.get
    quotient: dict[tuple[int, ...], int] = {}
    while heap:
        neg_deg, neg_lead = heapq.heappop(heap)
        lead = tuple(map(operator.neg, neg_lead))
        lead_coeff = remainder.pop(lead)
        if not lead_coeff:
            continue
        q_vec = tuple(map(operator.sub, lead, den_lead))
        if any(e < 0 for e in q_vec) or lead_coeff % den_lead_coeff:
            exps = {_name(p): e + lo for p, e, lo in zip(universe, lead, num_min)}
            raise NotDivisibleError(f"nonzero remainder: leading term has exponents {exps}")
        q_coeff = lead_coeff // den_lead_coeff
        quotient[q_vec] = q_coeff
        for d_vec, d_deg, d_coeff in den_rest:
            t_vec = tuple(map(operator.add, q_vec, d_vec))
            c = get(t_vec)
            if c is None:
                remainder[t_vec] = -q_coeff * d_coeff
                heapq.heappush(heap, (neg_deg - d_deg, tuple(map(operator.neg, t_vec))))
            else:
                remainder[t_vec] = c - q_coeff * d_coeff

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


def _orbit(mu: Sequence[int], signed: bool) -> Iterator[tuple[int, ...]]:
    """The distinct permutations of the weakly decreasing ``mu``, ``mu`` first, by
    next-permutation in decreasing lex order (Knuth, TAOCP 4A, 7.2.1.2, Algorithm L);
    with ``signed``, each with every sign choice on its nonzero entries."""
    a, n = list(mu), len(mu)
    while True:
        yield from (itertools.product(*[(v, -v) if v else (0,) for v in a]) if signed
                    else (tuple(a),))
        j = n - 2
        while j >= 0 and a[j] <= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[k] >= a[j]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def divide_alternants(
    num: Mapping[tuple[int, ...], int], rho: Sequence[int], group: str, shift: int = 0
) -> LaurentPoly:
    """sum c * A_g over ``num``'s (g, c), divided exactly by A_rho, in x1..xn.

    ``group`` is the Weyl group, ``"A"`` for S_n or ``"B"`` for B_n, and A_g is
    the sum over its elements w of sign(w) x^w(g), for n-tuples g.  For A that is
    det(x_i^{g_j}), and g is dominant when strictly decreasing.  For B weights
    are doubled centred coordinates, A_g is det(x_i^{(C+g_j)/2} - x_i^{(C-g_j)/2})
    about its centre C, and g is dominant when strictly decreasing and positive.
    ``num`` is the dividend's dominant part, and ``rho`` must be dominant
    (ValueError otherwise, as for another group or a nonzero ``shift`` for A).

    The quotient chi is invariant, a sum of orbit sums chi_mu m_mu, and
    m_mu * A_rho is the sum of the straightened A_{nu+rho} over nu in the orbit
    of mu (for B flip negative entries; sort and take the sign; a repeated
    entry, and for B a zero, vanishes).  Each A_{nu+rho} with nu != mu lies
    below mu + rho in dominance order, so a triangular solve recovers chi: take
    the lex-largest remaining weight mu + rho, record chi_mu = its coefficient,
    and subtract chi_mu * m_mu * A_rho.  A leading mu that is not weakly
    decreasing (and, for B, >= 0) raises :class:`NotDivisibleError` (Fulton &
    Harris, Representation Theory, section 24; Macdonald, Symmetric Functions
    and Hall Polynomials, I.3 and I.6).  The work is the size of the quotient
    plus the orbits it subtracts.  Each weight nu of chi becomes the exponents
    nu for A and (nu_i + shift) / 2 for B, with ``shift`` the dividend's centre
    minus the divisor's; an odd nu_i + shift raises ValueError, and an exponent
    outside ``±MAX_EXPONENT`` raises :class:`ExponentRangeError`.
    """
    signed = {"A": False, "B": True}.get(group)
    if signed is None or shift and not signed:
        raise ValueError(f"divide_alternants: expected 'A' with shift 0 or 'B', got {group!r}")
    rho, n = tuple(rho), len(rho)
    floor = (0,) if signed else ()  # B weights are positive: compare the last entry to 0
    residual = {tuple(g): c for g, c in num.items() if c}
    if not all(map(operator.gt, rho, rho[1:] + floor)) or any(len(g) != n for g in residual):
        raise ValueError(
            f"divide_alternants: the divisor weight {rho} is not dominant, "
            f"or a dividend weight is not of its length"
        )
    # chi is invariant, so x1 takes all its exponents; each mu + rho is dominated by a
    # dividend weight, so mu_1 <= hi and, for A, mu_n >= lo (B's orbits flip signs)
    hi = max([g[0] - rho[0] for g in residual], default=0) if n else 0
    lo = -hi if signed else min([g[-1] - rho[-1] for g in residual], default=0) if n else 0
    ends = [(v + shift) // 2 for v in (lo, hi)] if signed else [lo, hi]
    bound = max([abs(_checked_exponent(e, _position("x1"))) for e in ends])
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
        if not all(map(operator.ge, mu, mu[1:] + floor)):
            raise NotDivisibleError(
                f"nonzero remainder: the leading remaining dividend weight {lead} "
                f"(coefficient {coeff}) minus the divisor weight {rho} is not dominant"
            )
        if signed and any([(v + shift) & 1 for v in mu]):
            raise ValueError(f"divide_alternants: the weight {mu} + {shift} has an odd entry")
        orbit = list(_orbit(mu, signed))
        chi.append((orbit, coeff))
        for nu in orbit:
            gamma = list(map(operator.add, nu, rho))
            mags = [abs(v) for v in gamma] if signed else gamma
            if signed and 0 in mags or len(set(mags)) < n:
                continue
            flips = sum([v < 0 for v in gamma]) if signed else 0
            flips += sum([a < b for i, a in enumerate(mags) for b in mags[i + 1:]])
            g = tuple(sorted(mags, reverse=True))
            c = get(g, 0) - (coeff if flips % 2 == 0 else -coeff)
            if c:
                if g not in residual:
                    heapq.heappush(heap, tuple([-v for v in g]))
                residual[g] = c
            else:
                del residual[g]

    units = unit_keys("x", n)  # for B, a key is sum((nu_i + shift) * units_i) / 2, exactly
    offset, scale = (shift * sum(units), 2) if signed else (0, 1)
    out = {(sum(map(operator.mul, nu, units)) + offset) // scale: c
           for orbit, c in chi for nu in orbit}
    return LaurentPoly._make(out, bound)
