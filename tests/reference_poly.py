"""The sorted-pairs monomial arithmetic that the packed-int ring replaced,
the nested-loop packed-key product that ``LaurentPoly.__mul__`` used before
it looped over the smaller operand, and the inversion count that gave
determinant signs before ``signed_permutations``, plus
``largest_exponent``, the oracle for a polynomial's exponent bound.

Kept only as a reference for differential tests.  A monomial is a tuple of
``(variable, exponent)`` pairs with no zero exponent, sorted in the variable
order q < t1 < t2 < ... < x1 < x2 < ...; a polynomial is a dict from such
tuples to nonzero ints.  The bodies are the earlier ``Monomial`` and
``LaurentPoly`` code (the pair merge in the monomial product, substitution by
Monomial/str/1 targets, ``coefficient_of`` and the graded-lex comparison
behind the canonical text), and they read and build schurbox polynomials
only through the public API.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping, Sequence

from schurbox.poly import LaurentPoly, Monomial

Pairs = tuple[tuple[str, int], ...]
RefPoly = dict[Pairs, int]


def var_key(name: str) -> tuple[str, int]:
    """Sort key fixing the variable order q < t1 < t2 < ... < x1 < x2 < ..."""
    return ("q", 0) if name == "q" else (name[0], int(name[1:]))


def sorted_pairs(exponents: Iterable[tuple[str, int]]) -> Pairs:
    return tuple(sorted(((v, e) for v, e in exponents if e), key=lambda p: var_key(p[0])))


def from_poly(poly: LaurentPoly) -> RefPoly:
    return {sorted_pairs(mono.exponents().items()): coeff for mono, coeff in poly.terms()}


def to_poly(ref: RefPoly) -> LaurentPoly:
    return LaurentPoly((Monomial(pairs), coeff) for pairs, coeff in ref.items())


def _add_term(out: RefPoly, mono: Pairs, coeff: int) -> None:
    c = out.get(mono, 0) + coeff
    if c:
        out[mono] = c
    elif mono in out:
        del out[mono]


def mono_mul(a: Pairs, b: Pairs) -> Pairs:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for v, e in b:
        ne = merged.get(v, 0) + e
        if ne:
            merged[v] = ne
        else:
            del merged[v]
    return sorted_pairs(merged.items())


def add(a: RefPoly, b: RefPoly, scale: int = 1) -> RefPoly:
    out = dict(a)
    for mono, coeff in b.items():
        _add_term(out, mono, scale * coeff)
    return out


def mul(a: RefPoly, b: RefPoly) -> RefPoly:
    out: RefPoly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _add_term(out, mono_mul(m1, m2), c1 * c2)
    return out


def nested_loop_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The packed-key product with ``a``'s terms in the outer loop and ``b``'s in
    the inner one, keys added and sums of 0 dropped, for any operand sizes."""
    out: dict[int, int] = {}
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            key = m1.key + m2.key
            c = out.get(key, 0) + c1 * c2
            if c:
                out[key] = c
            else:
                del out[key]
    return LaurentPoly.from_keys(out.items())


def power(a: RefPoly, exp: int) -> RefPoly:
    out: RefPoly = {(): 1}
    for _ in range(exp):
        out = mul(out, a)
    return out


def substitute(a: RefPoly, assignments: Mapping[str, Monomial | str | int]) -> RefPoly:
    norm: dict[str, Pairs] = {}
    for var, target in assignments.items():
        if isinstance(target, Monomial):
            norm[var] = sorted_pairs(target.exponents().items())
        elif isinstance(target, str):
            norm[var] = ((target, 1),)
        elif isinstance(target, int) and target == 1:
            norm[var] = ()
        else:
            raise ValueError(f"unsupported substitution target for {var!r}: {target!r}")

    out: RefPoly = {}
    for mono, coeff in a.items():
        exps: dict[str, int] = {}
        for v, e in mono:
            target = norm.get(v)
            if target is None:
                exps[v] = exps.get(v, 0) + e
            else:  # the target 1 is the empty monomial: the variable disappears
                for tv, te in target:
                    exps[tv] = exps.get(tv, 0) + te * e
        _add_term(out, sorted_pairs(exps.items()), coeff)
    return out


def coefficient_of(a: RefPoly, var: str, exp: int) -> RefPoly:
    out: RefPoly = {}
    for mono, coeff in a.items():
        if dict(mono).get(var, 0) == exp:
            out[tuple((v, e) for v, e in mono if v != var)] = coeff
    return out


def grlex_cmp(pa: Pairs, pb: Pairs) -> int:
    """Graded-lex comparison; earlier variables dominate the lex step."""
    if pa == pb:
        return 0
    da, db = sum(e for _, e in pa), sum(e for _, e in pb)
    if da != db:
        return 1 if da > db else -1
    ia = ib = 0
    while ia < len(pa) or ib < len(pb):
        ka = var_key(pa[ia][0]) if ia < len(pa) else None
        kb = var_key(pb[ib][0]) if ib < len(pb) else None
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


def sorted_terms(a: RefPoly) -> list[tuple[Pairs, int]]:
    """Terms in ascending canonical (graded-lex) order."""
    return sorted(a.items(), key=functools.cmp_to_key(lambda x, y: grlex_cmp(x[0], y[0])))


def to_text(a: RefPoly) -> str:
    if not a:
        return "0"
    chunks: list[str] = []
    for k, (mono, coeff) in enumerate(sorted_terms(a)):
        mag = abs(coeff)
        if mono:
            factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            body = factors if mag == 1 else f"{mag}*{factors}"
        else:
            body = str(mag)
        if k == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append((" + " if coeff > 0 else " - ") + body)
    return "".join(chunks)


def inversion_count(seq: Sequence[int]) -> int:
    """Number of pairs i < j with seq[i] > seq[j]."""
    count = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                count += 1
    return count


def largest_exponent(target):
    """Largest |exponent| of a polynomial's terms or of a substitution target."""
    if isinstance(target, LaurentPoly):
        return max((largest_exponent(mono) for mono, _ in target.terms()), default=0)
    if isinstance(target, Monomial):
        return max((abs(e) for _, e in target.pairs), default=0)
    return 1 if isinstance(target, str) else 0
