"""In-memory span tracer that wraps schurbox's public functions from outside.

``Tracer.install()`` rebinds every traced name in every loaded ``schurbox``
module (and the traced ``LaurentPoly`` methods on the class) to a wrapper
that records one span per call: ``(name, start, end, parent, run_id)``.
``Tracer.uninstall()`` puts every original back.

Generator functions get one span per resume, parented to whatever span is
open when the consumer asks for the next item.  The time a generator spends
producing items is then its own, and the consumer's work between items stays
with the consumer (``generating_function`` does not absorb the enumeration
it drives, and the enumeration does not absorb ``fold``).

Self time is a span's duration minus the time its direct children cover.
Spans of one thread nest strictly, so the self times of all spans under a
root add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, function, counter kind); a counter kind names the extra counts
# recorded per call, see Tracer._count.  Spans are named "<module>.<function>".
FUNCTIONS = [
    ("poly", "exact_div", "div"),
    ("poly", "determinant", "det"),
    ("combinat", "ssyt", None),
    ("combinat", "symmetric_plane_partitions", None),
    ("combinat", "column_strict_odd_pps", None),
    ("combinat", "fold", None),
    ("combinat", "unfold", None),
    ("combinat", "generating_function", None),
    ("schur", "schur_box_sum", None),
    ("schur", "box_det_ratio", None),
    ("schur", "schur_via_bialternant", None),
    ("schur", "weyl_denominator", None),
    ("schur", "dn_checks", None),
    ("schur", "macmahon_product", None),
    ("schur", "gordon_product", None),
    ("schur", "principal_specialization", None),
    ("identity", "eq4_sides", None),
    ("identity", "eq5_sides", None),
    ("identity", "eq6_sides", None),
    ("identity", "lemma_sides", None),
    ("identity", "vanishing_det", None),
    ("checks", "run_verification", None),
    ("cli", "main", None),
]

# LaurentPoly methods: (traced name, method names, counter kind)
METHODS = [
    ("poly.mul", ("__mul__", "__rmul__"), "mul"),
    ("poly.add", ("__add__", "__radd__", "__sub__", "__rsub__"), None),
    ("poly.substitute", ("substitute",), None),
    ("poly.to_text", ("to_text",), "text"),
]

_MARK = "__perfbench_traced__"


def _size(value) -> int:
    # An int operand of a LaurentPoly operator is one constant term.
    return 1 if isinstance(value, int) else len(value)


class Tracer:
    """Records spans for the traced schurbox functions while installed."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, kind: str | None, args: tuple, result) -> None:
        counts = self.counts
        counts[name + ".calls"] += 1
        if kind is None or result is NotImplemented:
            return
        if kind == "mul":
            counts["poly.mul.term_pairs"] += _size(args[0]) * _size(args[1])
            counts["poly.mul.kept_terms"] += len(result)
        elif kind == "div":
            counts["poly.exact_div.dividend_terms"] += len(args[0])
            counts["poly.exact_div.quotient_terms"] += len(result)
        elif kind == "det":
            counts["poly.determinant.terms"] += len(result)
        elif kind == "text":
            counts["poly.to_text.chars"] += len(result)

    def wrap(self, name: str, fn, kind: str | None = None):
        """A traced stand-in for ``fn``; generator functions are traced per resume."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts[name + ".objects"] += 1
                    yield item

            setattr(traced_gen, _MARK, True)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                self._count(name, kind, args, result)
            finally:
                self._close(idx)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- installing and removing wrappers --------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced name in every loaded schurbox module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = schurbox_modules()
        for layer, fname, kind in FUNCTIONS:
            original = getattr(sys.modules[f"schurbox.{layer}"], fname)
            wrapper = self.wrap(f"{layer}.{fname}", original, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        poly_cls = sys.modules["schurbox.poly"].LaurentPoly
        for name, methods, kind in METHODS:
            for method in methods:
                self._rebind(poly_cls, method, self.wrap(name, vars(poly_cls)[method], kind))

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the children's durations."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self) -> dict[str, float]:
        """Per traced name: ``.self_s`` and ``.total_s`` sums plus the recorded counts."""
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            out[name + ".self_s"] += self_s
            out[name + ".total_s"] += end - start
        out.update(self.counts)
        return dict(out)


def schurbox_modules() -> list:
    return [m for k, m in list(sys.modules.items()) if k == "schurbox" or k.startswith("schurbox.")]


def leftover_wrappers() -> list[str]:
    """Names in loaded schurbox modules (or on LaurentPoly) still bound to a wrapper."""
    left = []
    for module in schurbox_modules():
        owners = [(module.__name__, vars(module))]
        if module.__name__ == "schurbox.poly":
            owners.append(("schurbox.poly.LaurentPoly", vars(module.LaurentPoly)))
        for owner_name, namespace in owners:
            left += [f"{owner_name}.{k}" for k, v in namespace.items() if getattr(v, _MARK, False)]
    return left
