"""Self-test of the benchmark itself, on the tiny grid ``--m 1..2 --n 1..2``.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``;
exit code 0 when every check holds.  It takes a few seconds.

1. Self times: no span's self time is negative, and the self times of the
   spans under ``cli.main`` add up to the child's own wall-time reading of
   that call within SELF_SUM_TOLERANCE.
2. Generator spans cover iteration: a toy generator is charged the time it
   spends producing items and not the consumer's time between items; on the
   grid the schurbox enumerators record objects and self time.
3. Every wrapper is removed after a traced run, in the child and in this
   process (each rebound name is the original object again).
4. The oracle: the untraced grid scores no failures against reference.json,
   and one corrupted digest makes failed_frac > 0.
5. BENCHMARK.json names exactly the workloads and metrics run.py reports.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import tracer

GRID = ("all", (1, 2), (1, 2))
# Relative share plus an absolute slack for the few statements the child
# times around cli.main outside the root span.
SELF_SUM_TOLERANCE = (0.02, 0.002)


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def toy_items(count: int):
    for i in range(count):
        spin(0.01)
        yield i


def check_toy_generator() -> list[str]:
    tr = tracer.Tracer()
    items = tr.wrap("toy", toy_items)

    def consume():
        for _ in items(3):
            spin(0.02)

    tr.wrap("consume", consume)()
    s = tr.summary()
    problems = []
    if s.get("toy.objects") != 3:
        problems.append(f"toy generator yielded {s.get('toy.objects')} objects, expected 3")
    if not 0.03 <= s["toy.self_s"] < 0.04:
        problems.append(f"toy generator self time {s['toy.self_s']:.4f} s, expected 0.03..0.04")
    if not 0.06 <= s["consume.self_s"] < 0.07:
        problems.append(f"consumer self time {s['consume.self_s']:.4f} s, expected 0.06..0.07")
    return problems


def check_in_process_uninstall() -> list[str]:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import schurbox.cli  # noqa: F401  (loads every schurbox module)

    def bindings():
        out = {}
        for module in tracer.schurbox_modules():
            out.update({(module.__name__, k): v for k, v in vars(module).items()})
        poly_cls = sys.modules["schurbox.poly"].LaurentPoly
        out.update({("LaurentPoly", k): v for k, v in vars(poly_cls).items()})
        return out

    before = bindings()
    tr = tracer.Tracer()
    tr.install()
    installed = len(tracer.leftover_wrappers())
    tr.uninstall()
    after = bindings()
    problems = []
    if installed < len(tracer.FUNCTIONS):
        problems.append(f"only {installed} wrappers installed")
    if tracer.leftover_wrappers():
        problems.append(f"left installed: {tracer.leftover_wrappers()}")
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or before.keys() != after.keys():
        problems.append(f"bindings not restored: {changed}")
    return problems


def check_traced_grid() -> list[str]:
    argv = run.workload_argv(*GRID)
    report = run.run_child({"argv": argv, "trace": True, "run_id": 1}, run.child_env(0), 120)
    if report.get("error"):
        return [f"traced child: {report['error']}"]
    problems = run.trace_faults(report)
    rel, slack = SELF_SUM_TOLERANCE
    gap = abs(report["self_sum_s"] - report["wall_s"])
    if gap > rel * report["wall_s"] + slack:
        problems.append(f"self times sum to {report['self_sum_s']:.4f} s, "
                        f"traced wall {report['wall_s']:.4f} s")
    layers = report["layers"]
    for gen in ("ssyt", "symmetric_plane_partitions", "column_strict_odd_pps"):
        objects = layers.get(f"combinat.{gen}.objects", 0)
        self_s = layers.get(f"combinat.{gen}.self_s", 0.0)
        if objects <= 0 or self_s <= 0:
            problems.append(f"{gen}: {objects} objects, {self_s} s self time")
    return problems


def check_oracle() -> list[str]:
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    expected = run.expected_ids(*GRID)
    report = run.run_child({"argv": run.workload_argv(*GRID), "trace": False, "run_id": 1},
                           run.child_env(0), 120)
    attempted, failed, reasons = run.score(report, expected, reference)
    problems = [f"clean run: {r}" for r in reasons]
    if attempted != len(expected):
        problems.append(f"clean run attempted {attempted} checks, grid has {len(expected)}")
    corrupted = dict(reference)
    lhs, rhs = corrupted[expected[0]]
    corrupted[expected[0]] = [lhs[::-1], rhs]
    attempted, failed, _ = run.score(report, expected, corrupted)
    if not failed / attempted > 0:
        problems.append("a corrupted digest left failed_frac at 0")
    return problems


def check_benchmark_json() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    pairs = [
        ("workloads", [w["name"] for w in bench["workloads"]], list(run.WORKLOADS)),
        ("end_to_end", [(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END),
        ("per_layer", [(m["name"], m["unit"]) for m in bench["per_layer"]], run.PER_LAYER),
    ]
    for key, listed, reported in pairs:
        if listed != list(reported):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def main() -> int:
    checks = [
        ("toy generator spans cover iteration only", check_toy_generator),
        ("wrappers removed in process", check_in_process_uninstall),
        ("traced grid: self times, wrappers, generator objects", check_traced_grid),
        ("oracle: clean grid passes, corrupted digest fails", check_oracle),
        ("BENCHMARK.json matches run.py", check_benchmark_json),
    ]
    failures = 0
    for title, fn in checks:
        problems = fn()
        failures += bool(problems)
        print(("ok    " if not problems else "FAIL  ") + title)
        for p in problems:
            print(f"        {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
