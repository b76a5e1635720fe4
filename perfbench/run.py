"""schurbox benchmark: wall time of ``schurbox verify`` on three fixed workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: each run is one child process
(``child.py``), and the next child starts when the previous one has exited.
The program keeps its default ``--parallel 1``.  A child runs one workload
against ``src/`` of the checkout, never an installed copy.

Exact arithmetic has no random inputs, so the seed becomes the children's
``PYTHONHASHSEED``: it sets the string hashing of variable names and with it
the dict layout of every Monomial-keyed term map.  A claim must hold across
hash seeds.

``--trace 0`` reports the end-to-end metrics, each the median of the run's
samples:

* ``wall_s``       time of the ``schurbox.cli.main`` call;
* ``setup_s``      child spawn to ready (interpreter, ``import schurbox.cli``,
                   argv), sampled by every untraced workload child;
* ``peak_rss_mb``  the child's ``ru_maxrss`` when ``main`` returns.

``wall_s`` and ``setup_s`` are given at a fixed host speed.  The host is
shared: for minutes at a time it runs every process up to twice as slowly,
CPU time as much as wall time.  So each child also times one rep of
``child.reference_block``, fixed pure-Python work, every 0.2 s during
``main``, and a few reps right after set-up.  The parent drops the probe's
own time from ``wall_s`` and scales both times by ``REFERENCE_S`` over the
reference time: they read as seconds on a host that runs a rep in
``REFERENCE_S``.  The block never changes with the program, so the program's
own speed still shows in full.  The run's human-readable lines give the raw
times as well.

``failed_frac`` is the result's ``failed / attempted``: checks that failed,
raised, timed out or failed the oracle, over checks attempted.  It is not a
metric because it is 0 whenever the program is right.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones (see ``PER_LAYER`` and ``tracer.py``),
plus ``trace.wall_s``, the traced raw wall time, and ``trace.overhead_frac``,
traced over untraced ``wall_s`` minus 1, each scaled by its set-up reading.
Traced and untraced runs never share a process.
Two fixed counts, the number of results and the length of their canonical
text, are printed beside them as guards: they have no better direction, and a
change in either is a grid or format change, which the oracle already fails.

Human-readable lines (metadata, quartiles, sample counts, failures) go
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

# name -> (--checks, --m range, --n range); BENCHMARK.json says why each.
WORKLOADS = {
    "sweep-1to4": ("all", (1, 4), (1, 4)),
    "divide-n5": ("theorem,macmahon,gordon", (1, 2), (5, 5)),
    "expand-n5": ("eq5,weyl,lemma,eq6,vanishing,dn", (1, 1), (5, 5)),
}

# The CLI's check ids in output order, which of them run once per n, and
# minimum n; the oracle expects exactly this grid of results.
CHECK_IDS = ("theorem", "weyl", "lemma", "eq4", "eq5", "eq6", "vanishing",
             "macmahon", "gordon", "bijection", "schur-agree", "dn")
M_FREE = {"weyl", "lemma", "eq6", "vanishing", "dn"}
MIN_N = {"dn": 2}

HARD_LIMIT_S = 170.0  # a run ends by then, a hung child included

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# Nominal time of one rep of child.reference_block, about what it takes on
# the 2-core VM the baseline was measured on when the host is quiet.  Scaled
# times read as seconds on a host that runs a rep in this time.
REFERENCE_S = 0.005

PER_LAYER = (
    [("poly.exact_div." + k, u) for k, u in
     [("self_s", "s"), ("calls", "count"), ("dividend_terms", "count"), ("quotient_terms", "count")]]
    + [("poly.mul." + k, u) for k, u in
       [("self_s", "s"), ("calls", "count"), ("term_pairs", "count"), ("kept_ratio", "ratio")]]
    + [("poly.add.self_s", "s"), ("poly.add.calls", "count"),
       ("poly.determinant.self_s", "s"), ("poly.determinant.calls", "count"),
       ("poly.determinant.terms", "count"),
       ("poly.substitute.self_s", "s"), ("poly.substitute.calls", "count"),
       ("poly.to_text.self_s", "s")]
    + [(f"combinat.{g}.{k}", u) for g in ("ssyt", "symmetric_plane_partitions", "column_strict_odd_pps")
       for k, u in (("self_s", "s"), ("objects", "count"))]
    + [(f"combinat.{f}.self_s", "s") for f in ("fold", "unfold", "generating_function")]
    + [("combinat.fold.calls", "count")]
    + [(f"schur.{f}.self_s", "s") for f in
       ("schur_box_sum", "box_det_ratio", "schur_via_bialternant", "weyl_denominator",
        "dn_checks", "macmahon_product", "gordon_product", "principal_specialization")]
    + [(f"identity.{f}.self_s", "s") for f in
       ("eq4_sides", "eq5_sides", "eq6_sides", "lemma_sides", "vanishing_det")]
    + [("checks.run_verification.self_s", "s")]
    + [(f"checks.{c}.elapsed_s", "s") for c in CHECK_IDS]
    + [("checks.parallelism", "ratio"), ("cli.main.self_s", "s"),
       ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio")]
)


def workload_argv(checks: str, m_range: tuple[int, int], n_range: tuple[int, int]) -> list[str]:
    (m_lo, m_hi), (n_lo, n_hi) = m_range, n_range
    return ["--checks", checks, "--m", f"{m_lo}..{m_hi}", "--n", f"{n_lo}..{n_hi}"]


def expected_ids(checks: str, m_range: tuple[int, int], n_range: tuple[int, int]) -> list[str]:
    ids = CHECK_IDS if checks == "all" else checks.split(",")
    out = []
    for c in ids:
        for n in range(max(n_range[0], MIN_N.get(c, 1)), n_range[1] + 1):
            ms = ["-"] if c in M_FREE else range(m_range[0], m_range[1] + 1)
            out += [f"{c}:{m}:{n}" for m in ms]
    return out


def child_env(seed: int) -> dict[str, str]:
    """The caller's environment without PYTHON* and SCHURBOX_* settings, hash seed pinned."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "SCHURBOX_"))}
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_child(job: dict, env: dict[str, str], timeout: float) -> dict:
    """Run one child to completion; a crash or timeout comes back as ``{"error": ...}``."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(job)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-800:]}"}
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable child report: {lines[-1][:200]!r}"}
    report["setup_s"] = report["ready"] - spawned
    return report


def scaled(report: dict) -> tuple[float, float]:
    """(wall_s, setup_s) of a child, scaled to a host that runs a reference rep in REFERENCE_S.

    ``wall_s`` leaves out the probe's own time.  Sampled at even steps of
    wall time, a rep that takes r seconds means the host did REFERENCE_S / r
    of the reference work per second there, so the scale is the mean of 1 / r.
    A call too short for a probe reading uses the set-up reading.
    """
    probes = report["probe_s"] or [report["reference_rep_s"]]
    busy = report["wall_s"] - sum(report["probe_s"])
    return (busy * REFERENCE_S * statistics.fmean(1 / r for r in probes),
            report["setup_s"] * REFERENCE_S / report["reference_rep_s"])


def score(report: dict, expected: list[str], reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one child against the oracle."""
    if report.get("error") or report.get("rc") != 0:
        reason = report.get("error") or f"schurbox exit code {report.get('rc')}"
        return len(expected), len(expected), [f"all {len(expected)} checks: {reason}"]
    got = {row["id"]: row for row in report["results"]}
    ids = expected + [i for i in got if i not in expected]
    reasons = []
    for i in ids:
        row = got.get(i)
        if row is None:
            why = "no result"
        elif i not in expected:
            why = "result outside the requested grid"
        elif not row["passed"]:
            why = "check failed"
        elif row["oracle"]:
            why = row["oracle"]
        elif row["digests"] != reference.get(i):
            why = "text digest differs from reference.json"
        else:
            continue
        reasons.append(f"{i}: {why}")
    return len(ids), len(reasons), reasons


def trace_faults(report: dict) -> list[str]:
    """Ways a traced child's own bookkeeping went wrong (not the program's)."""
    faults = []
    if report.get("wrappers_left"):
        faults.append(f"wrappers left installed: {report['wrappers_left']}")
    if report.get("min_self_s", 0.0) < -1e-9:
        faults.append(f"negative self time {report['min_self_s']}")
    return faults


def layer_metrics(report: dict, untraced: dict) -> dict[str, float]:
    layers = report["layers"]
    out = {name: float(layers.get(name, 0)) for name, _ in PER_LAYER}
    pairs = layers.get("poly.mul.term_pairs", 0)
    out["poly.mul.kept_ratio"] = layers.get("poly.mul.kept_terms", 0) / pairs if pairs else 0.0
    elapsed = {c: 0.0 for c in CHECK_IDS}
    for row in report["results"]:
        elapsed[row["id"].split(":")[0]] += row["elapsed_ms"] / 1000.0
    out.update({f"checks.{c}.elapsed_s": s for c, s in elapsed.items()})
    sweep = layers.get("checks.run_verification.total_s", 0.0)
    out["checks.parallelism"] = sum(elapsed.values()) / sweep if sweep else 0.0
    out["trace.wall_s"] = report["wall_s"]
    # Both children scaled by their set-up readings, as the traced one has no probe.
    speed = untraced["reference_rep_s"] / report["reference_rep_s"]
    busy = untraced["wall_s"] - sum(untraced["probe_s"])
    out["trace.overhead_frac"] = report["wall_s"] * speed / busy - 1.0
    return out


def guard_counts(report: dict) -> tuple[int, int]:
    """(results, canonical text characters) of a traced child: fixed for a workload."""
    return len(report["results"]), report["layers"].get("poly.to_text.chars", 0)


def metadata() -> dict:
    src = os.path.join(ROOT, "src")
    lines = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "src_lines": lines}


def git_commit() -> str:
    """HEAD's commit, or "unknown" where ROOT is no git repository or git is missing."""
    # The ceiling keeps git from searching the directories above ROOT.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def measure(workload: str, seed: int, seconds: int, trace: bool) -> int:
    start = time.monotonic()
    deadline = start + seconds
    checks, m_range, n_range = WORKLOADS[workload]
    expected = expected_ids(checks, m_range, n_range)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    env = child_env(seed)
    meta = metadata()
    print(f"# schurbox benchmark: workload {workload}, seed {seed} (PYTHONHASHSEED "
          f"{env['PYTHONHASHSEED']}), {seconds} s, trace {int(trace)}")
    print("# " + ", ".join(f"{k} {v}" for k, v in meta.items()))

    attempted = failed = 0
    faults: list[str] = []
    samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    raw: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "probe_rep_s": []}
    traced_walls: list[float] = []
    layer_samples: list[dict[str, float]] = []
    guards: set[tuple[int, int]] = set()

    def child(argv, traced: bool, run_id: int) -> dict:
        nonlocal attempted, failed
        timeout = max(1.0, start + HARD_LIMIT_S - time.monotonic())
        report = run_child({"argv": argv, "trace": traced, "run_id": run_id}, env, timeout)
        if argv is None:
            if "error" in report:
                faults.append(f"warm-up: {report['error']}")
            return report
        a, f, reasons = score(report, expected, reference)
        attempted += a
        failed += f
        for reason in reasons[:5]:
            print(f"# FAILED (run {run_id}) {reason}")
        if traced and not report.get("error"):
            faults.extend(trace_faults(report))
        return report

    argv = workload_argv(checks, m_range, n_range)
    child(None, False, 0)  # warm-up: fills the bytecode cache, not measured
    run_id = 0
    while True:
        began = time.monotonic()
        run_id += 1
        report = child(argv, False, run_id)
        measured = report.get("rc") == 0
        if measured:
            wall_s, setup_s = scaled(report)
            samples["wall_s"].append(wall_s)
            samples["setup_s"].append(setup_s)
            samples["peak_rss_mb"].append(report["rss_mb"])
            raw["wall_s"].append(report["wall_s"])
            raw["setup_s"].append(report["setup_s"])
            raw["probe_rep_s"].extend(report["probe_s"])
        if trace:
            run_id += 1
            traced = child(argv, True, run_id)
            if measured and traced.get("rc") == 0:
                traced_walls.append(traced["wall_s"])
                layer_samples.append(layer_metrics(traced, report))
                guards.add(guard_counts(traced))
        if time.monotonic() + (time.monotonic() - began) > deadline:
            break

    for name, unit in END_TO_END:
        values = samples[name]
        if values:
            q1, med, q3 = quartiles(values)
            print(f"# {name:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"min {min(values):.4f}  n={len(values)}")
    for name, values in raw.items():
        if values:
            q1, med, q3 = quartiles(values)
            print(f"# raw {name:<15} median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    if trace and traced_walls:
        q1, med, q3 = quartiles(traced_walls)
        print(f"# traced wall_s median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(traced_walls)}")
    print(f"# failed_frac {failed / max(attempted, 1):.4f} ({failed} of {attempted} checks)")
    for results, chars in sorted(guards):
        print(f"# guard checks.checks {results}  poly.to_text.chars {chars}")
    for fault in faults:
        print(f"# FAULT {fault}")

    if trace:
        names = PER_LAYER
        values = {name: statistics.median(s[name] for s in layer_samples) if layer_samples else 0.0
                  for name, _ in PER_LAYER}
    else:
        names = END_TO_END
        values = {name: statistics.median(samples[name]) if samples[name] else 0.0
                  for name, _ in END_TO_END}
    result = {
        "correct": failed == 0 and not faults and bool(samples["wall_s"]),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "schurbox", "cli.py")):
        print(f"error: no schurbox source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
