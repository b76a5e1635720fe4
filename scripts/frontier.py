#!/usr/bin/env python3
"""Run the frontier table, one check per fresh process, and write BENCH_frontier_<label>.json.

Each case is ``python -m schurbox verify --checks C --m M --n N --output json``
run against ``<root>/src`` in its own process, under a timeout.  The table
records every result's ``elapsed_ms`` and pass flag, the child's exit code and
wall time, and its peak resident set size (``ru_maxrss`` from ``os.wait4``,
so each child's own peak).  The m-free checks run at n = 6 and n = 7 (their
``--m`` is ignored); every check that depends on m runs at (m, n) = (4, 5)
and at n = 6 for m = 1..4, and the theorem also at n = 7 and n = 8 for
m = 1..4.
Each child gets the caller's environment without its ``PYTHON*`` settings
(``PYTHONDONTWRITEBYTECODE`` among them), with ``PYTHONPATH`` set to
``<root>/src``, and one untimed ``import schurbox.cli`` before the table
writes the bytecode cache, so no timed child compiles the package.

    python3 scripts/frontier.py --label change
    python3 scripts/frontier.py --label parent --root ../parent-checkout
    python3 scripts/frontier.py --label smoke --max-n 3 --out-dir /tmp
    python3 scripts/frontier.py --label dn --checks dn,weyl

``--max-n K`` runs each case at n = min(n, K) instead, dropping repeats, for a
quick run of every check; a K below 1 is refused with exit 2 before anything
runs.  ``--checks C1,C2`` runs only the rows of the listed checks, in table
order; an id that is not in the table is refused the same way.  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections.abc import Collection

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

M_FREE = ("weyl", "lemma", "eq6", "vanishing", "dn")
M_DEPENDENT = ("theorem", "eq4", "eq5", "macmahon", "gordon", "bijection", "schur-agree")
TABLE = (
    [(check, 1, n) for n in (6, 7) for check in M_FREE]
    + [(check, 4, 5) for check in M_DEPENDENT]
    + [(check, m, 6) for m in range(1, 5) for check in M_DEPENDENT]
    + [("theorem", m, n) for n in (7, 8) for m in range(1, 5)]
)


def cases(max_n: int | None, checks: Collection[str] | None = None) -> list[tuple[str, int, int]]:
    """The table's (check, m, n) rows in order, with n capped at ``max_n``, and only
    the rows of ``checks`` when it is given."""
    rows = [(c, m, n if max_n is None else min(n, max_n)) for c, m, n in TABLE
            if checks is None or c in checks]
    return list(dict.fromkeys(rows))


def child_env(root: str) -> dict[str, str]:
    """The caller's environment without PYTHON* settings, and PYTHONPATH ``<root>/src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_case(root: str, check: str, m: int, n: int, timeout_s: float) -> dict:
    """One fresh ``schurbox verify`` process; its results, exit code, wall time and peak RSS."""
    argv = [sys.executable, "-m", "schurbox", "verify", "--checks", check,
            "--m", str(m), "--n", str(n), "--output", "json"]
    env = child_env(root)
    with tempfile.TemporaryFile("w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=subprocess.DEVNULL)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > timeout_s:
                proc.kill()
                timed_out = True
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        text = out.read()
    results = [] if timed_out or not text.strip() else json.loads(text)
    return {
        "check": check,
        "m": m,
        "n": n,
        "exit_code": proc.returncode,
        "timed_out": timed_out,
        "wall_s": round(wall_s, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),  # ru_maxrss is in KiB on Linux
        "results": [
            {k: r[k] for k in ("identity", "m", "n", "pass", "elapsed_ms", "error") if k in r}
            for r in results
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file")
    parser.add_argument("--root", default=ROOT, help="checkout whose src/ to run")
    parser.add_argument("--out-dir", default=ROOT)
    parser.add_argument("--timeout", type=float, default=900.0, help="seconds per case")
    parser.add_argument("--max-n", type=int, default=None, help="cap every case's n")
    parser.add_argument("--checks", default=None,
                        help="comma-separated check ids: run only their rows")
    args = parser.parse_args()
    if args.max_n is not None and args.max_n < 1:
        parser.error("--max-n must be at least 1")
    checks = None
    if args.checks is not None:
        checks = args.checks.split(",")
        unknown = [c for c in checks if c not in M_FREE + M_DEPENDENT]
        if unknown:
            parser.error(f"unknown check(s) {', '.join(map(repr, unknown))}; expected "
                         f"comma-separated ids from: {', '.join(M_FREE + M_DEPENDENT)}")

    root = os.path.abspath(args.root)
    # untimed: writes the package's bytecode cache under <root>/src
    subprocess.run([sys.executable, "-c", "import schurbox.cli"], cwd=root,
                   env=child_env(root), check=True)
    rows = []
    for check, m, n in cases(args.max_n, checks):
        row = run_case(root, check, m, n, args.timeout)
        ms = ", ".join(f"{r['elapsed_ms'] / 1000:.3f} s" for r in row["results"]) or "-"
        status = "TIMEOUT" if row["timed_out"] else f"exit {row['exit_code']}"
        print(f"{check:<12} m={m} n={n}  {status}  check {ms}  "
              f"wall {row['wall_s']:.3f} s  peak {row['peak_rss_mb']:.1f} MB", flush=True)
        rows.append(row)

    table = {
        "label": args.label,
        "command": "python -m schurbox verify --checks C --m M --n N --output json",
        "timeout_s": args.timeout,
        "max_n": args.max_n,
        "checks": checks,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "cases": rows,
    }
    path = os.path.join(args.out_dir, f"BENCH_frontier_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if all(r["exit_code"] == 0 for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
