"""Regenerate reference.json: sha256 digests of every result's canonical text.

Usage: python3 perfbench/make_reference.py

Runs each workload once, untraced, and records the digests of ``lhs.to_text()``
and ``rhs.to_text()`` per result id.  Only run it at a commit whose results
are known to be right; the benchmark counts any later difference as a failure.
"""

import json
import sys

import run


def main() -> int:
    digests = {}
    for workload in run.WORKLOADS:
        spec = run.WORKLOADS[workload]
        report = run.run_child({"argv": run.workload_argv(*spec), "trace": False, "run_id": 0},
                               run.child_env(0), run.HARD_LIMIT_S)
        expected = run.expected_ids(*spec)
        if report.get("error") or report["rc"] != 0:
            print(f"{workload}: {report.get('error') or report['rc']}", file=sys.stderr)
            return 1
        for row in report["results"]:
            if not row["passed"] or row["oracle"] or row["id"] not in expected:
                print(f"{workload}: {row['id']} fails the oracle: {row['oracle']}", file=sys.stderr)
                return 1
            digests[row["id"]] = row["digests"]
    with open(run.REFERENCE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} result digests to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
