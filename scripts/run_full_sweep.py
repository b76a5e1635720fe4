#!/usr/bin/env python3
"""Run every identity check over a chosen grid and print a timing table.

The default desk-scale grid (m, n <= 3) finishes in well under a second;
pass --m-max/--n-max to push further and watch the factorial determinant
expansions and box-sum enumerations grow.
"""

import argparse
import sys

from schurbox.checks import InvalidRangeError, RunConfig, UnknownCheckError, run_verification


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=3)
    args = parser.parse_args()

    try:
        results = run_verification(RunConfig(("all",), (1, args.m_max), (1, args.n_max)))
    except (UnknownCheckError, InvalidRangeError) as exc:
        parser.error(str(exc))
    by_identity: dict[str, float] = {}
    for r in results:
        print(r.to_text_line())
        by_identity[r.identity] = by_identity.get(r.identity, 0.0) + r.elapsed_ms

    print()
    print("total time per identity:")
    for identity, ms in sorted(by_identity.items(), key=lambda kv: -kv[1]):
        print(f"  {identity:<12} {ms:9.2f} ms")
    print("  (eq6's right side and D_n count in the first check at each n that uses them,")
    print("   the box sum in the first check at each (m, n) that uses it; the bijection's")
    print("   pass, made at the last m, in its first row at each n; schur-agree's row at")
    print("   each m counts only its new shapes, those with first part m)")
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results)} checks, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
