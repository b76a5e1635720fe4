"""Command-line harness: verification sweeps and object enumeration.

Exit codes: 0 all checks passed, 1 some check failed or raised, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .checks import (
    CHECK_IDS,
    InvalidRangeError,
    RunConfig,
    UnknownCheckError,
    expand_checks,
    minimum_n,
    run_verification,
)
from .combinat import (
    column_strict_odd_pps,
    generating_function,
    partitions_in_box,
    symmetric_plane_partitions,
)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None
    return (low, high)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurbox",
        description="Exact verification of symmetric plane partition identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity checks over an (m, n) grid")
    verify.add_argument(
        "--checks",
        default="all",
        help=f"comma-separated ids from: {', '.join(CHECK_IDS)} (default: all)",
    )
    verify.add_argument("--m", type=_parse_range, default=(1, 3), metavar="LO..HI",
                        help="inclusive m range (default 1..3)")
    verify.add_argument("--n", type=_parse_range, default=(1, 3), metavar="LO..HI",
                        help="inclusive n range (default 1..3)")
    verify.add_argument("--output", choices=("text", "json"), default="text")

    enum = sub.add_parser("enumerate", help="list objects and their generating function")
    enum.add_argument("kind", choices=("symmetric-pp", "column-strict", "partitions"))
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--m", type=int, required=True)
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(
        checks=tuple(part.strip() for part in args.checks.split(",") if part.strip()),
        m_range=args.m,
        n_range=args.n,
    )
    try:
        results = run_verification(config)
    except (UnknownCheckError, InvalidRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for check_id in expand_checks(config.checks):
        if minimum_n(check_id) > args.n[0]:
            skipped = [n for n in range(args.n[0], args.n[1] + 1) if n < minimum_n(check_id)]
            if skipped:
                print(
                    f"note: {check_id} needs n >= {minimum_n(check_id)}; "
                    f"skipped n = {', '.join(map(str, skipped))}",
                    file=sys.stderr,
                )

    if args.output == "json":
        import json  # here and in _cmd_enumerate only: a text run never loads it
        print(json.dumps([r.to_json_dict() for r in results], indent=2))
    else:
        for r in results:
            print(r.to_text_line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results)} checks, {len(results) - failed} passed, {failed} failed",
          file=sys.stderr)
    return 0 if failed == 0 else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    import json  # as in _cmd_verify, only where JSON is printed
    if args.n < 0 or args.m < 0:
        print("error: bounds must be non-negative", file=sys.stderr)
        return 2
    if args.kind == "symmetric-pp":
        objects = symmetric_plane_partitions(args.n, args.m)
    elif args.kind == "column-strict":
        objects = column_strict_odd_pps(args.n, args.m)
    else:
        objects = partitions_in_box(args.m, args.n)

    def printed(obj):
        payload = obj.to_json_dict() if args.kind == "column-strict" else obj.to_json()
        print(json.dumps(payload, separators=(",", ":")))
        return obj

    print(generating_function(map(printed, objects)).to_text())  # prints as it counts
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_enumerate(args)


if __name__ == "__main__":
    sys.exit(main())
