"""One benchmark child process: run one ``schurbox verify`` argv and report.

Usage: ``python3 perfbench/child.py JOB`` where JOB is a JSON object

    {"argv": [...verify arguments...] | null, "trace": bool, "run_id": int}

The child puts the working tree's ``src`` first on ``sys.path``, imports
``schurbox.cli`` and builds the argv; the moment it is ready is reported as a
``time.monotonic()`` reading, which the parent compares with its own reading
taken before the spawn.  With ``"argv": null`` the child stops there (the
warm-up run, which fills the bytecode cache).  Otherwise it calls
``schurbox.cli.main`` with stdout and stderr captured, then runs the oracle
over every ``CheckResult``, and prints one JSON object as the last line of its
stdout.

The child also times ``reference_block``, a fixed piece of pure-Python work
that does not touch schurbox: once right after set-up, and in an untraced
child once every ``PROBE_INTERVAL_S`` during the ``main`` call, from a
SIGALRM handler.  The parent scales the child's times by these readings, so
that a host that runs every process slower for a while (other tenants of a
shared machine) does not show as a slower program.
"""

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPS = 10
PROBE_INTERVAL_S = 0.2


def reference_block(reps: int) -> float:
    """Seconds per rep of a fixed sparse product of dict-of-tuple polynomials.

    The work resembles schurbox's own term arithmetic (tuple keys, dict
    updates with cancellation, a sort) but uses only ints, so its time does not
    depend on PYTHONHASHSEED or on the code under test.
    """
    start = time.perf_counter()
    for _ in range(reps):
        a = {(i, j, i * j % 5): (i + 2 * j) % 7 - 3 for i in range(12) for j in range(12)}
        b = {(j, i, (i + j) % 4): (3 * i - j) % 5 - 2 for i in range(10) for j in range(10)}
        out: dict[tuple[int, int, int], int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                c = out.get(key, 0) + ca * cb
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
        sorted(out.items())
    return (time.perf_counter() - start) / reps


class SpeedProbe:
    """While active, times one rep of ``reference_block`` every PROBE_INTERVAL_S."""

    def __init__(self) -> None:
        self.readings: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.readings.append(reference_block(1))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    import schurbox.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"schurbox imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    argv = None if job["argv"] is None else ["verify", *job["argv"]]
    ready = time.monotonic()
    if argv is None:
        print(json.dumps({"ready": ready}))
        return 0
    return run(cli, argv, job, ready)


def run(cli, argv: list[str], job: dict, ready: float) -> int:
    import contextlib
    import hashlib
    import io
    import resource
    import traceback

    import oracle

    reference_rep_s = reference_block(SETUP_REPS)
    tracer = None
    if job["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(job["run_id"])
        tracer.install()

    # Keep the CheckResult objects: the text output does not carry lhs/rhs.
    results = []
    run_verification = cli.run_verification

    def capture(config):
        out = run_verification(config)
        results.extend(out)
        return out

    cli.run_verification = capture
    report = {"ready": ready, "rc": None, "error": None}
    # A traced child is not probed: the probe's time would land in the spans.
    probe = SpeedProbe() if tracer is None else contextlib.nullcontext(SpeedProbe())
    start = time.perf_counter()
    try:
        with probe as speed, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            report["rc"] = cli.main(argv)
    except SystemExit as exc:
        report["rc"] = exc.code
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        report["error"] = f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"
    report["wall_s"] = time.perf_counter() - start
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["reference_rep_s"] = reference_rep_s
    report["probe_s"] = speed.readings
    cli.run_verification = run_verification
    main_spans = len(tracer.spans) if tracer else 0

    rows = []
    for r in results:
        lhs, rhs = r.lhs.to_text(), r.rhs.to_text()
        rows.append({
            "id": result_id(r.identity, r.m, r.n),
            "passed": bool(r.passed),
            "elapsed_ms": r.elapsed_ms,
            "digests": [hashlib.sha256(t.encode()).hexdigest() for t in (lhs, rhs)],
            "oracle": oracle.check(r.identity, r.m, r.n, lhs, rhs),
        })
    report["results"] = rows

    if tracer is not None:
        tracer.uninstall()
        self_times = tracer.self_times()
        report["layers"] = tracer.summary()
        report["self_sum_s"] = sum(self_times[:main_spans])
        report["min_self_s"] = min(self_times, default=0.0)
        report["wrappers_left"] = tracer_mod.leftover_wrappers()
    print(json.dumps(report))
    return 0


def result_id(identity: str, m, n: int) -> str:
    return f"{identity}:{'-' if m is None else m}:{n}"


if __name__ == "__main__":
    sys.exit(main())
