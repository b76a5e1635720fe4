"""The sweep runner and the command-line interface."""

import json
import os
import re
import resource
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import schurbox
from schurbox.checks import (
    CHECK_IDS,
    InvalidRangeError,
    RunConfig,
    UnknownCheckError,
    expand_checks,
    expands_order_n,
    run_verification,
)
from schurbox.poly import LaurentPoly


def limit_memory():
    """Cap a child's address space, so that a regression that lists a huge
    enumeration fails with MemoryError instead of filling the host."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "schurbox", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


# -- runner ---------------------------------------------------------------------


def test_registry_lists_every_documented_check():
    assert set(CHECK_IDS) == {
        "theorem", "weyl", "lemma", "eq4", "eq5", "eq6", "vanishing",
        "macmahon", "gordon", "bijection", "schur-agree", "dn",
    }


def test_run_verification_small_grid():
    results = run_verification(RunConfig(("theorem",), (1, 2), (1, 2)))
    assert len(results) == 4
    assert all(r.passed for r in results)
    assert [(r.m, r.n) for r in results] == [(1, 1), (2, 1), (1, 2), (2, 2)]


def test_run_verification_m_independent_checks_run_once_per_n():
    results = run_verification(RunConfig(("lemma",), (1, 3), (1, 2)))
    assert [(r.m, r.n) for r in results] == [(None, 1), (None, 2)]


def test_unknown_check_rejected_before_work():
    with pytest.raises(UnknownCheckError):
        run_verification(RunConfig(("theorem", "nonsense"), (1, 1), (1, 1)))


def test_empty_check_list_rejected():
    with pytest.raises(UnknownCheckError, match="no checks requested; expected one of: theorem"):
        expand_checks([])
    with pytest.raises(UnknownCheckError):
        run_verification(RunConfig((), (1, 1), (1, 1)))


def test_invalid_ranges_rejected():
    with pytest.raises(InvalidRangeError):
        run_verification(RunConfig(("theorem",), (3, 1), (1, 1)))
    with pytest.raises(InvalidRangeError):
        run_verification(RunConfig(("theorem",), (1, 1), (0, 1)))


def test_results_in_table_order_then_n_then_m():
    results = run_verification(RunConfig(("eq5", "theorem"), (1, 2), (1, 2)))
    assert [(r.identity, r.m, r.n) for r in results] == [
        ("theorem", 1, 1), ("theorem", 2, 1), ("theorem", 1, 2), ("theorem", 2, 2),
        ("eq5", 1, 1), ("eq5", 2, 1), ("eq5", 1, 2), ("eq5", 2, 2),
    ]
    assert all(r.passed and r.error is None for r in results)


def test_raising_check_becomes_an_error_record():
    results = run_verification(RunConfig(("eq4", "lemma"), (3_000_000_000,) * 2, (1, 1)))
    lemma, eq4 = results
    assert (lemma.identity, lemma.passed, lemma.error) == ("lemma", True, None)
    assert (eq4.identity, eq4.m, eq4.passed) == ("eq4", 3_000_000_000, False)
    assert eq4.error.startswith("ExponentRangeError: exponent 3000000001 of x1")
    assert eq4.lhs == eq4.rhs == LaurentPoly.zero()
    assert eq4.to_json_dict()["error"] == eq4.error
    assert "error" not in lemma.to_json_dict()


def test_all_expands_anywhere_and_repeats_drop():
    assert expand_checks(["dn", "all", "dn"]) == ["dn", *(c for c in CHECK_IDS if c != "dn")]
    assert expand_checks(["all", "theorem"]) == list(CHECK_IDS)
    with pytest.raises(UnknownCheckError):
        expand_checks(["all", "nonsense"])


def test_order_bound_covers_the_determinant_checks():
    assert [c for c in CHECK_IDS if not expands_order_n(c)] == [
        "macmahon", "gordon", "bijection",
    ]


def test_n_over_order_bound_rejected_before_work():
    for check_id in ("theorem", "eq5", "all"):
        with pytest.raises(InvalidRangeError, match="order bound 8"):
            run_verification(RunConfig((check_id,), (1, 1), (1, 9)))


def test_dn_skips_n_below_two():
    results = run_verification(RunConfig(("dn",), (1, 1), (1, 2)))
    assert [(r.identity, r.n) for r in results] == [("dn", 2)]


# -- CLI: verify -------------------------------------------------------------------


def test_cli_verify_theorem_grid():
    proc = run_cli("verify", "--checks", "theorem", "--n", "1..2", "--m", "1..2")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 4
    assert all("PASS" in line for line in lines)


def test_cli_verify_vanishing_single_point():
    proc = run_cli("verify", "--checks", "vanishing", "--n", "1..1")
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 1


def test_cli_verify_all_with_repeated_id():
    proc = run_cli("verify", "--checks", "all,theorem", "--n", "1..2", "--m", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2 * len(CHECK_IDS) - 1  # dn needs n >= 2
    assert sum(line.startswith("theorem ") for line in lines) == 2
    assert "note: dn needs n >= 2; skipped n = 1" in proc.stderr


def test_cli_unknown_check_is_usage_error():
    proc = run_cli("verify", "--checks", "nonsense")
    assert proc.returncode == 2
    assert "unknown check" in proc.stderr


@pytest.mark.parametrize("spelling", [",", ""])
def test_cli_empty_check_list_is_usage_error(spelling):
    proc = run_cli("verify", "--checks", spelling, "--n", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: no checks requested; expected one of: theorem, weyl")
    assert proc.stdout == ""


def test_cli_check_with_every_n_skipped_runs_nothing():
    proc = run_cli("verify", "--checks", "dn", "--n", "1")
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "note: dn needs n >= 2; skipped n = 1" in proc.stderr
    assert "0 checks, 0 passed, 0 failed" in proc.stderr


def test_cli_bad_range_is_usage_error():
    proc = run_cli("verify", "--checks", "theorem", "--n", "3..1")
    assert proc.returncode == 2
    proc = run_cli("verify", "--checks", "theorem", "--n", "x..1")
    assert proc.returncode == 2


@pytest.mark.parametrize("check_id", ["eq5", "theorem", "lemma"])
def test_cli_n_over_order_bound_is_usage_error(check_id):
    proc = run_cli("verify", "--checks", check_id, "--n", "9")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: n = 9 exceeds the order bound 8")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_json_output_is_valid_and_deterministic():
    args = ("verify", "--checks", "weyl,vanishing", "--n", "1..3", "--output", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0

    def normalize(text):
        return [
            {k: v for k, v in rec.items() if k != "elapsed_ms"}
            for rec in json.loads(text)
        ]

    assert normalize(first.stdout) == normalize(second.stdout)
    assert all(rec["pass"] for rec in json.loads(first.stdout))


def test_cli_json_records_the_theorem_divisor():
    args = ("verify", "--checks", "theorem,weyl", "--m", "1", "--n", "2")
    records = json.loads(run_cli(*args, "--output", "json").stdout)
    assert [(rec["identity"], rec.get("divisor")) for rec in records] == [
        ("theorem", "bn-alternant"), ("weyl", None)
    ]
    text = run_cli(*args).stdout
    assert "divisor" not in text and "bn-alternant" not in text
    assert [line.split()[:4] for line in text.splitlines()] == [
        ["theorem", "m=1", "n=2", "PASS"], ["weyl", "m=-", "n=2", "PASS"]
    ]


def test_cli_parallel_option_is_gone():
    proc = run_cli("verify", "--checks", "lemma", "--parallel", "2")
    assert proc.returncode == 2
    assert "unrecognized arguments: --parallel" in proc.stderr


def test_cli_error_record_does_not_abort_the_sweep():
    args = ("verify", "--checks", "eq4,lemma", "--m", "3000000000", "--n", "1")
    proc = run_cli(*args)
    assert proc.returncode == 1
    lemma_line, eq4_line = proc.stdout.strip().splitlines()
    assert lemma_line.startswith("lemma ") and "PASS" in lemma_line
    assert eq4_line.startswith("eq4 ")
    assert "ERROR  ExponentRangeError: exponent 3000000001 of x1" in eq4_line
    assert "Traceback" not in proc.stderr
    assert "2 checks, 1 passed, 1 failed" in proc.stderr
    records = json.loads(run_cli(*args, "--output", "json").stdout)
    assert ["error" in rec for rec in records] == [False, True]
    assert records[1]["error"].startswith("ExponentRangeError: ")


def test_cli_out_of_range_m_is_two_error_records_within_seconds():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "schurbox", "verify", "--checks", "eq4,eq5",
         "--m", "2147483647", "--n", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert time.monotonic() - start < 30
    assert proc.returncode == 1
    lines = proc.stdout.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["eq4", "eq5"]
    for line in lines:
        assert "ERROR  ExponentRangeError: exponent 2147483648 of x1" in line
    assert "2 checks, 0 passed, 2 failed" in proc.stderr


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # A clean interpreter: no PYTHON* variable, the package's source root put
    # first on sys.path by hand.
    src = os.path.dirname(os.path.dirname(os.path.abspath(schurbox.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import schurbox.cli; "
        "print(schurbox.cli.__file__.startswith(sys.argv[1]), "
        "sorted(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True []"


# Recorded stdout of `verify --output json` and of `enumerate`, elapsed times
# masked on both sides: any other byte that differs is a change of CLI output.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
ELAPSED = re.compile(r'"elapsed_ms": [0-9.e+-]+')


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_bytes_match_the_recorded_output(case):
    proc = run_cli(*case["argv"])
    assert proc.returncode == case["returncode"]
    assert ELAPSED.sub('"elapsed_ms": 0', proc.stdout) == case["stdout"]


# -- CLI: enumerate -----------------------------------------------------------------


def test_cli_enumerate_symmetric_pp():
    proc = run_cli("enumerate", "symmetric-pp", "--n", "2", "--m", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 5
    objects = [json.loads(line) for line in lines[:-1]]
    assert [[1, 1], [1, 0]] in objects
    assert lines[-1] == "1 + q + q^3 + q^4"


def test_cli_enumerate_partitions():
    proc = run_cli("enumerate", "partitions", "--m", "2", "--n", "2")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 7  # 6 objects + generating function
    assert lines[-1] == "1 + q + 2*q^2 + q^3 + q^4"


def test_cli_enumerate_column_strict():
    proc = run_cli("enumerate", "column-strict", "--n", "2", "--m", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    objects = [json.loads(line) for line in lines[:-1]]
    assert {"1,1": 3, "2,1": 1} in objects
    assert lines[-1] == "1 + q + q^3 + q^4"


def test_cli_enumerate_empty_box():
    proc = run_cli("enumerate", "symmetric-pp", "--n", "1", "--m", "0")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines == ["[]", "1"]


def test_cli_enumerate_rejects_negative():
    proc = run_cli("enumerate", "partitions", "--m", "-1", "--n", "2")
    assert proc.returncode == 2


def test_cli_enumerate_streams_before_the_enumeration_ends():
    # 18,076,916 symmetric plane partitions: the first must print long before the last
    proc = subprocess.Popen(
        [sys.executable, "-m", "schurbox", "enumerate", "symmetric-pp", "--n", "6", "--m", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, preexec_fn=limit_memory,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        first = proc.stdout.readline() if ready else None
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert first == "[]\n"
