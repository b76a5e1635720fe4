"""Smoke runs of the scripts in ``scripts/`` on the smallest interesting box and on bad
bounds, and of the benchmark's self-test, which patches the CLI and check functions from
outside, with guards that every name the benchmark's tracer wraps still exists and that
every workload result matches the benchmark's reference digests."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from schurbox.checks import CheckResult, RunConfig, run_verification
from schurbox.poly import LaurentPoly

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(script, args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,args",
    [
        ("bijection_demo.py", ["--n", "2", "--m", "2"]),
        ("run_full_sweep.py", ["--m-max", "2", "--n-max", "2"]),
    ],
)
def test_script_runs(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "script,args",
    [
        ("run_full_sweep.py", ["--n-max", "9"]),
        ("run_full_sweep.py", ["--m-max", "0"]),
        ("bijection_demo.py", ["--n", "-1"]),
    ],
)
def test_script_refuses_bad_bounds_with_a_usage_error(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1


def test_sweep_script_prints_the_error_of_a_raising_check(monkeypatch, capsys):
    sweep = load_by_path("scripts", "run_full_sweep.py")
    record = CheckResult("theorem", 1, 1, LaurentPoly.zero(), LaurentPoly.zero(), False, 0.5,
                         "ValueError: boom")
    monkeypatch.setattr(sweep, "run_verification", lambda config: [record])
    monkeypatch.setattr(sys, "argv", ["run_full_sweep.py"])
    assert sweep.main() == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "theorem      m=1   n=1   ERROR  ValueError: boom"
    )


def test_benchmark_traced_names_exist():
    # a traced name that is gone would otherwise show only as a crash inside the
    # benchmark self-test's child process
    tracer = load_by_path("perfbench", "tracer.py")
    for layer, name, _ in tracer.FUNCTIONS:
        assert hasattr(importlib.import_module(f"schurbox.{layer}"), name), (layer, name)
    for _, methods, _ in tracer.METHODS:
        for method in methods:
            assert method in vars(LaurentPoly), method


def test_benchmark_workloads_match_the_reference_digests():
    # the benchmark's self-test checks these digests only for m, n <= 2
    bench = load_by_path("perfbench", "run.py")
    result_id = load_by_path("perfbench", "child.py").result_id
    with open(bench.REFERENCE) as fh:
        reference = json.load(fh)
    seen = []
    for checks, m_range, n_range in bench.WORKLOADS.values():
        results = run_verification(RunConfig(tuple(checks.split(",")), m_range, n_range))
        ids = [result_id(r.identity, r.m, r.n) for r in results]
        assert sorted(ids) == sorted(bench.expected_ids(checks, m_range, n_range))
        for rid, r in zip(ids, results):
            assert r.passed, (rid, r.error)
            digests = [hashlib.sha256(side.to_text().encode()).hexdigest()
                       for side in (r.lhs, r.rhs)]
            assert digests == reference[rid], rid
        seen += ids
    assert sorted(seen) == sorted(reference)


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def run_frontier(tmp_path, *args, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "frontier.py"), "--label", "smoke",
         "--out-dir", str(tmp_path), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def load_by_path(*parts):
    spec = importlib.util.spec_from_file_location(
        os.path.splitext(parts[-1])[0], os.path.join(ROOT, *parts)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_frontier():
    return load_by_path("scripts", "frontier.py")


def test_frontier_child_env_drops_python_settings(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONHASHSEED", "7")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    monkeypatch.setenv("FRONTIER_TEST_KEEP", "kept")
    env = load_frontier().child_env("/checkout")
    assert [k for k in env if k.startswith("PYTHON")] == ["PYTHONPATH"]
    assert env["PYTHONPATH"] == os.path.join("/checkout", "src")
    assert env["FRONTIER_TEST_KEEP"] == "kept"


def test_frontier_warms_the_bytecode_cache_of_a_fresh_checkout(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(os.path.join(ROOT, "src"), checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    # every timed child is killed at once, so only the untimed import can write the cache
    proc = run_frontier(tmp_path, "--max-n", "1", "--timeout", "0", "--root", str(checkout),
                        env=env)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert list((checkout / "src" / "schurbox" / "__pycache__").glob("cli.*.pyc"))


def test_frontier_table_cut_to_small_n(tmp_path):
    proc = run_frontier(tmp_path, "--max-n", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    table = json.loads((tmp_path / "BENCH_frontier_smoke.json").read_text())
    assert [(c["check"], c["m"], c["n"]) for c in table["cases"]] == [
        *[(c, 1, 3) for c in ("weyl", "lemma", "eq6", "vanishing", "dn")],
        *[(c, m, 3) for m in (4, 1, 2, 3) for c in (  # the n = 6 rows, (4, 3) first
            "theorem", "eq4", "eq5", "macmahon", "gordon", "bijection", "schur-agree",
        )],  # the theorem's n = 7, 8 rows are all repeats
    ]
    for case in table["cases"]:
        assert case["exit_code"] == 0 and not case["timed_out"]
        assert case["peak_rss_mb"] > 0
        ((result,),) = [case["results"]]
        assert result["identity"] == case["check"] and result["pass"]
        assert result["elapsed_ms"] >= 0
    m_free_ms = sum(c["results"][0]["elapsed_ms"] for c in table["cases"][:5])
    assert table["m_free_total_s"] == {"3": round(m_free_ms / 1000, 3)}
    assert f"m-free total n=3  check {table['m_free_total_s']['3']:.3f} s" in proc.stdout


def test_frontier_runs_only_the_listed_checks(tmp_path):
    proc = run_frontier(tmp_path, "--max-n", "3", "--checks", "eq5,dn")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    table = json.loads((tmp_path / "BENCH_frontier_smoke.json").read_text())
    assert table["checks"] == ["eq5", "dn"]
    assert [(c["check"], c["m"], c["n"]) for c in table["cases"]] == [
        ("dn", 1, 3), ("eq5", 4, 3), ("eq5", 1, 3), ("eq5", 2, 3), ("eq5", 3, 3),
    ]
    for case in table["cases"]:
        ((result,),) = [case["results"]]
        assert result["identity"] == case["check"] and result["pass"]
    dn_ms = table["cases"][0]["results"][0]["elapsed_ms"]
    assert table["m_free_total_s"] == {"3": round(dn_ms / 1000, 3)}  # eq5 is not m-free


@pytest.mark.parametrize("checks", ["nosuch", "dn,nosuch", ""])
def test_frontier_refuses_an_unknown_check(tmp_path, checks):
    proc = run_frontier(tmp_path, "--checks", checks)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "unknown check(s)" in proc.stderr and not proc.stdout
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_frontier_refuses_max_n_below_one(tmp_path, max_n):
    proc = run_frontier(tmp_path, "--max-n", max_n)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "--max-n must be at least 1" in proc.stderr and not proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_frontier_records_a_timed_out_case(tmp_path):
    proc = run_frontier(tmp_path, "--max-n", "1", "--timeout", "0")
    assert proc.returncode == 1
    table = json.loads((tmp_path / "BENCH_frontier_smoke.json").read_text())
    assert table["cases"] and all(c["timed_out"] and c["results"] == [] for c in table["cases"])
    assert table["m_free_total_s"] == {"1": None}
    assert "m-free total n=1  -" in proc.stdout
