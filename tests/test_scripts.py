"""Smoke runs of the scripts in ``scripts/`` on the smallest interesting box, and of
the benchmark's self-test, which patches the CLI and check functions from outside."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script,args",
    [
        ("bijection_demo.py", ["--n", "2", "--m", "2"]),
        ("run_full_sweep.py", ["--m-max", "2", "--n-max", "2"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
