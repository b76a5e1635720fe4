"""Run the benchmark over several seeds and print the end-to-end and per-layer tables.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--first-seed 1] [--trace]

Every workload runs over SEEDS seeds from ``--first-seed`` on.  Each
(workload, seed) is one ``run.py`` process with BENCHMARK.json's
``run_seconds``, the way a benchmark harness runs it.  For every end-to-end metric the
table gives the median of the per-run values, the quartiles and the number
of runs, and the spread (q3 - q1) / median beside the metric's bound.
``failed_frac`` is failed / attempted summed over all runs.  With
``--trace`` one traced run per workload follows, and the per-layer metrics
are printed with one column per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """The run's JSON result and its human-readable lines."""
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if "FAILED" in line or "FAULT" in line:
            print(f"<!-- {workload} seed {seed}: {line} -->")
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = list(run.WORKLOADS)
    seeds = range(args.first_seed, args.first_seed + SEEDS)

    print("# " + ", ".join(f"{k} {v}" for k, v in run.metadata().items()))
    print(f"\nEnd to end: {len(seeds)} runs of {seconds} s per workload, seeds "
          f"{seeds[0]}..{seeds[-1]}; each run reports the median of its samples, "
          "wall_s and setup_s scaled to the host speed.\n")
    print("| workload | metric | median | q1 | q3 | runs | spread | bound | failed_frac |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        results = [run_once(workload, seed, seconds, False)[0] for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        for name, unit in run.END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            print(f"<!-- {workload} {name}: {' '.join(f'{v:.4f}' for v in values)} -->")
            q1, med, q3 = run.quartiles(values)
            print(f"| {workload} | {name} ({unit}) | {med:.4f} | {q1:.4f} | {q3:.4f} | {len(values)} "
                  f"| {(q3 - q1) / med:.3f} | {bounds[name]} | {failed}/{attempted} |")
        sys.stdout.flush()

    if args.trace:
        runs = {w: run_once(w, seeds[0], seconds, True) for w in workloads}
        traced = {w: result["metrics"] for w, (result, _) in runs.items()}
        print(f"\nPer layer: one traced run of {seconds} s per workload, seed {seeds[0]} "
              "(median over the run's traced children).\n")
        print("| metric | unit | " + " | ".join(workloads) + " |")
        print("|---|---|" + "---|" * len(workloads))
        for name, unit in run.PER_LAYER:
            cells = " | ".join(f"{traced[w][name]['value']:.4g}" for w in workloads)
            print(f"| {name} | {unit} | {cells} |")
        print("\nWorkload split, as shares of trace.wall_s:\n")
        for w in workloads:
            m = {k: v["value"] for k, v in traced[w].items()}
            wall = m["trace.wall_s"]
            print(f"- {w}: poly.exact_div.self_s {m['poly.exact_div.self_s'] / wall:.1%}, "
                  f"poly.mul.self_s {m['poly.mul.self_s'] / wall:.1%}, combinat fold+unfold "
                  f"{(m['combinat.fold.self_s'] + m['combinat.unfold.self_s']) / wall:.1%}")
        print("\nFixed guard counts (no better direction; the oracle fails any change):\n")
        for w, (_, lines) in runs.items():
            for line in lines:
                if line.startswith("# guard "):
                    print(f"- {w}: {line[len('# guard '):]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
