"""Smoke test of the benchmark itself.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/smoke.py

For each workload, runs perfbench/run.py at a tiny size (--seconds 1, which
also shrinks the input pool) with --trace 0 and --trace 1 at seed 0, and
checks that:

* the last line is the result object, every item passed and nothing failed;
* every metric named in BENCHMARK.json is reported with its unit, and printed
  on its own line with that unit;
* the per-layer counters show work where the workload does that work and none
  where it must not (EXPECT below);
* traced and untraced runs produced the same output digest, and the traced
  self times are consistent.

Finally it runs the benchmark in a directory that holds only BENCHMARK.json
and perfbench/, where it must fail without printing a result.  Exits 1 and
lists the problems if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per workload: metric -> (comparison, value) that a tiny traced run must meet
EXPECT = {
    "volume": {
        "ratlp.lp_max_min_linear.calls": (">", 0),
        "core.contains.calls": (">", 0),
        "cells.lattice_points.calls": (">", 0),
        "cells.triangulations_per_item": (">", 1),
        "linalg.tdet.calls": (">", 0),
        "linalg.kleene_star.calls": (">", 0),
        "volumes.tlvol_subsets.subsets": (">", 0),
        "volumes.build_volume_report.self_s": (">", 0),
        "cli.main.self_s": (">", 0),
        "ehrhart.count_maxtimes.calls": ("==", 0),
    },
    "ehrhart": {
        "ehrhart.count_maxtimes.calls": (">", 0),
        "ehrhart.count_maxtimes.candidates": (">", 0),
        "ehrhart.closed_cell_count.calls": (">", 0),
        "ehrhart.verified_share": (">", 0),
        "ratpoly.lagrange_interpolate.calls": (">", 0),
        "cli.main.self_s": (">", 0),
        "ratlp.lp_max_min_linear.calls": ("==", 0),
        "linalg.tdet.calls": ("==", 0),
    },
    "formula": {
        "ehrhart.closed_cell_count.calls": (">", 0),
        "ehrhart.closed_cell_count.points": (">", 0),
        "ehrhart.classical_ehrhart_scaled_simplex.calls": (">", 0),
        "cells.triangulations_per_item": ("==", 1),
        "ratlp.lp_max_min_linear.calls": ("==", 0),
        "ehrhart.count_maxtimes.calls": ("==", 0),
        "cli.main.self_s": ("==", 0),
    },
    "check": dict(
        {f"checks.suite_{s}.self_s": (">", 0) for s in (
            "semiring", "membership", "assignment", "kleene", "cauchy_binet",
            "sign_generic", "cells", "ehrhart", "theorems", "conjecture")},
        **{
            # left out of the workload, see workloads.Check
            "checks.suite_cross_volume.self_s": ("==", 0),
            "checks.suite_volume_properties.self_s": ("==", 0),
            "cells.enumerate_triangulation_brute.self_s": (">", 0),
            "core.contains.calls": (">", 0),
            "ehrhart.count_maxtimes.calls": (">", 0),
            "ratlp.simplex_max.calls": (">", 0),
            "linalg.tdet_brute.self_s": (">", 0),
        },
    ),
}


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload, trace, spec, problems):
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct {result['correct']}, failed {result['failed']}"
                        f" of {result['attempted']}")
    if not any(line.startswith("failed_share 0 ratio") for line in lines):
        problems.append(f"{where}: failed_share is not printed as 0")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {entry.get('unit')}")
        if not any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines):
            problems.append(f"{where}: {m['name']} is not printed with its unit")
    if not trace:
        for name, entry in got.items():
            if not entry["value"] > 0:
                problems.append(f"{where}: end-to-end {name} is {entry['value']}")
        return
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    if info["consistency"] != "ok":
        problems.append(f"{where}: trace accounting {info['consistency']}")
    if info["output_digest"] != info["traced_output_digest"]:
        problems.append(f"{where}: traced and untraced outputs differ")
    for name, (op, value) in EXPECT[workload].items():
        actual = got[name]["value"]
        ok = actual > value if op == ">" else actual == value
        if not ok:
            problems.append(f"{where}: expected {name} {op} {value}, got {actual}")


def check_bare(problems):
    """Without the sources the benchmark must fail and print no result."""
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, "formula", 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            problems.append(f"bare directory: exit {proc.returncode}, last line {last!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, spec, problems)
            print(f"{w['name']} --trace {trace}: done", flush=True)
    check_bare(problems)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
