"""On-demand rows of the ROADMAP baseline table that no workload re-runs.

Run from the root of a checkout, one row at a time:

    python3 perfbench/baseline.py --list
    python3 perfbench/baseline.py formula-le10 --seed 0

Each row prints one JSON object with its timings.  These rows take from a
second to several minutes, or exist to show the guard tripping, so they are
kept out of the benchmark's workloads (see README.md).  Matrices are drawn
from --seed; the ROADMAP's own matrices were not recorded, so a row
reproduces the shape of a measurement, not its exact input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GUARD = 10_000_000


def timed(fn, *args, **kwargs):
    start = perf_counter()
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # a guard trip is a result of the row, not a crash
        return perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, value


def random_matrix(tv, rng, d, n, hi):
    return tv.TropMatrix.from_rows([[rng.randint(0, hi) for _ in range(n)] for _ in range(d)])


def row_import(tv, rng):
    cmd = [sys.executable, "-c", "import time; t = time.perf_counter(); import tropevol; "
           "print(time.perf_counter() - t)"]
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True, timeout=60)
    return {"import_s": float(out.stdout)}


def row_check_seed0(tv, rng):
    suites = {}
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as tmp:
        for name in tv.checks.SUITES:
            argv = ["check", "--seed", "0", "--suite", name, "--out", os.path.join(tmp, "o")]
            suites[name], rc = timed(tv.cli.main, argv)
            if rc != 0:
                suites[name] = f"exit {rc}"
    return {"total_s": sum(v for v in suites.values() if isinstance(v, float)),
            "suites_s": suites}


def _volume_fixture(tv, argv):
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as tmp:
        seconds, rc = timed(tv.cli.main, ["volume"] + argv + ["--out", os.path.join(tmp, "o")])
    return {"seconds": seconds, "exit": rc}


def row_volume_4d(tv, rng):
    return _volume_fixture(tv, ["--fixture", "4D"])


def row_volume_l4(tv, rng):
    return _volume_fixture(tv, ["--fixture", "L", "--l", "4"])


def row_ivol_3x5(tv, rng):
    m = random_matrix(tv, rng, 3, 5, 15)
    minus_s, minus = timed(tv.tlvol_i_minus, m, 2, GUARD)
    plus_s, plus = timed(tv.tlvol_i_plus, m, 2, GUARD)
    return {"matrix": m.entries, "minus_s": minus_s, "plus_s": plus_s,
            "minus": str(minus[0]) if isinstance(minus, tuple) else minus,
            "plus": str(plus[0]) if isinstance(plus, tuple) else plus}


def _formula(tv, rng, hi):
    m = random_matrix(tv, rng, 3, 4, hi)
    tri_s, complex_ = timed(tv.enumerate_triangulation, m, GUARD)
    seconds, coeffs = timed(tv.coeffs_via_formula, complex_, 2, GUARD)
    return {"matrix": m.entries, "cells": len(complex_.cells), "triangulation_s": tri_s,
            "formula_s": seconds,
            "result": [str(c) for c in coeffs] if isinstance(coeffs, tuple) else coeffs}


def row_formula_le10(tv, rng):
    return _formula(tv, rng, 10)


def row_formula_le13(tv, rng):
    return _formula(tv, rng, 13)


def row_poly_vs_formula_le4(tv, rng):
    m = random_matrix(tv, rng, 3, 4, 4)
    poly_s, _ = timed(tv.tropical_ehrhart_poly, m, 2, GUARD)
    formula_s, _ = timed(tv.coeffs_via_formula, m, 2, GUARD)
    count_s, direct = timed(tv.count_tropical, m, 2, 3, GUARD)
    cells_s, cells = timed(tv.count_via_cells, m, 2, 3, GUARD)
    return {"matrix": m.entries, "tropical_ehrhart_poly_s": poly_s,
            "coeffs_via_formula_s": formula_s, "count_tropical_k3_s": count_s,
            "count_via_cells_k3_s": cells_s, "counts_agree": direct == cells}


def row_tier1(tv, rng):
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
           "no:cacheprovider"]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    return {"seconds": perf_counter() - start, "summary": proc.stdout.strip().splitlines()[-1]}


ROWS = {
    "import": (row_import, "package import, in a fresh interpreter"),
    "check-seed0": (row_check_seed0, "tropevol check --seed 0, suite by suite"),
    "volume-4d": (row_volume_4d, "tropevol volume --fixture 4D"),
    "volume-l4": (row_volume_l4, "tropevol volume --fixture L --l 4"),
    "ivol-3x5": (row_ivol_3x5, "tlvol_i_minus vs tlvol_i_plus, 3x5 entries <= 15, i = 2"),
    "formula-le10": (row_formula_le10, "coeffs_via_formula, 3x4 entries <= 10, b = 2"),
    "formula-le13": (row_formula_le13, "coeffs_via_formula, 3x4 entries <= 13 (guard)"),
    "poly-vs-formula-le4": (row_poly_vs_formula_le4,
                            "interpolation vs formula, and box scan vs cells at k = 3, "
                            "3x4 entries <= 4"),
    "tier1": (row_tier1, "the tier-1 test suite"),
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("row", nargs="?", choices=sorted(ROWS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--list", action="store_true", help="list the rows and exit")
    args = p.parse_args(argv)
    if args.list or args.row is None:
        for name, (_fn, what) in ROWS.items():
            print(f"{name:22} {what}")
        return 0
    os.environ.pop("TROPEVOL_GUARD", None)
    sys.path.insert(0, SRC)
    import tropevol
    import tropevol.cli  # noqa: F401  (loads cli and checks)

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    fn, what = ROWS[args.row]
    result = fn(tropevol, random.Random(args.seed))
    print(json.dumps({"row": args.row, "what": what, "seed": args.seed, **result},
                     default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
