"""The library surface the benchmark harness relies on, pinned end to end.

perfbench/run.py reads the numpy version from sys.modules, reaches the
suites through tropevol.checks (loaded by the CLI), wraps every function
named in its tracer's TRACED table with hooks of fixed signatures, and
sizes formula items through AlcovedSimplex.blocks().  A traced run at a
fixed seed exercises all of it; its digests pin the generated inputs and
every output byte.  The digests were measured on Python 3.11.

The run's "correct" flag is not asserted: in a traced run it includes the
tracer's 15% unexplained-time rule, which host noise can cross.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# workload -> (inputs_digest, output_digest) at seed 0
PINNED = {
    "volume": ("b3c5fbf7e38862dc", "82be773b3b8b166e"),
    "ehrhart": ("66269b9c7de1c494", "5005a0438ef7ff26"),
    "formula": ("8a899814d49ef0f4", "4bce02fa03745a37"),
    "check": ("9cd48def28b7314a", "26e3626efe2a7399"),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_benchmark_run_keeps_its_digests(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["failed"] == 0
    info_lines = [line for line in lines if line.startswith("info ")]
    assert len(info_lines) == 1
    info = json.loads(info_lines[0][len("info "):])
    assert info["output_digest"] == info["traced_output_digest"]
    assert (info["inputs_digest"], info["output_digest"]) == PINNED[workload]
