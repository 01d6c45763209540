"""End-to-end tests for the command line interface.

Golden outputs run the installed module in a subprocess so the bytes on
stdout, the exit codes, and the environment handling are exercised exactly
as a shell user would see them.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tropevol import checks, cli
from tropevol.fixtures import fix_l

EHRHART_L4_GOLDEN = """\
{
  "agree": true,
  "b": 2,
  "coeffs": [
    "1",
    "15/2",
    "1/2"
  ],
  "counts": [
    {
      "k": 0,
      "value": 9
    },
    {
      "k": 1,
      "value": 18
    },
    {
      "k": 2,
      "value": 39
    },
    {
      "k": 3,
      "value": 93
    }
  ],
  "formula_coeffs": [
    "1",
    "15/2",
    "1/2"
  ]
}
"""


def _run(
    *args: str, env: dict[str, str] | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess:
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "tropevol.cli", *args],
        capture_output=True,
        text=True,
        env=merged,
        timeout=timeout,
    )


def test_volume_l_fixture_golden() -> None:
    proc = _run("volume", "--fixture", "L", "--l", "4")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["tlvol"] == "2"
    assert data["qtvol_plus"] == "4"
    assert data["tlvol_witness"] == [0, 1, 2]
    assert data["surface"] == {"discrete": "3", "lower": "3", "upper": "3"}
    assert data["i_volumes"]["1"]["plus"] == "3"
    assert data["i_volumes"]["2"]["minus"] == "2"


def test_volume_4d_fixture_golden() -> None:
    proc = _run("volume", "--fixture", "4D")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["tlvol"] == "-inf"
    assert data["i_volumes"]["2"]["plus"] == "18"
    assert data["i_volumes"]["2"]["minus"] == "2"
    assert data["i_volumes"]["1"]["plus"] == "9"
    assert data["i_volumes"]["1"]["minus"] == "9"
    assert data["i_volumes"]["3"]["plus"] == "-inf"
    assert data["i_volumes"]["4"]["plus"] == "-inf"


def test_volume_cube_fixture_golden() -> None:
    proc = _run("volume", "--fixture", "cube", "--d", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["tlvol"] == "0"
    assert data["tvol"] == "unique"
    # The absorbing generator keeps the cube outside the finite-entry
    # regime of the i-volumes and surface measures.
    assert data["i_volumes"] is None
    assert data["surface"] is None


def test_volume_output_is_byte_stable() -> None:
    first = _run("volume", "--fixture", "L", "--l", "4")
    second = _run("volume", "--fixture", "L", "--l", "4")
    assert first.stdout == second.stdout
    assert first.stdout.endswith("}\n")
    parsed = json.loads(first.stdout)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == first.stdout


def test_volume_method_both_cross_checks() -> None:
    proc = _run("volume", "--fixture", "L", "--l", "4", "--method", "both")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tlvol"] == "2"


def test_volume_i_filter() -> None:
    proc = _run("volume", "--fixture", "L", "--l", "4", "--i", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert list(data["i_volumes"]) == ["2"]
    out_of_range = _run("volume", "--fixture", "L", "--l", "4", "--i", "5")
    assert out_of_range.returncode == 2


def test_volume_i_is_checked_before_the_report_is_built() -> None:
    # a guard of 1 trips the report's first scan, so the report must not run
    proc = _run("volume", "--fixture", "L", "--i", "3", "--guard", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: i must lie in 1..2, got 3\n"


def test_volume_text_format() -> None:
    proc = _run("volume", "--fixture", "L", "--l", "4", "--format", "text")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "tlvol: 2" in lines
    assert "qtvol_plus: 4" in lines
    assert "i_volumes.1.plus_witness: 3 3" in lines
    assert "surface.discrete: 3" in lines


def test_volume_out_file(tmp_path: Path) -> None:
    target = tmp_path / "report.json"
    proc = _run("volume", "--fixture", "L", "--l", "4", "--out", str(target))
    assert proc.returncode == 0
    reference = _run("volume", "--fixture", "L", "--l", "4")
    assert target.read_text() == reference.stdout


def test_volume_from_input_file(tmp_path: Path) -> None:
    source = tmp_path / "matrix.json"
    source.write_text(fix_l(4).to_json())
    proc = _run("volume", "--input", str(source))
    reference = _run("volume", "--fixture", "L", "--l", "4")
    assert proc.returncode == 0
    assert proc.stdout == reference.stdout


@pytest.mark.parametrize(
    "rows, entries", [(3, [[0, 1], [1, 0], [2, 2]]), (2, [[0], [1]])]
)
def test_volume_with_fewer_columns_than_rows(
    tmp_path: Path, rows: int, entries: list
) -> None:
    source = tmp_path / "wide.json"
    source.write_text(
        json.dumps({"rows": rows, "cols": len(entries[0]), "entries": entries})
    )
    proc = _run("volume", "--input", str(source))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["tvol"] == "-inf"
    assert data["tvol_witness"] is None
    assert data["qtvol_plus"] == "-inf"


def test_volume_square_matrix_with_minus_inf_tvol_has_no_witness(
    tmp_path: Path,
) -> None:
    # Every permutation meets a -inf entry, so tvol and qtvol+ are -inf and,
    # as for every other shape, neither has a witness.
    source = tmp_path / "square.json"
    source.write_text(
        json.dumps({"rows": 2, "cols": 2, "entries": [[0, "-inf"], [0, "-inf"]]})
    )
    proc = _run("volume", "--input", str(source))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["tvol"] == "-inf"
    assert data["tvol_witness"] is None
    assert data["qtvol_plus"] == "-inf"
    assert data["qtvol_plus_witness"] is None


def test_volume_triangulates_negative_entries() -> None:
    subsets = _run("volume", "--fixture", "DELTA2")
    for method in ("triangulation", "both"):
        proc = _run("volume", "--fixture", "DELTA2", "--method", method)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["tlvol"] == json.loads(subsets.stdout)["tlvol"]
    assert proc.stdout == subsets.stdout


def test_ehrhart_l_shape_golden_bytes() -> None:
    proc = _run("ehrhart", "--fixture", "L", "--l", "4", "--b", "2", "--kmax", "3")
    assert proc.returncode == 0
    assert proc.stdout == EHRHART_L4_GOLDEN


def test_ehrhart_triangle_degree_one_coefficient() -> None:
    proc = _run("ehrhart", "--fixture", "tri", "--l", "3", "--k", "1", "--b", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["coeffs"][1] == "5"
    assert data["agree"] is True


def test_ehrhart_alcove_golden() -> None:
    proc = _run("ehrhart", "--fixture", "alcove", "--a", "1,2", "--b", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coeffs"] == ["1", "4", "4"]


def test_ehrhart_rejects_minus_inf_entries() -> None:
    proc = _run("ehrhart", "--fixture", "cube", "--d", "2")
    assert proc.returncode == 2
    assert "finite" in proc.stderr


def test_guard_flag_and_environment() -> None:
    via_flag = _run(
        "ehrhart", "--fixture", "L", "--l", "4", "--b", "3", "--kmax", "3",
        "--guard", "10",
    )
    assert via_flag.returncode == 3
    assert via_flag.stderr.startswith("guard exceeded:")
    via_env = _run(
        "ehrhart", "--fixture", "L", "--l", "4", "--b", "3", "--kmax", "3",
        env={"TROPEVOL_GUARD": "10"},
    )
    assert via_env.returncode == 3


def test_ehrhart_huge_kmax_stops_at_the_first_box_past_the_guard() -> None:
    # the one box scan walks k up from 0, so a huge kmax costs nothing: the
    # first k whose box does not fit (k = 9) raises its own guard error
    proc = _run("ehrhart", "--fixture", "L", "--l", "4", "--kmax", "1000000", timeout=30)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "guard exceeded: max-times box scan needs about 16785409 steps, "
        "guard is 10000000\n"
    )


def test_ehrhart_tight_guard_skips_only_the_verification() -> None:
    # k = 3 (4225 steps) does not fit 2000: the counts at k = 0..2 and both
    # coefficient routes are unchanged, the k = d + 1 check is skipped
    tight = _run("ehrhart", "--fixture", "L", "--l", "4", "--guard", "2000", timeout=30)
    assert tight.returncode == 0, tight.stderr
    assert tight.stdout == _run("ehrhart", "--fixture", "L", "--l", "4").stdout
    past = _run(
        "ehrhart", "--fixture", "L", "--l", "4", "--kmax", "3", "--guard", "2000",
        timeout=30,
    )
    assert past.returncode == 3
    assert past.stderr == (
        "guard exceeded: max-times box scan needs about 4225 steps, guard is 2000\n"
    )


def test_check_single_suite_text_and_json() -> None:
    text = _run("check", "--suite", "kleene", "--cases", "5")
    assert text.returncode == 0
    assert text.stdout == "kleene: PASS (5 cases)\n"
    as_json = _run("check", "--suite", "kleene", "--cases", "5", "--format", "json")
    assert as_json.returncode == 0
    data = json.loads(as_json.stdout)
    assert data["seed"] == 0
    assert data["suites"] == [
        {
            "cases": 5,
            "failures": [],
            "name": "kleene",
            "passed": True,
            "warnings": [],
        }
    ]


def test_check_all_suites_small_budget() -> None:
    proc = _run("check", "--cases", "2", "--seed", "1")
    assert proc.returncode == 0
    lines = [line for line in proc.stdout.splitlines() if line]
    assert len(lines) >= 10
    assert all(": PASS" in line for line in lines)


def test_check_deterministic_for_seed() -> None:
    first = _run("check", "--suite", "cross-volume", "--cases", "3", "--seed", "7",
                 "--format", "json")
    second = _run("check", "--suite", "cross-volume", "--cases", "3", "--seed", "7",
                  "--format", "json")
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_check_unknown_suite() -> None:
    proc = _run("check", "--suite", "nosuch")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: unknown suite 'nosuch'; available: semiring, membership, "
        "assignment, kleene, cauchy-binet, sign-generic, cells, ehrhart, "
        "cross-volume, theorems, volume-properties, conjecture\n"
    )


# cases per suite in a plain `tropevol check`: each suite's signature default
CHECK_DEFAULT_CASES = {
    "semiring": 120,
    "membership": 25,
    "assignment": 500,
    "kleene": 80,
    "cauchy-binet": 200,
    "sign-generic": 100,
    "cells": 20,
    "ehrhart": 15,
    "cross-volume": 100,
    "theorems": 50,
    "volume-properties": 50,
    "conjecture": 15,
}


def test_plain_check_runs_each_suite_at_its_signature_default(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    defaults = {
        name: inspect.signature(suite).parameters["cases"].default
        for name, suite in checks.SUITES.items()
    }
    assert defaults == CHECK_DEFAULT_CASES
    calls = {}

    def recorder(name):
        def run(**kwargs):
            calls[name] = kwargs
            return checks.SuiteResult(name)

        return run

    for name in list(checks.SUITES):
        monkeypatch.setitem(checks.SUITES, name, recorder(name))
    assert cli.main(["check", "--out", os.devnull]) == 0
    assert calls == {name: {"seed": 0} for name in CHECK_DEFAULT_CASES}


def test_plot_l_shape_svg() -> None:
    proc = _run("plot", "--fixture", "L", "--l", "4")
    assert proc.returncode == 0
    svg = proc.stdout
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert 'fill="#cfe3f7"' in svg
    assert 'stroke-width="2"' in svg
    assert 'fill="#c23b22"' in svg
    again = _run("plot", "--fixture", "L", "--l", "4")
    assert again.stdout == svg


def test_plot_triangle_svg() -> None:
    proc = _run("plot", "--fixture", "tri", "--l", "3", "--k", "0")
    assert proc.returncode == 0
    assert "<polygon" in proc.stdout


# sha256 of `plot` stdout, measured before the dots were read off the box
# scan's fibres (they came from a point-by-point residuation test), so the
# SVG bytes of every dot, red or grey, are pinned.  DELTA2 has negative
# entries and so no dots, whatever the base.
PLOT_SOURCES = {
    "L-3": ["--fixture", "L", "--l", "3"],
    "L-4": ["--fixture", "L", "--l", "4"],
    "TRI-3-0": ["--fixture", "TRI", "--l", "3", "--k", "0"],
    "TRI-3-2": ["--fixture", "TRI", "--l", "3", "--k", "2"],
    "ALCOVE": ["--fixture", "ALCOVE"],
    "DELTA2": ["--fixture", "DELTA2"],
    "seed-0": 0,
    "seed-1": 1,
    "seed-2": 2,
}
PLOT_DIGESTS = {
    "L-3-b2": "6ff496cd69671a4eb3063b010f0765001f7a520778153eb1ce78d5eb3566875e",
    "L-3-b3": "d3ec075f139a1d160fafb9787a3031a7e9dc677f2a02d31e896e1744f26e5ddd",
    "L-3-b5": "92947b2f24ecbbb321df1ca276adf861f57d3a26bd39443b2cefb4bffda91105",
    "L-4-b2": "b9a1fbdc85c13e31f192b903c83d9405c99e0a2881a28a05a0b7da393a2765a1",
    "L-4-b3": "93da8d45a761705e82a086b31a7086ff43cfaa73166f2191bf9a5f1f4ed3c899",
    "L-4-b5": "06cf65f6b3ea94b9a8aa0264db627ba525ec7d6b0f0b8a682c47186c34da3821",
    "TRI-3-0-b2": "2d7cc53667417566734a6da167ce7cf95f62dfc3517b1cfb7e987cceba319e62",
    "TRI-3-0-b3": "291e84af021619a334c1e701a1334dee5463eb50fefe11c75cbe22cd9893e7a8",
    "TRI-3-0-b5": "0c9f0ef2d47b7f5a3425403e8677962667b57aca2116a832f7173fc3e86600e1",
    "TRI-3-2-b2": "934963d665ac1971d6a9a5d035dfc3ae29497e6494e7abee5a59dfca906e0a02",
    "TRI-3-2-b3": "3a543eed8ad3da60a28d68fca2280400db55d07e0ff179bb3b455187b018cad2",
    "TRI-3-2-b5": "954f63a3723d505b52e6f58eef39df060173b100647eb4b2c98ca26d9a779537",
    "ALCOVE-b2": "0da48f6b73303d537c93dbc29685ee4e192e361381d00f1d9517e03a977ecc1d",
    "ALCOVE-b3": "543c1d2f9dc673e1c0b244855b281ec50715ec39e1776ddaff82e64c10ca66f9",
    "ALCOVE-b5": "cbb51b23385d444e5c52f597d04174a35569a3f84b7ef531db17d079d4bb7c4f",
    "DELTA2-b2": "7776cb0ecc2c55022b29057715f927e11025febfc5d2030ca74fb2665fd2f234",
    "DELTA2-b3": "7776cb0ecc2c55022b29057715f927e11025febfc5d2030ca74fb2665fd2f234",
    "DELTA2-b5": "7776cb0ecc2c55022b29057715f927e11025febfc5d2030ca74fb2665fd2f234",
    "seed-0-b2": "81d01f396312159b3dcaa633930e640556f22d436f7051301b0908e72d6d7487",
    "seed-0-b3": "e2f5503eb13f07596cb92aac99b710935b95d1b09a67dd31cf3008b3f9e62105",
    "seed-0-b5": "2ff930503995dcf9d4e04fb89f946f4edae267ce5bb47f3455fc21369b432dd4",
    "seed-1-b2": "c685f6e086aa4e1fb892bba049c234a0784080365f2f538d5a090d39fd747548",
    "seed-1-b3": "1b15b94ba3aacd3b993445c9170092e60ea1422ad9c457ca38261e5a2761ff86",
    "seed-1-b5": "2b0d8dff0e603ee28d49e67aa9f3f8d20eb4d954e3c72f4aff95c7ddd0076bc0",
    "seed-2-b2": "92bf846e1de144acbbf31c9761fdbcdd0ce6efcd02137b90f5934188e882f8bb",
    "seed-2-b3": "0571382d034240c165471c8cf2da9d415968781b70c7fc8a28dd37ba62db8f26",
    "seed-2-b5": "12bd6e5f5ef1744c6223698c7e7b9b1c1a0fc5ff6234b46635ed6836b9b78f1d",
}


@pytest.mark.parametrize("case", sorted(PLOT_DIGESTS))
def test_plot_bytes_are_pinned(
    case: str, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    name, b = case.rsplit("-b", 1)
    source = PLOT_SOURCES[name]
    if isinstance(source, int):
        # a seeded 2 x 3 matrix with entries in 0..3, given as --input
        rng = random.Random(source)
        rows = [[rng.randint(0, 3) for _ in range(3)] for _ in range(2)]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": 2, "cols": 3, "entries": rows}))
        source = ["--input", str(path)]
    assert cli.main(["plot", *source, "--b", b]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PLOT_DIGESTS[case]


def test_plot_rejects_higher_dimension() -> None:
    proc = _run("plot", "--fixture", "4D")
    assert proc.returncode == 2
    assert "two rows" in proc.stderr


def test_plot_requires_integer_entries(tmp_path: Path) -> None:
    source = tmp_path / "frac.json"
    source.write_text(
        json.dumps({"rows": 2, "cols": 3, "entries": [[0, "1/2", 1], [0, 0, 1]]})
    )
    proc = _run("plot", "--input", str(source))
    assert proc.returncode == 2


def test_parse_and_validation_exits() -> None:
    assert _run("volume", "--fixture", "nosuch").returncode == 2
    assert _run("volume", "--input", "/nonexistent.json").returncode == 2
    assert _run("ehrhart", "--fixture", "L", "--b", "1").returncode == 2
    assert _run("volume", "--fixture", "L", "--definitely-not-a-flag").returncode == 2
    negative = _run("check", "--suite", "kleene", "--cases", "-3")
    assert (negative.returncode, negative.stdout) == (2, "")
    assert negative.stderr == "error: cases must be a nonnegative integer, got -3\n"


@pytest.mark.parametrize(
    "text, stderr",
    [
        ('{"rows": 1, "cols": 1, "entries": 5}', "error: entries must be a list of rows, each a list\n"),
        ('{"rows": 1, "cols": 1, "entries": [5]}', "error: entries must be a list of rows, each a list\n"),
        ('{"rows": true, "cols": 1, "entries": [[5]]}', "error: rows/cols must be integers\n"),
    ],
)
def test_malformed_matrix_json_exits_two(tmp_path: Path, text: str, stderr: str) -> None:
    path = tmp_path / "m.json"
    path.write_text(text)
    proc = _run("volume", "--input", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", stderr)


@pytest.mark.parametrize(
    "case, stderr",
    [
        (
            "input not utf-8",
            "error: cannot read {input}: 'utf-8' codec can't decode byte 0xff in position 0:"
            " invalid start byte",
        ),
        ("out a directory", "error: cannot write {out}: [Errno 21] Is a directory: '{out}'"),
        (
            "out in a missing directory",
            "error: cannot write {out}: [Errno 2] No such file or directory: '{out}'",
        ),
    ],
)
def test_unreadable_input_and_unwritable_out_exit_two(
    tmp_path: Path, case: str, stderr: str
) -> None:
    # file errors on either side of a report are validation errors, not tracebacks
    source = tmp_path / "m.json"
    out = {
        "input not utf-8": tmp_path / "report.json",
        "out a directory": tmp_path,
        "out in a missing directory": tmp_path / "missing" / "report.json",
    }[case]
    if case == "input not utf-8":
        source.write_bytes(b'\xff{"rows": 1, "cols": 1, "entries": [[0]]}')
    else:
        source.write_text('{"rows": 1, "cols": 1, "entries": [[0]]}')
    proc = _run("volume", "--input", str(source), "--out", str(out))
    first = proc.stderr.splitlines()[0] if proc.stderr else ""
    assert (proc.returncode, proc.stdout, first) == (
        2, "", stderr.format(input=source, out=out)
    )
    assert case != "input not utf-8" or not out.exists()


def test_volume_subset_sweep_past_the_guard_exits_three(tmp_path: Path) -> None:
    # a 5x40 report would expand C(40, 5) * 5! = 78,960,960 terms; the
    # charge trips before the sweep, under the default guard
    rng = random.Random(0)
    rows = [[rng.randint(0, 3) for _ in range(40)] for _ in range(5)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": 5, "cols": 40, "entries": rows}))
    proc = _run("volume", "--input", str(path), timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "guard exceeded: column subset sweep needs about 78960960 steps, guard is 10000000\n"
    )


def test_plot_rejects_base_below_two() -> None:
    proc = _run("plot", "--fixture", "L", "--b", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: base must be")


def test_check_takes_guard_only_from_environment() -> None:
    proc = _run("check", "--suite", "ehrhart", "--cases", "2", "--guard", "1")
    assert proc.returncode == 2
    assert "--guard" in proc.stderr
    via_env = _run("check", "--suite", "ehrhart", "--cases", "2", env={"TROPEVOL_GUARD": "1"})
    assert via_env.returncode == 3


def test_cross_check_failure_maps_to_exit_four(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    import tropevol.volumes as volumes

    monkeypatch.setattr(volumes, "_tlvol_from_table", lambda m, table: (99, (0, 1, 2)))
    code = cli.main(["volume", "--fixture", "L", "--l", "4", "--method", "both"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("cross-check mismatch:")


def test_ehrhart_disagreement_writes_report_and_exits_four(
    monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    import tropevol.ehrhart as ehrhart

    # the report sums the formula through its private core, on arguments it checked
    monkeypatch.setattr(ehrhart, "_formula_sum", lambda tally, d, b, guard: (0, 0, 0))
    target = tmp_path / "report.json"
    code = cli.main(["ehrhart", "--fixture", "L", "--l", "4", "--out", str(target)])
    assert code == 4
    report = json.loads(target.read_text(encoding="utf-8"))
    assert report["agree"] is False
    assert report["coeffs"] == ["1", "15/2", "1/2"]
    assert report["formula_coeffs"] == ["0", "0", "0"]


def test_main_in_process_matches_subprocess(capsys: pytest.CaptureFixture) -> None:
    code = cli.main(["ehrhart", "--fixture", "alcove", "--a", "1,2", "--b", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["coeffs"] == ["1", "4", "4"]


def test_parser_is_built_once_and_survives_a_parse_error(
    capsys: pytest.CaptureFixture,
) -> None:
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["volume", "--fixture", "L", "--definitely-not-a-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    args = ["ehrhart", "--fixture", "TRI", "--l", "3", "--k", "2", "--b", "3"]
    code = cli.main(args)
    captured = capsys.readouterr()
    fresh = _run(*args)
    assert (code, captured.out, captured.err) == (
        fresh.returncode, fresh.stdout, fresh.stderr
    )
