"""Tests for the self-check harness itself."""

from __future__ import annotations

import pytest

from tropevol import cells, checks
from tropevol.checks import SUITES, SuiteResult, run_suites
from tropevol.errors import ValidationError


def test_suite_result_bookkeeping() -> None:
    res = SuiteResult("demo")
    assert res.passed
    res.check(True, "never recorded")
    assert res.failures == []
    res.check(False, "first")
    assert not res.passed
    assert res.failures == ["first"]


def test_suite_result_caps_failure_list() -> None:
    res = SuiteResult("demo")
    for i in range(20):
        res.fail(f"failure {i}")
    assert len(res.failures) == 9
    assert res.failures[-1] == "... more failures suppressed"


def test_all_suites_pass_on_a_small_budget() -> None:
    results = run_suites(seed=3, cases=3)
    assert [r.name for r in results] == list(SUITES)
    for r in results:
        assert r.failures == [], f"{r.name}: {r.failures}"
        assert r.cases > 0


def test_run_suites_is_deterministic_for_a_seed() -> None:
    first = run_suites(names=["cross-volume"], seed=5, cases=4)[0]
    second = run_suites(names=["cross-volume"], seed=5, cases=4)[0]
    assert (first.cases, first.failures, first.warnings) == (
        second.cases,
        second.failures,
        second.warnings,
    )


def test_unknown_suite_name_rejected() -> None:
    with pytest.raises(ValidationError):
        run_suites(names=["nosuch"])


def test_conjecture_suite_reports_warnings_not_failures() -> None:
    result = run_suites(names=["conjecture"], seed=0, cases=10)[0]
    assert result.passed
    assert result.warnings == []


def test_volume_properties_triangulates_each_matrix_once(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Per case at most: the matrix, its nonnegative translate, the column
    # subset, the extended matrix, the permuted copy and the two signed
    # rotations once each, plus a translate with negative entries once per i
    # (at most 3 rows).  Before the complexes were shared: 237 on 10 cases.
    calls = []
    original = cells.enumerate_triangulation

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cells, "enumerate_triangulation", counting)
    monkeypatch.setattr(checks, "enumerate_triangulation", counting)
    result = run_suites(names=["volume-properties"], seed=0, cases=10)[0]
    assert result.passed
    assert len(calls) <= 9 * result.cases
