"""Tests for the self-check harness itself."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from tropevol import cells, checks
from tropevol.checks import SUITES, SuiteResult, run_suites
from tropevol.core import TropMatrix
from tropevol.errors import ValidationError
from tropevol.ratlp import simplex_max


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
    with pytest.raises(ValidationError) as info:
        run_suites(names=["semiring", "nosuch"])
    assert str(info.value) == (
        "unknown suite 'nosuch'; available: " + ", ".join(SUITES)
    )


def test_conjecture_suite_reports_warnings_not_failures() -> None:
    result = run_suites(names=["conjecture"], seed=0, cases=10)[0]
    assert result.passed
    assert result.warnings == []


def test_volume_properties_triangulates_each_matrix_once(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Per case at most: the matrix, its translate, the column subset, the
    # extended matrix, the permuted copy and the two signed rotations once
    # each.  Before the complexes were shared: 237 on 10 cases.
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


@pytest.mark.parametrize(
    "fault, kind",
    [
        ("top difference ignored", "for degree"),
        ("extras skipped", "off by 1"),
        ("repeated node divides by zero", "repeated"),
    ],
)
def test_volume_properties_catches_a_faulty_log_map(
    monkeypatch: pytest.MonkeyPatch, fault: str, kind: str
) -> None:
    # the suite's own polynomials reach log_map's top divided difference, its
    # extras check and its distinct-node check; the other suites never do
    real = checks.log_map

    def faulty(samples, bound):
        if fault == "extras skipped":
            return real(samples[: bound + 1], bound)
        if fault == "repeated node divides by zero":
            if len({b for b, _ in samples[: bound + 1]}) <= bound:
                raise ZeroDivisionError("division by zero")
            return real(samples, bound)
        degree = real(samples, bound)
        return bound - 1 if degree == bound else degree

    monkeypatch.setattr(checks, "log_map", faulty)
    result = run_suites(names=["volume-properties"], seed=0)[0]
    *shown, suppressed = result.failures
    assert suppressed == "... more failures suppressed"
    assert all(msg.startswith("log_map gives ") and kind in msg for msg in shown)


@pytest.mark.parametrize(
    "name, per_case",
    [
        # the matrix, plus its translates at b = 2 and b = 3 (before: 8)
        ("ehrhart", 3),
        # the matrix, shared by both tlvol routes and the cell count (before: 2)
        ("cross-volume", 1),
        # one complex per instance, plus the reciprocity sampler's redraws
        # of impure random matrices (before: 44 on 27 cases)
        ("theorems", 1.2),
        # one complex per instance, shared by every Log c_i (before: one per row)
        ("conjecture", 1),
    ],
)
def test_counting_suites_triangulate_each_matrix_once(
    monkeypatch: pytest.MonkeyPatch, name: str, per_case: float
) -> None:
    calls = []
    original = cells.enumerate_triangulation

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cells, "enumerate_triangulation", counting)
    monkeypatch.setattr(checks, "enumerate_triangulation", counting)
    result = run_suites(names=[name], seed=0, cases=10)[0]
    assert result.passed
    assert len(calls) <= per_case * result.cases


def test_cross_volume_compares_the_table_on_minus_inf_entries(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Each case adds a matrix with about 15% -inf entries and d to d + 2
    # columns to the table's comparison with the expansion, so a table that
    # reads -inf as 0, or errs only on square inputs, fails the suite.
    met = Counter()
    original = checks._best_two_brute

    def counting(m, js):
        want = original(m, js)
        met["subsets"] += 1
        met["-inf entries"] += sum(row[j] is None for row in m.entries for j in js)
        met["subsets with a -inf entry"] += any(row[j] is None for row in m.entries for j in js)
        met["no finite term"] += want[0] is None
        met["square"] += m.cols == m.rows
        return want

    monkeypatch.setattr(checks, "_best_two_brute", counting)
    result = run_suites(names=["cross-volume"], seed=0, cases=100)[0]
    assert result.passed
    # seed 0 met 620 subsets, 291 -inf entries in 186 of them, 6 without a
    # finite term, and 41 square inputs
    assert met["-inf entries"] >= 200 and met["subsets with a -inf entry"] >= 100, met
    assert met["square"] >= 20 and met["no finite term"] >= 3, met


@pytest.mark.parametrize("seed", [2, 3])
def test_theorems_suite_passes_on_point_hull_seeds(seed: int) -> None:
    # these seeds draw 1-row matrices with equal entries, whose hull is a point
    result = run_suites(names=["theorems"], seed=seed)[0]
    assert result.failures == []


def _in_conv_by_lp(vertices, x) -> bool:
    """Classical membership of x in conv(vertices) as LP feasibility."""
    p = len(vertices)
    rows = [[Fraction(v[r]) for v in vertices] for r in range(len(x))]
    rhs = [Fraction(c) for c in x]
    try:
        simplex_max([Fraction(0)] * p, rows + [[Fraction(1)] * p], rhs + [Fraction(1)])
    except ValidationError:
        return False
    return True


def test_chain_membership_matches_lp_feasibility() -> None:
    rng = random.Random(1908)
    inside = outside = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        m = TropMatrix.from_rows(
            [[rng.randint(0, 3) for _ in range(cols)] for _ in range(d)]
        )
        for c in cells.enumerate_triangulation(m).cells:
            vs = c.vertices
            weights = [rng.randint(0, 3) for _ in vs]
            weights[0] += 1
            combo = tuple(
                Fraction(sum(w * v[r] for w, v in zip(weights, vs)), sum(weights))
                for r in range(d)
            )
            points = [
                *vs,  # vertices
                c.relative_interior_point(),  # inside
                combo,  # in the closed cell, on a proper face where a weight is 0
                tuple(x + Fraction(rng.choice((-1, 1)), 3) for x in combo),
                tuple(Fraction(rng.randint(-2, 14), 3) for _ in range(d)),
            ]
            for x in points:
                got = checks._in_simplex(vs, x)
                assert got == _in_conv_by_lp(vs, x), (vs, x)
                inside += got
                outside += not got
    assert inside > 500 and outside > 500
