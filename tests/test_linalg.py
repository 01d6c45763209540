"""Tropical determinants, stars, minors, rank and genericity."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropevol.checks import _best_two_brute
from tropevol.core import MINUS_INF, TropMatrix, tadd
from tropevol.errors import ValidationError
from tropevol.linalg import (
    BRUTE_LIMIT,
    UNIQUE_GAP,
    _column_subset_table,
    _expansion_terms,
    _nonsingular_given,
    bideterminant,
    is_nonsingular,
    is_nonsingular_brute,
    is_sign_generic,
    kleene_star,
    tdet,
    tdet_brute,
    tdet_second,
    tminor,
    tropical_rank,
    tvol_max_sub,
    tvol_square,
)


@st.composite
def square_matrices(draw, max_n=4, lo=-9, hi=9, inf_chance=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if draw(st.integers(min_value=0, max_value=inf_chance)) == 0:
                row.append(None)
            else:
                row.append(draw(st.integers(min_value=lo, max_value=hi)))
        rows.append(tuple(row))
    return TropMatrix(tuple(rows), allow_minus_inf_columns=True)


def test_tdet_examples():
    m = TropMatrix.from_rows([[0, 2], [1, 0]])
    r = tdet(m)
    assert r.value == 3
    assert r.sigma == (1, 0)
    assert tdet_brute(m) == 3
    assert tdet_second(m) == 0
    assert tvol_square(m) == 3
    with pytest.raises(ValidationError):
        tdet(TropMatrix.from_rows([[0, 1, 2], [0, 1, 2]]))


def test_tdet_all_minus_inf_permutations():
    m = TropMatrix.from_rows([[0, 0], [None, None]], allow_minus_inf_columns=True)
    assert tdet(m).value is MINUS_INF
    assert tdet_brute(m) is MINUS_INF


def test_tdet_duals_certify_optimality():
    m = TropMatrix.from_rows([[0, 2, None], [1, 0, 4], [None, 3, 1]])
    r = tdet(m)
    assert r.value == tdet_brute(m)
    assert r.value == sum(r.u) + sum(r.v)
    for i in range(3):
        for j in range(3):
            e = m.entries[i][j]
            if e is not None:
                assert r.u[i] + r.v[j] >= e
        assert r.u[i] + r.v[r.sigma[i]] == m.entries[i][r.sigma[i]]


@given(m=square_matrices())
@settings(max_examples=150, deadline=None)
def test_tdet_matches_brute_force(m):
    r = tdet(m)
    assert r.value == tdet_brute(m)
    if r.value is not MINUS_INF:
        # the reported permutation attains the optimum
        attained = sum(m.entries[i][r.sigma[i]] for i in range(m.rows))
        assert attained == r.value


def test_tdet_second_and_unique_marker():
    u = TropMatrix.from_rows([[0, None], [None, 0]], allow_minus_inf_columns=True)
    assert tdet_second(u) is MINUS_INF
    assert tvol_square(u) is UNIQUE_GAP
    tie = TropMatrix.from_rows([[0, 0], [0, 0]])
    assert tdet_second(tie) == 0
    assert tvol_square(tie) == 0


@given(m=square_matrices(max_n=4, lo=-2, hi=2))
@settings(max_examples=150, deadline=None)
def test_best_two_terms_match_the_sorted_expansion(m):
    # Narrow entries make ties at the top common; the second value then
    # equals the top one, wherever the tying permutation comes in order.
    n = m.rows
    terms = sorted(
        sum(m.entries[i][s[i]] for i in range(n))
        for s in itertools.permutations(range(n))
        if all(m.entries[i][s[i]] is not None for i in range(n))
    )
    second = terms[-2] if len(terms) >= 2 else MINUS_INF
    assert tdet_second(m) == second
    if not terms:
        assert tvol_square(m) is MINUS_INF
    elif second is MINUS_INF:
        assert tvol_square(m) is UNIQUE_GAP
    else:
        assert tvol_square(m) == terms[-1] - second


def _subset_table_cases():
    """Seeded d x n inputs, n = d..d+3: entries 0..3, 15% of them -inf, and a
    duplicated column in about a fifth; then five 7- and 8-row inputs."""
    rng = random.Random(31)
    for case in range(1500):
        d = 6 if case % 25 == 0 else rng.randint(1, 5)
        n = rng.randint(d, d + 3)
        rows = [
            [None if rng.random() < 0.15 else rng.randint(0, 3) for _ in range(n)]
            for _ in range(d)
        ]
        if n > 1 and rng.random() < 0.2:
            src, dst = rng.sample(range(n), 2)
            for row in rows:
                row[dst] = row[src]
        yield rows
    for d, n in ((7, 7), (7, 8), (7, 9), (8, 8), (8, 9)):
        yield [[rng.randint(0, 1) for _ in range(n)] for _ in range(d)]


def test_subset_table_matches_the_expansion_oracle():
    # The table is a dynamic programme over column sets; the oracle expands
    # every permutation of every subset.  Values, witnesses and key order
    # must all agree.
    kinds = dict.fromkeys(("tied top", "unique term", "no term", "tie past row 0"), 0)
    for rows in _subset_table_cases():
        m = TropMatrix.from_rows(rows, allow_minus_inf_columns=True)
        table = _column_subset_table(m)
        want = {js: _best_two_brute(m, js) for js in itertools.combinations(range(m.cols), m.rows)}
        assert table == want, rows
        assert list(table) == list(want), rows
        for js, (best, second, top) in want.items():
            if best is None:
                kinds["no term"] += 1
            elif second is None:
                kinds["unique term"] += 1
            elif second == best:
                kinds["tied top"] += 1
                tops = [s for s, t in _expansion_terms(rows, js, "oracle") if t == best]
                if any(s != top and s[0] == top[0] for s in tops):
                    kinds["tie past row 0"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_second_best_past_the_expansion_limit():
    # Past BRUTE_LIMIT the second-best value is refused when a finite term
    # exists, and is -inf when none does (a Hungarian solve decides which).
    n = BRUTE_LIMIT + 1
    finite = TropMatrix.from_rows([[(i * j) % 3 for j in range(n)] for i in range(n)])
    for call in (tdet_second, tvol_square):
        with pytest.raises(ValidationError) as info:
            call(finite)
        assert str(info.value) == f"second-best value limited to n <= {BRUTE_LIMIT}"
    # the first and the last row are -inf but in column 0, so every term is -inf
    only_first = [0] + [None] * (n - 1)
    blocked = TropMatrix.from_rows(
        [only_first] + [[0] * n for _ in range(n - 2)] + [only_first],
        allow_minus_inf_columns=True,
    )
    assert tdet(blocked).value is MINUS_INF
    assert tdet_second(blocked) is MINUS_INF
    assert tvol_square(blocked) is MINUS_INF


def test_tvol_max_sub():
    m = TropMatrix.from_rows([[0, 2, 5], [1, 0, 0]])
    value, cols = tvol_max_sub(m)
    assert value == 6
    assert cols == (0, 2)


@given(m=square_matrices(max_n=4))
@settings(max_examples=100, deadline=None)
def test_nonsingularity_matches_brute_force(m):
    assert is_nonsingular(m) == is_nonsingular_brute(m)


def _nonsingular_cases(rng):
    """Seeded square matrices, n = 1..8, entries 0..3 or 0..6 with 0-50% -inf
    cells; a quarter of them copy one column over another."""
    for n, count in ((1, 60), (2, 300), (3, 400), (4, 500), (5, 700), (6, 500), (7, 20), (8, 6)):
        for _ in range(count):
            share = rng.choice((0, 0.1, 0.2, 0.3, 0.4, 0.5))
            top = rng.choice((3, 6))
            rows = [[None if rng.random() < share else rng.randint(0, top) for _ in range(n)]
                    for _ in range(n)]
            if n > 1 and rng.random() < 0.25:
                src, dst = rng.sample(range(n), 2)
                for row in rows:
                    row[dst] = row[src]
            yield TropMatrix.from_rows(rows, allow_minus_inf_columns=True)


def test_nonsingular_cycle_test_matches_brute_force_on_seeded_matrices():
    # The acyclicity test on the tight graph against the full expansion.
    # Floors: singular matrices with a finite value, among them some whose
    # shortest tight cycle has length >= 3 (every second optimal assignment
    # moves at least three rows), and optimal assignments off the identity.
    kinds = dict.fromkeys(("singular finite", "cycle >= 3", "sigma off identity", "nonsingular"), 0)
    for m in _nonsingular_cases(random.Random(1986)):
        res = tdet(m)
        got = _nonsingular_given(m, res)
        assert got == is_nonsingular_brute(m), m.entries
        if res.value is None:
            continue
        if res.sigma != tuple(range(m.rows)):
            kinds["sigma off identity"] += 1
        if got:
            kinds["nonsingular"] += 1
            continue
        kinds["singular finite"] += 1
        optimal = [s for s, t in _expansion_terms(m.entries, range(m.rows), "oracle") if t == res.value]
        moved = min(sum(a != b for a, b in zip(s, res.sigma)) for s in optimal if s != res.sigma)
        if moved >= 3:
            kinds["cycle >= 3"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_nonsingular_examples():
    assert is_nonsingular(TropMatrix.from_rows([[0, 5], [5, 0]]))
    assert not is_nonsingular(TropMatrix.from_rows([[0, 0], [0, 0]]))


def test_kleene_star_properties():
    c = TropMatrix.from_rows([[0, -1], [-2, 0]])
    s = kleene_star(c)
    assert s.entries == ((0, -1), (-2, 0))
    # star is idempotent and dominates its argument
    ss = kleene_star(s)
    assert ss.entries == s.entries
    with pytest.raises(ValidationError):
        kleene_star(TropMatrix.from_rows([[0, 1], [0, 0]]))


def test_kleene_star_transitive_closure():
    c = TropMatrix.from_rows([[0, -1, None], [None, 0, -1], [None, None, 0]],)
    s = kleene_star(c)
    assert s.entries[0][2] == -2  # two-step path beats the missing direct edge


def _longest_simple_paths(rows):
    """Oracle: the best weight over the simple paths i -> j (0 for i = j)."""
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 0
        for j in range(n):
            if i == j:
                continue
            others = [k for k in range(n) if k not in (i, j)]
            for r in range(len(others) + 1):
                for mid in itertools.permutations(others, r):
                    path = (i, *mid, j)
                    weight = 0
                    for a, b in zip(path, path[1:]):
                        if rows[a][b] is None:
                            break
                        weight += rows[a][b]
                    else:
                        out[i][j] = tadd(out[i][j], weight)
    return out


def test_kleene_star_allows_positive_entries_without_positive_cycles():
    # W = N + p_i - p_j with N nonpositive: every cycle weighs what it
    # weighs in N, yet off-diagonal entries of W can be positive.
    rng = random.Random(2519)
    positive = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        p = [rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-6, 6), 5))) for _ in range(n)]
        rows = [
            [
                0 if i == j else None if rng.random() < 0.25 else rng.randint(-3, 0) + p[i] - p[j]
                for j in range(n)
            ]
            for i in range(n)
        ]
        positive += any(e is not None and e > 0 for row in rows for e in row)
        star = kleene_star(TropMatrix.from_rows(rows, allow_minus_inf_columns=True))
        assert [list(row) for row in star.entries] == _longest_simple_paths(rows), rows
    assert positive > 100
    for cyclic in ([[0, 1], [0, 0]], [[0, 1, None], [None, 0, 1], [-1, None, 0]]):
        with pytest.raises(ValidationError, match="positive cycles"):
            kleene_star(TropMatrix.from_rows(cyclic, allow_minus_inf_columns=True))
    with pytest.raises(ValidationError, match="zero diagonal"):
        kleene_star(TropMatrix.from_rows([[0, -1], [-1, 1]]))


def _brute_bideterminant(m):
    n = m.rows
    plus = None
    minus = None
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if perm[a] > perm[b]
        )
        term = (
            None
            if any(m.entries[i][perm[i]] is None for i in range(n))
            else sum(m.entries[i][perm[i]] for i in range(n))
        )
        if inversions % 2 == 0:
            plus = tadd(plus, term)
        else:
            minus = tadd(minus, term)
    return plus, minus


@given(m=square_matrices(max_n=4, lo=-5, hi=5))
@settings(max_examples=80, deadline=None)
def test_bideterminant_matches_permutation_split(m):
    d = bideterminant(m)
    plus, minus = _brute_bideterminant(m)
    assert d.plus == plus
    assert d.minus == minus
    assert tadd(d.plus, d.minus) == tdet(m).value


def test_tminor_examples():
    m = TropMatrix.from_rows([[0, 2], [1, 0]])
    assert tminor(m, 1) == (2, (0,), (1,))
    value, rows, cols = tminor(m, 2)
    assert value == 3
    sub = m.submatrix(rows, cols)
    assert tdet(sub).value == value


@given(m=square_matrices(max_n=4, lo=0, hi=6, inf_chance=6))
@settings(max_examples=40, deadline=None)
def test_tminor_is_max_over_submatrices(m):
    for i in range(1, m.rows + 1):
        value, rows, cols = tminor(m, i)
        best = MINUS_INF
        for rr in itertools.combinations(range(m.rows), i):
            for cc in itertools.combinations(range(m.cols), i):
                best = tadd(best, tdet(m.submatrix(rr, cc)).value)
        assert value == best


def test_tropical_rank():
    assert tropical_rank(TropMatrix.from_rows([[0, 0], [0, 0]])) == 1
    assert tropical_rank(TropMatrix.from_rows([[0, None], [None, 0]])) == 2
    m = TropMatrix.from_rows([[0, 1, 2], [1, 2, 3]])
    assert tropical_rank(m) == 1  # second row is a tropical multiple of the first


def test_sign_genericity():
    assert is_sign_generic(TropMatrix.from_rows([[0, 5], [5, 0]]), 2)
    dup = TropMatrix.from_rows([[1, 1], [3, 3]])
    assert not is_sign_generic(dup, 2)
