"""The four benchmark workloads: input generation, the timed item, its check.

A workload turns a seed into a *pool* of items, runs one item at a time (the
part the benchmark times), and checks an item's output by an independent
route afterwards (never inside the timed region).  Every item returns its
canonical output as bytes; the benchmark hashes those into a digest, so two
commits can show byte-identical results on the same inputs.

The pool is built from *rounds*.  A round is the smallest unit that holds the
workload's whole mix (every shape, every block constant, every suite).
``generate`` makes enough rounds for about one window of work at the commit
that defined the benchmark (``round_seconds`` is a round's cost there), and
at least MIN_ITEMS items.  The timed loop runs whole passes over the pool, so
every window measures the same mix.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import ceil, factorial

#: The library's built-in guard (``tropevol.guard.DEFAULT_GUARD``), passed
#: explicitly to every call so the caller's TROPEVOL_GUARD cannot change it.
GUARD = 10_000_000
#: Lattice base of the ``ehrhart`` and ``formula`` items.
BASE = 2
#: Fewest items in a pool, so that a pass has ten items beyond its tail item.
MIN_ITEMS = 20


def _fmt(value) -> str:
    """Render a value the way the volume report does: -inf, p/q or an integer."""
    if value is None:
        return "-inf"
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _matrix_json(rows) -> str:
    return json.dumps({"rows": len(rows), "cols": len(rows[0]), "entries": rows})


def _random_rows(rng, d, n, hi, pin_max):
    """A d x n integer matrix with entries in [0, hi].

    With pin_max every row reaches hi in one random column, so the row maxima,
    and with them the max-times box of every dilate, are the same for every
    draw of the family.
    """
    rows = [[rng.randint(0, hi) for _ in range(n)] for _ in range(d)]
    if pin_max:
        for row in rows:
            row[rng.randrange(n)] = hi
    return rows


class ItemFailed(Exception):
    """An item failed at a named stage (exit, check)."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


class Workload:
    """What every workload shares: the tropevol package and item families."""

    name = ""

    def __init__(self, tv, workdir):
        self.tv = tv
        self.workdir = workdir

    def family(self, item):
        """Label under which a traced run breaks down an item's self times."""
        return self.name

    def rounds(self, seconds, per_round):
        """Rounds for about `seconds` of work at the defining commit."""
        return max(ceil(MIN_ITEMS / per_round), round(seconds / self.round_seconds))


class CliWorkload(Workload):
    """Items are in-process ``tropevol.cli.main`` calls on matrix JSON files."""

    command = ""

    def prepare(self, pool):
        """Write each item's input file; returns the bytes written."""
        os.makedirs(self.workdir, exist_ok=True)
        self.paths = []
        data = []
        for idx, rows in enumerate(pool):
            path = os.path.join(self.workdir, f"in-{idx}.json")
            text = _matrix_json(rows)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths.append(path)
            data.append(text.encode())
        self.out_path = os.path.join(self.workdir, "out.json")
        return b"\n".join(data)

    def argv(self, idx, rows):
        return [self.command, "--input", self.paths[idx], "--out", self.out_path,
                "--guard", str(GUARD)]

    def run(self, idx, rows):
        rc = self.tv.cli.main(self.argv(idx, rows))
        if rc != 0:
            raise ItemFailed("exit", f"tropevol {self.command} exited {rc}")

    def output(self, idx, rows) -> bytes:
        with open(self.out_path, "rb") as fh:
            return fh.read()


class Volume(CliWorkload):
    """``tropevol volume`` on two families.

    (a) random 2-3 row x 3-5 column matrices, entries in [0, 3]: the report is
        dominated by the rational LP of the lower i-volumes, one per trunk cell;
    (b) 4-row two-block matrices shaped like fixture 4D (two 2x3 blocks with
        0/1 entries, off-diagonal constant BLOCK_CONSTANT): dominated by the
        membership scan of the sparse 4-D box, repeated once per triangulation.

    A report's cost follows its number of cells, about 2 ms a cell for 2 rows
    and 3 ms for 3 rows, and random matrices of one shape range from 3 to
    over 300 cells.  Drawn as they come, the items would spread over a 100x
    range of cost, so few would lie near the median and the median item
    would change with the seed.  So family (a) is drawn towards a target:
    per shape, DRAWS times as many candidates as items are drawn, and the
    ones whose cell count is nearest to TARGET_CELLS for their row count are
    kept.  The random items then cost about 30 to 150 ms each and set
    ``latency_p50_s``.  No candidate is redrawn, so generation does the same
    amount of work for every seed.

    Block items set ``latency_tail_s``.  There are BLOCKS of them, twice the
    ten items beyond the tail plus one, and each costs 0.4 to 0.7 s with
    constant 6, more than any random item.  The tail item is then the median
    block item.  Constant 5 costs 0.2 to 0.4 s an item, close to the
    slowest random items; 7 costs 0.7 to 1.4 s, too much for 21 in a window.
    """

    name = "volume"
    command = "volume"
    shapes = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]
    TARGET_CELLS = {2: 25, 3: 20}
    DRAWS = 4
    PER_SHAPE = 16
    BLOCK_CONSTANT = 6
    BLOCKS = 21
    round_seconds = 22.0

    def generate(self, rng, seconds):
        size = max(2, round(self.PER_SHAPE * seconds / self.round_seconds))
        per_shape = [self._near_target(rng, d, n, size) for d, n in self.shapes]
        randoms = [picks[j] for j in range(size) for picks in per_shape]
        blocks = [self._block(rng, self.BLOCK_CONSTANT) for _ in range(self.BLOCKS)]
        step = len(randoms) // len(blocks)
        pool = []
        for j, block in enumerate(blocks):
            pool += randoms[j * step:(j + 1) * step] + [block]
        return pool + randoms[len(blocks) * step:]

    def _near_target(self, rng, d, n, size):
        """`size` random d x n matrices with cell counts nearest the target."""
        target = self.TARGET_CELLS[d]
        drawn = []
        for _ in range(size * self.DRAWS):
            rows = _random_rows(rng, d, n, 3, pin_max=False)
            m = self.tv.TropMatrix.from_rows(rows)
            drawn.append((abs(len(self.tv.enumerate_triangulation(m, GUARD).cells) - target),
                          rows))
        drawn.sort(key=lambda distance_rows: distance_rows[0])
        picks = [rows for _distance, rows in drawn[:size]]
        rng.shuffle(picks)
        return picks

    def family(self, rows):
        return "block" if len(rows) == 4 else "random"

    @staticmethod
    def _block(rng, c):
        a = [[rng.randint(0, 1) for _ in range(3)] for _ in range(2)]
        b = [[rng.randint(0, 1) for _ in range(3)] for _ in range(2)]
        return [a[0] + [c] * 3, a[1] + [c] * 3, [c] * 3 + b[0], [c] * 3 + b[1]]

    def warmup(self):
        return [[0, 0, 3], [0, 1, 3]]  # fixture L, l = 4

    def check(self, idx, rows, out: bytes):
        """tlvol by triangulation must equal the reported (subsets) value."""
        report = json.loads(out)
        m = self.tv.TropMatrix.from_rows(rows)
        tri = _fmt(self.tv.tlvol_triangulation(m, GUARD)[0])
        if report["tlvol"] != tri:
            raise ItemFailed("check", f"tlvol {report['tlvol']} != triangulation {tri}")


class Ehrhart(CliWorkload):
    """``tropevol ehrhart --b 2 --kmax d`` on random matrices.

    2-3 rows x 3-4 columns; entries in [0, 7] for 2 rows and [0, 3] for 3 rows,
    the largest ranges whose k = d + 1 verification box still fits the guard.
    Every row reaches the top entry, so each item scans the same box sizes.
    3-row shapes come twice per round: their items cost about twice as much,
    and with a 2:1 mix the median item lies inside one family rather than in
    the gap between the two.
    """

    name = "ehrhart"
    command = "ehrhart"
    shapes = [(2, 3, 7), (2, 4, 7), (3, 3, 3), (3, 4, 3), (3, 3, 3), (3, 4, 3)]
    round_seconds = 1.5

    def generate(self, rng, seconds):
        return [_random_rows(rng, d, n, hi, pin_max=True)
                for _ in range(self.rounds(seconds, len(self.shapes)))
                for d, n, hi in self.shapes]

    def argv(self, idx, rows):
        return super().argv(idx, rows) + ["--b", str(BASE), "--kmax", str(len(rows))]

    def warmup(self):
        return [[0, 0, 3], [0, 1, 3]]

    def check(self, idx, rows, out: bytes):
        """Interpolated and per-cell formula coefficients must agree."""
        report = json.loads(out)
        if report["agree"] is not True:
            raise ItemFailed("check", "interpolation and formula coefficients disagree")


class Formula(Workload):
    """``coeffs_via_formula(m + s, 2)`` on translates of random 3x4 matrices.

    Translating by s moves the cells along the all-ones direction and
    multiplies every chain weight by b**s, so the per-cell chain enumeration
    dominates.  s is the offset whose chain-node estimate is nearest to
    WORK_TARGET (on a log scale), which keeps items of comparable size whatever
    the weights of the untranslated cells.  Matrices whose cells are all
    points and segments are redrawn: their chain count has no inner level,
    so no offset gives them chain work.  The max-times boxes of these inputs
    are far past the guard, so the box scan never runs.
    """

    name = "formula"
    MAX_OFFSET = 24
    WORK_TARGET = 400_000
    round_seconds = 0.135

    def generate(self, rng, seconds):
        return [self._item(rng) for _ in range(self.rounds(seconds, 1))]

    def _item(self, rng):
        while True:
            rows = _random_rows(rng, 3, 4, 3, pin_max=False)
            m = self.tv.TropMatrix.from_rows(rows)
            work = chain_work(self.tv.enumerate_triangulation(m, GUARD).cells, BASE)
            if work:
                break

        def estimate(s):
            return sum(w * BASE ** (s * level) for level, w in work.items())

        s = 0
        while s < self.MAX_OFFSET and estimate(s) < self.WORK_TARGET:
            s += 1
        if s and self.WORK_TARGET ** 2 < estimate(s) * estimate(s - 1):
            s -= 1
        return [[e + s for e in row] for row in rows]

    def prepare(self, pool):
        self.matrices = [self.tv.TropMatrix.from_rows(rows) for rows in pool]
        return b"\n".join(_matrix_json(rows).encode() for rows in pool)

    def run(self, idx, rows):
        self.result = self.tv.coeffs_via_formula(self.matrices[idx], BASE, GUARD)

    def output(self, idx, rows) -> bytes:
        return json.dumps([_fmt(c) for c in self.result]).encode()

    def warmup(self):
        return [[1, 1, 4], [1, 2, 4]]

    def check(self, idx, rows, out: bytes):
        """c_0 = Euler characteristic, c_(d-1) and c_d by their closed forms."""
        tv = self.tv
        got = json.loads(out)
        m = self.matrices[idx]
        complex_ = tv.enumerate_triangulation(m, GUARD)
        d = complex_.ambient_dim
        want = {
            0: complex_.euler_characteristic(),
            d - 1: tv.ehrhart.c_dminus1_direct(complex_, BASE, GUARD),
            d: tv.ehrhart.c_top_leading(complex_, BASE, GUARD),
        }
        for i, value in want.items():
            if got[i] != _fmt(value):
                raise ItemFailed("check", f"c_{i} is {got[i]}, closed form gives {_fmt(value)}")


def chain_work(cells, b):
    """Estimated recursion nodes of classical_ehrhart_scaled_simplex over cells.

    For a cell of dimension m with chain weights g_1..g_m, counting the
    dilate t visits about t**l * g_1 * ... * g_l / l! prefixes at each inner
    level l < m.  Translating the matrix by s multiplies every weight by
    b**s, so the estimate is sum_l work[l] * b**(s * l); returns work.
    """
    work = {}
    for cell in cells:
        base = cell.vertices[0]
        gs = [b ** min(base[r] for r in block) for block in cell.blocks()]
        m = len(gs)
        for t in range(1, m + 1):
            prod = 1
            for level in range(1, m):
                prod *= gs[level - 1]
                work[level] = work.get(level, 0) + t ** level * prod / factorial(level)
    return work


class Check(Workload):
    """``checks.SUITES[name](seed, cases)``: rounds over the suites.

    Every item draws its own derived seed.  Cases are chosen per suite from
    measured per-case costs.  The six cheap suites whose cost barely varies
    (semiring, assignment, kleene, cauchy-binet, sign-generic, conjecture)
    are sized to about 50 ms a call, so the median item falls among them.
    theorems gets zero random cases, which still runs its fixed part (five
    fixtures, fixture 4D among them, and twelve seeded pure instances) of
    about a second.  It runs twice per round, so that the tail item (ten
    items beyond it) falls in the middle of the theorems calls rather than
    at their smallest.

    cross-volume and volume-properties are left out (EXCLUDED).  One of their
    cases can cost ten times the mean, and one cross-volume case decides the
    process's peak memory (a 2-row, 5-column box scan takes 700 MiB, most
    cases under 300), so either suite makes every end-to-end metric of this
    workload swing from seed to seed.  The layers they load are measured by
    ``ehrhart`` (the box scan) and ``volume`` (the rational LP).
    """

    name = "check"
    cases = {
        "semiring": 300, "membership": 5, "assignment": 200, "kleene": 500,
        "cauchy-binet": 450, "sign-generic": 1000, "cells": 10, "ehrhart": 3,
        "theorems": 0, "conjecture": 2,
    }
    EXCLUDED = ("cross-volume", "volume-properties")
    TWICE = ("theorems",)
    round_seconds = 2.4

    def generate(self, rng, seconds):
        names = [n for n in self.tv.checks.SUITES if n not in self.EXCLUDED] + list(self.TWICE)
        return [[name, rng.randrange(2 ** 31), self.cases[name]]
                for _ in range(self.rounds(seconds, len(names))) for name in names]

    def family(self, item):
        return item[0]

    def prepare(self, pool):
        return json.dumps(pool).encode()

    def run(self, idx, item):
        name, seed, cases = item
        self.result = self.tv.checks.SUITES[name](seed=seed, cases=cases)

    def output(self, idx, item) -> bytes:
        r = self.result
        return json.dumps([r.name, r.cases, r.passed, r.failures, r.warnings]).encode()

    def warmup(self):
        return ["semiring", 0, 10]

    def check(self, idx, item, out: bytes):
        """Every suite passes."""
        name, _cases, passed, failures, _warnings = json.loads(out)
        if not passed:
            raise ItemFailed("check", f"suite {name} failed: {'; '.join(failures)}")


WORKLOADS = {w.name: w for w in (Volume, Ehrhart, Formula, Check)}
