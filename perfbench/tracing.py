"""Traced runs: time each tropevol module from outside, without touching it.

A ``Tracer`` wraps the public functions named in ``TRACED`` and finds every
name that refers to them: the defining module, each module that did
``from .x import f`` (it holds its own binding), the package namespace and
dict values such as ``checks.SUITES``.  ``install`` rebinds those names to the
wrappers and ``uninstall`` puts the originals back.

Each call opens a span with its name, start, end, parent span and item id.
A span's self time is its duration minus the time of its traced children.
Spans stay in memory until the run ends.  Hot leaves (membership tests,
per-cell chain counts, assignment solves, LP solves) are aggregated per
(function, parent) as a call count and total time instead of one span per
call, which bounds memory and overhead.  Counter hooks that read a call's
arguments or result run outside every span; their time is kept apart
(``hook_s``) and charged to no function.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

# Functions whose self time is reported, plus the public functions between
# them (count_tropical, coeffs_via_formula, tlsurf, ...), which are wrapped so
# that their own time is not charged to their callers.
TRACED = {
    "core": ["contains"],
    "cells": ["lattice_points", "enumerate_triangulation", "enumerate_triangulation_brute"],
    "ehrhart": [
        "count_maxtimes", "count_tropical", "count_via_cells", "open_cell_count",
        "closed_cell_count", "classical_ehrhart_scaled_simplex", "coeffs_via_formula",
        "c_top_leading", "c_dminus1_direct", "tropical_ehrhart_poly", "log_coefficient",
        "reciprocity_check", "ehrhart_report",
    ],
    "ratpoly": ["lagrange_interpolate"],
    "ratlp": ["lp_max_min_linear", "simplex_max"],
    "linalg": [
        "tdet", "tdet_second", "tdet_brute", "kleene_star", "tminor", "tvol_max_sub",
        "tvol_square", "is_nonsingular", "tropical_rank", "is_sign_generic",
    ],
    "volumes": [
        "tlvol_subsets", "simplex_dtrunk_barycenter", "tlvol_triangulation",
        "tlvol_i_minus", "tlvol_i_plus", "tlsurf", "discrete_surface",
        "build_volume_report",
    ],
    "cli": ["main"],
    "checks": [
        "suite_semiring", "suite_membership", "suite_assignment", "suite_kleene",
        "suite_cauchy_binet", "suite_sign_generic", "suite_cells", "suite_ehrhart",
        "suite_cross_volume", "suite_theorems", "suite_volume_properties",
        "suite_conjecture",
    ],
}

HOT = {
    "core.contains", "ehrhart.closed_cell_count", "ehrhart.open_cell_count",
    "linalg.tdet", "linalg.kleene_star", "ratlp.simplex_max",
    "ratpoly.lagrange_interpolate",
}

# Metrics reported as <name>.calls and <name>.self_s, or only .self_s.
CALLS_AND_SELF = [
    "core.contains", "cells.lattice_points", "cells.enumerate_triangulation",
    "ehrhart.count_maxtimes", "ehrhart.closed_cell_count", "ehrhart.open_cell_count",
    "ehrhart.classical_ehrhart_scaled_simplex", "ratpoly.lagrange_interpolate",
    "ratlp.lp_max_min_linear", "ratlp.simplex_max", "linalg.tdet", "linalg.tdet_second",
    "linalg.kleene_star", "linalg.tminor", "linalg.tvol_max_sub",
]
SELF_ONLY = [
    "ehrhart.tropical_ehrhart_poly", "linalg.tdet_brute", "volumes.tlvol_subsets",
    "volumes.tlvol_i_minus", "volumes.tlvol_i_plus", "volumes.discrete_surface",
    "volumes.build_volume_report", "cli.main", "cells.enumerate_triangulation_brute",
] + [f"checks.{fn}" for fn in TRACED["checks"]]


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in CALLS_AND_SELF:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.self_s", "s") for name in SELF_ONLY]
    out += [
        ("cells.lattice_points.hit_ratio", "ratio"),
        ("cells.triangulations_per_item", "count"),
        ("cells.cells", "count"),
        ("ehrhart.count_maxtimes.candidates", "count"),
        ("ehrhart.count_maxtimes.hit_ratio", "ratio"),
        ("ehrhart.guard_share_max", "ratio"),
        ("ehrhart.closed_cell_count.points", "count"),
        ("ehrhart.weight_tuple_distinct_ratio", "ratio"),
        ("ehrhart.verified_share", "ratio"),
        ("volumes.tlvol_subsets.subsets", "count"),
        ("volumes.nonsingular_ratio", "ratio"),
        ("trace_overhead_share", "ratio"),
    ]
    return out


def _empty():
    return None


@functools.lru_cache(maxsize=None)
def wrapper_costs(calls=20_000):
    """Seconds a wrapper adds per call: (stored span, aggregated hot leaf).

    Measured once per process, inside an item, on a function that does
    nothing, as the median of five rounds of `calls` calls.
    """
    out = []
    for name in ("cli.main", "core.contains"):  # a stored span, a hot leaf
        tracer = Tracer(None, 0)
        wrapped = tracer._wrap(name, _empty)
        rounds = []
        for _ in range(5):
            tracer.spans.clear()
            tracer.begin_item(0, "calibration")
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            mid = perf_counter()
            for _ in range(calls):
                _empty()
            end = perf_counter()
            tracer.end_item(start)
            rounds.append(((mid - start) - (end - mid)) / calls)
        out.append(statistics.median(rounds))
    return tuple(out)


class Tracer:
    """Span recorder plus the work counters that need a call's arguments."""

    def __init__(self, tv, guard):
        self.tv = tv
        self.guard = guard
        self.spans = []          # (id, parent id, item, name, start, end, self)
        self.hot = defaultdict(lambda: [0, 0.0])  # (name, parent name) -> [calls, time]
        self.stack = []          # frames: [name, span id, child time]
        self.counts = defaultdict(float)
        self.hook_s = 0.0        # time in the counter hooks, charged to no function
        self.max_guard_share = 0.0
        self.item_weights = set()
        self.item = None
        self.family = None
        self.family_self = defaultdict(float)  # (item family, name) -> self time
        self._next_id = 0
        self._sites = self._find_sites() if tv is not None else []

    # -- installation ---------------------------------------------------

    def _find_sites(self):
        """Every (namespace, key, original, wrapper) that binds a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "tropevol" or n.startswith("tropevol.")]
        sites = []
        for modname, names in TRACED.items():
            mod = sys.modules[f"tropevol.{modname}"]
            for fn in names:
                orig = getattr(mod, fn)
                wrapper = self._wrap(f"{modname}.{fn}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            sites.append((vars(m), attr, orig, wrapper))
                        elif isinstance(value, dict):
                            sites += [(value, key, orig, wrapper)
                                      for key, v in value.items() if v is orig]
        return sites

    def install(self):
        for namespace, key, _orig, wrapper in self._sites:
            namespace[key] = wrapper

    def uninstall(self):
        for namespace, key, orig, _wrapper in self._sites:
            namespace[key] = orig

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        hot = name in HOT
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not stack:  # outside an item
                return fn(*args, **kwargs)
            parent = stack[-1]
            if before is not None:
                hook = perf_counter()
                before(*args, **kwargs)
                hook = perf_counter() - hook
                self.hook_s += hook
                parent[2] += hook
            frame = [name, None, 0.0]
            if not hot:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent[2] += dur
                own = dur - frame[2]
                self.family_self[(self.family, name)] += own
                if hot:
                    slot = self.hot[(name, parent[0])]
                    slot[0] += 1
                    slot[1] += own
                else:
                    self.spans.append((frame[1], parent[1], self.item, name, start, end, own))
            if after is not None:
                hook = perf_counter()
                after(result, *args, **kwargs)
                hook = perf_counter() - hook
                self.hook_s += hook
                parent[2] += hook
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- items ----------------------------------------------------------

    def begin_item(self, item, family):
        self.item = item
        self.family = family
        self.item_weights = set()
        frame = ["item", self._next_id, 0.0]
        self._next_id += 1
        self.stack.append(frame)
        return perf_counter()

    def end_item(self, start):
        end = perf_counter()
        frame = self.stack.pop()
        self.spans.append((frame[1], None, self.item, "item", start, end, end - start - frame[2]))

    # -- counters from arguments and results ----------------------------

    def _before_ehrhart_count_maxtimes(self, m, b, t, guard=None):
        candidates = 1
        for row in m.entries:
            candidates *= max(0 if e is None else t * b ** e for e in row) + 1
        self.counts["maxtimes.candidates"] += candidates
        self.max_guard_share = max(self.max_guard_share, candidates / (guard or self.guard))

    def _after_ehrhart_count_maxtimes(self, result, *args, **kwargs):
        self.counts["maxtimes.points"] += result

    def _after_cells_lattice_points(self, result, m, guard=None):
        box = 1
        for row in m.entries:
            box *= max(row) - min(row) + 1
        self.counts["lattice.candidates"] += box
        self.counts["lattice.points"] += len(result)

    def _after_cells_enumerate_triangulation(self, result, *args, **kwargs):
        self.counts["cells"] += len(result.cells)

    def _after_ehrhart_closed_cell_count(self, result, *args, **kwargs):
        self.counts["closed.points"] += result

    def _after_ehrhart_classical_ehrhart_scaled_simplex(self, result, cell, b, guard=None):
        self.counts["weights.cells"] += 1
        key = (b, self.tv.ehrhart.cell_weights(cell, b))
        if key not in self.item_weights:
            self.item_weights.add(key)
            self.counts["weights.distinct"] += 1

    def _after_ehrhart_tropical_ehrhart_poly(self, result, *args, **kwargs):
        self.counts["poly.verified"] += result.verified_at is not None

    def _after_volumes_tlvol_subsets(self, result, m):
        self.counts["subsets"] += comb(m.cols, m.rows + 1) if m.cols > m.rows else 0

    def _after_volumes_simplex_dtrunk_barycenter(self, result, m):
        self.counts["nonsingular"] += result is not None

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, self seconds], over stored and aggregated spans."""
        out = defaultdict(lambda: [0, 0.0])
        for _sid, _parent, _item, name, _start, _end, own in self.spans:
            out[name][0] += 1
            out[name][1] += own
        for (name, _parent), (calls, own) in self.hot.items():
            out[name][0] += calls
            out[name][1] += own
        return out

    def cost_s(self):
        """Time the tracer added: its counter hooks plus its wrappers.

        The wrappers' share is each wrapped call times the per-call cost
        of a wrapper, measured on an empty function (``wrapper_costs``).
        """
        span_cost, hot_cost = wrapper_costs()
        calls = sum(1 for *_rest, name, _s, _e, _own in self.spans if name != "item")
        hot_calls = sum(calls for calls, _own in self.hot.values())
        return self.hook_s + calls * span_cost + hot_calls * hot_cost

    def consistency(self, item_seconds, untraced_s, traced_s,
                    span_slack_s=0.001, cost_slack_share=0.15):
        """Problems with the accounting, as messages (empty when consistent).

        Three checks against figures the tracer does not produce itself:

        * each item span the tracer recorded contains the item's wall time
          as the timed loop measured it (``item_seconds``), and exceeds it
          by at most ``span_slack_s``;
        * the traced items' wall time equals the same items' untraced wall
          time plus ``cost_s``, within ``cost_slack_share`` of the untraced
          time.  Time the tracer spends that ``cost_s`` does not account for
          (an unmeasured hook, say) fails this;
        * no self time is negative.
        """
        problems = []
        roots = [end - start for *_ids, name, start, end, _own in self.spans if name == "item"]
        if len(roots) != len(item_seconds):
            problems.append(f"{len(roots)} item spans for {len(item_seconds)} items")
        for item, (span, wall) in enumerate(zip(roots, item_seconds)):
            if not 0 <= span - wall <= span_slack_s:
                problems.append(f"item {item}: span {span:.6f} s, wall time {wall:.6f} s")
        unexplained = traced_s - untraced_s - self.cost_s()
        if abs(unexplained) > cost_slack_share * untraced_s:
            problems.append(f"traced {traced_s:.3f} s = untraced {untraced_s:.3f} s"
                            f" + tracer {self.cost_s():.3f} s + {unexplained:.3f} s unexplained")
        if any(own < 0 for *_rest, own in self.spans):
            problems.append("negative self time in a stored span")
        if any(own < 0 for _calls, own in self.hot.values()):
            problems.append("negative self time in an aggregated span")
        return problems

    def top_self(self, count=4):
        """Per item family, the functions with the largest self time."""
        out = defaultdict(list)
        for (family, name), own in self.family_self.items():
            out[family].append((name, round(own, 4)))
        return {family: sorted(rows, key=lambda r: -r[1])[:count]
                for family, rows in sorted(out.items())}

    def metrics(self, items, overhead_share):
        """The per-layer metrics: name -> value."""
        tot = self.totals()
        c = self.counts
        out = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = tot[name][0]
            out[f"{name}.self_s"] = tot[name][1]
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = tot[name][1]

        def ratio(a, b):
            return a / b if b else 0.0

        poly_calls = tot["ehrhart.tropical_ehrhart_poly"][0]
        out.update({
            "cells.lattice_points.hit_ratio": ratio(c["lattice.points"], c["lattice.candidates"]),
            "cells.triangulations_per_item": ratio(tot["cells.enumerate_triangulation"][0], items),
            "cells.cells": int(c["cells"]),
            "ehrhart.count_maxtimes.candidates": int(c["maxtimes.candidates"]),
            "ehrhart.count_maxtimes.hit_ratio": ratio(c["maxtimes.points"], c["maxtimes.candidates"]),
            "ehrhart.guard_share_max": self.max_guard_share,
            "ehrhart.closed_cell_count.points": int(c["closed.points"]),
            "ehrhart.weight_tuple_distinct_ratio": ratio(c["weights.distinct"], c["weights.cells"]),
            "ehrhart.verified_share": ratio(c["poly.verified"], poly_calls),
            "volumes.tlvol_subsets.subsets": int(c["subsets"]),
            "volumes.nonsingular_ratio": ratio(
                c["nonsingular"], tot["volumes.simplex_dtrunk_barycenter"][0]),
            "trace_overhead_share": overhead_share,
        })
        return out

    def write(self, path):
        """Write the spans and the aggregated hot leaves as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, item, name, start, end, own in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "item": item, "name": name,
                                     "start": start, "end": end, "self": own}) + "\n")
            for (name, parent), (calls, own) in sorted(self.hot.items()):
                fh.write(json.dumps({"name": name, "parent": parent, "calls": calls,
                                     "self": own}) + "\n")
