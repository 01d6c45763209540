"""Command line surface: reports, plots, fixtures and the self-check harness.

Exit codes: 0 success, 2 parse or validation problem, 3 work guard exceeded,
4 assertion or cross-check mismatch.  All output is byte-stable for a fixed
invocation: JSON is emitted with sorted keys, rationals as reduced "p/q"
strings and minus infinity as "-inf".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from .cells import enumerate_triangulation
from .core import TropMatrix, check_base
from .ehrhart import _fibres, ehrhart_report
from .errors import CrossCheckError, GuardExceeded, ValidationError
from .fixtures import (
    alcove_simplex,
    cube,
    fix_4d,
    fix_delta2,
    fix_l,
    fix_prod,
    fix_tri,
)
from .guard import resolve_guard
from .checks import run_suites
from .volumes import build_volume_report, cartesian_product


def _parse_point(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}")


def _given(**sizes) -> dict:
    """The size options set on the command line; the fixtures default the rest."""
    return {name: value for name, value in sizes.items() if value is not None}


# lower-cased fixture name -> its matrix, built from the parsed size options
_FIXTURES = {
    "cube": lambda a: cube(**_given(d=a.d)),
    "l": lambda a: fix_l(**_given(l=a.l)),
    "tri": lambda a: fix_tri(**_given(l=a.l, k=a.k)),
    "4d": lambda a: fix_4d(),
    "delta2": lambda a: fix_delta2(),
    "prod": lambda a: cartesian_product(*fix_prod(**_given(l=a.l))),
    "alcove": lambda a: alcove_simplex(_parse_point(a.a)),
}


def _load_matrix(args) -> TropMatrix:
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read {args.input}: {exc}")
        return TropMatrix.from_json(text, allow_minus_inf_columns=True)
    name = (args.fixture or "").lower()
    if name not in _FIXTURES:
        raise ValidationError(f"unknown fixture {name!r}")
    return _FIXTURES[name](args)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {out}: {exc}")
    else:
        sys.stdout.write(text)


def _render_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _render_text(obj) -> str:
    lines = []

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], f"{path}.{key}" if path else str(key))
        elif isinstance(node, list):
            if all(not isinstance(e, (dict, list)) for e in node):
                lines.append(f"{path}: {' '.join(str(e) for e in node)}")
            else:
                for idx, e in enumerate(node):
                    walk(e, f"{path}[{idx}]")
        else:
            lines.append(f"{path}: {node}")

    walk(obj, "")
    return "\n".join(lines) + "\n"


def _render(obj, fmt: str) -> str:
    """fmt is one of the parser's --format choices, json or text."""
    return _render_json(obj) if fmt == "json" else _render_text(obj)


def _cmd_volume(args) -> int:
    m = _load_matrix(args)
    if args.i is not None and not 1 <= args.i <= m.rows:
        raise ValidationError(f"i must lie in 1..{m.rows}, got {args.i}")
    report = build_volume_report(m, method=args.method, guard=resolve_guard(args.guard))
    obj = report.to_json_dict()
    if args.i is not None and obj.get("i_volumes"):
        key = str(args.i)
        obj["i_volumes"] = {key: obj["i_volumes"][key]}
    _emit(_render(obj, args.format), args.out)
    return 0


def _cmd_ehrhart(args) -> int:
    check_base(args.b)
    m = _load_matrix(args)
    kmax = args.kmax if args.kmax is not None else m.rows
    obj = ehrhart_report(m, args.b, kmax, args.guard)
    _emit(_render(obj, args.format), args.out)
    return 0 if obj["agree"] else 4


def _cmd_check(args) -> int:
    names = None if args.suite is None else [args.suite]
    results = run_suites(names, seed=args.seed, cases=args.cases)
    if args.format == "json":
        obj = {
            "seed": args.seed,
            "suites": [
                {
                    "name": r.name,
                    "cases": r.cases,
                    "passed": r.passed,
                    "failures": list(r.failures),
                    "warnings": list(r.warnings),
                }
                for r in results
            ],
        }
        text = _render_json(obj)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.name}: {status} ({r.cases} cases)")
            for msg in r.failures:
                lines.append(f"  failure: {msg}")
            for msg in r.warnings:
                lines.append(f"  warning: {msg}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all(r.passed for r in results) else 4


_SVG_SCALE = 60
_SVG_MARGIN = 40


def _svg_xy(x: float, y: float, ymax: float) -> tuple:
    px = _SVG_MARGIN + _SVG_SCALE * x
    py = _SVG_MARGIN + _SVG_SCALE * (ymax - y)
    return px, py


def _cmd_plot(args) -> int:
    check_base(args.b)
    m = _load_matrix(args)
    guard = resolve_guard(args.guard)
    if m.rows != 2:
        raise ValidationError("plotting is only implemented for two rows")
    if not m.is_finite():
        raise ValidationError("plotting needs finite entries")
    if not m.is_integer():
        raise ValidationError("plotting needs integer entries")
    complex_ = enumerate_triangulation(m, guard)
    if not complex_.cells:
        raise ValidationError("empty cell complex, nothing to draw")

    xs = [v[0] for c in complex_.cells for v in c.vertices]
    ys = [v[1] for c in complex_.cells for v in c.vertices]
    xmin, xmax = min(xs) - 0.5, max(xs) + 0.5
    ymin, ymax = min(ys) - 0.5, max(ys) + 0.5

    parts = []
    width = 2 * _SVG_MARGIN + _SVG_SCALE * (xmax - xmin)
    height = 2 * _SVG_MARGIN + _SVG_SCALE * (ymax - ymin)
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    parts.append('<rect width="100%" height="100%" fill="white"/>')

    def place(x, y):
        return _svg_xy(x - xmin, y, ymax)

    for cell in sorted(complex_.cells, key=lambda c: (-c.dim, c.vertices)):
        pts = cell.vertices
        if cell.dim == 2:
            coords = " ".join(
                "{:.2f},{:.2f}".format(*place(x, y)) for x, y in pts
            )
            parts.append(
                f'<polygon points="{coords}" fill="#cfe3f7" '
                'stroke="#39618f" stroke-width="1"/>'
            )
        elif cell.dim == 1:
            (x1, y1), (x2, y2) = pts
            a = place(x1, y1)
            bb = place(x2, y2)
            parts.append(
                f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{bb[0]:.2f}" '
                f'y2="{bb[1]:.2f}" stroke="#39618f" stroke-width="2"/>'
            )
        else:
            (x, y) = pts[0]
            px, py = place(x, y)
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#1d3a5f"/>'
            )

    # lattice dots: the base-b grid points in the box, red on exp_b(P)'s fibres
    if m.is_nonnegative():
        top1 = args.b ** max(m.entries[0])
        top2 = args.b ** max(m.entries[1])
        if top1 * top2 <= guard:
            logb = math.log(args.b)
            scan = _fibres(m, args.b, 1)
            lo, hi = scan.lo.tolist(), scan.hi.tolist()
            (origin,) = scan.origin  # the grid runs over the hull's own box
            for n1 in range(1, top1 + 1):
                for n2 in range(1, top2 + 1):
                    x = math.log(n1) / logb
                    y = math.log(n2) / logb
                    z, s = (n2, n1) if scan.axis == 0 else (n1, n2)
                    inside = z >= origin and lo[z - origin] <= s <= hi[z - origin]
                    px, py = place(x, y)
                    if inside:
                        parts.append(
                            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" '
                            'fill="#c23b22"/>'
                        )
                    else:
                        parts.append(
                            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.5" '
                            'fill="#bbbbbb"/>'
                        )
    parts.append("</svg>")
    _emit("\n".join(parts) + "\n", args.out)
    return 0


def _add_matrix_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="path to a matrix JSON file")
    group.add_argument(
        "--fixture",
        help="built-in configuration name (cube, L, TRI, 4D, DELTA2, PROD, ALCOVE)",
    )
    p.add_argument("--l", type=int, default=None, help="size parameter for L, TRI, PROD")
    p.add_argument("--k", type=int, default=None, help="tail length for TRI")
    p.add_argument("--d", type=int, default=None, help="dimension for cube")
    p.add_argument("--a", default="1,2", help="comma-separated base point for ALCOVE")
    # the check suites take no --guard; TROPEVOL_GUARD still reaches them
    p.add_argument("--guard", type=int, default=None, help="work guard override")


def _add_common(p: argparse.ArgumentParser, formats, default: str) -> None:
    p.add_argument("--out", default=None, help="write output to this file")
    p.add_argument("--format", choices=formats, default=default)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tropevol",
        description="Exact lattice counting and volume functionals for "
        "max-plus polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vol = sub.add_parser("volume", help="evaluate all volume functionals")
    _add_matrix_source(p_vol)
    p_vol.add_argument(
        "--method",
        choices=("subsets", "triangulation", "both"),
        default="subsets",
        help="algorithm for the barycentric volume",
    )
    p_vol.add_argument("--i", type=int, default=None, help="report only this i-volume")
    _add_common(p_vol, ("json", "text"), "json")
    p_vol.set_defaults(func=_cmd_volume)

    p_ehr = sub.add_parser("ehrhart", help="count lattice points and interpolate")
    _add_matrix_source(p_ehr)
    p_ehr.add_argument("--b", type=int, default=2, help="lattice base (default 2)")
    p_ehr.add_argument(
        "--kmax", type=int, default=None, help="largest dilation exponent to tabulate"
    )
    _add_common(p_ehr, ("json", "text"), "json")
    p_ehr.set_defaults(func=_cmd_ehrhart)

    p_chk = sub.add_parser("check", help="run the self-check suites")
    p_chk.add_argument("--suite", default=None, help="run a single named suite")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument(
        "--cases", type=int, default=None, help="cases per suite (default per suite)"
    )
    _add_common(p_chk, ("json", "text"), "text")
    p_chk.set_defaults(func=_cmd_check)

    p_plot = sub.add_parser("plot", help="draw the cell complex as SVG (two rows)")
    _add_matrix_source(p_plot)
    p_plot.add_argument("--b", type=int, default=2, help="lattice base for the dots")
    _add_common(p_plot, ("svg",), "svg")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
