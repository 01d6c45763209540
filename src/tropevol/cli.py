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
from dataclasses import dataclass
from typing import Optional

from .cells import enumerate_triangulation
from .core import TropMatrix, check_base
from .ehrhart import ehrhart_report, maxtimes_membership
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
from .checks import SUITES, run_suites
from .volumes import build_volume_report, cartesian_product


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by the report-producing subcommands."""

    matrix: Optional[TropMatrix]
    b: int
    kmax: Optional[int]
    method: str
    i: Optional[int]
    guard: int
    out: Optional[str]
    fmt: str


def _parse_point(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}")


def _load_matrix(args) -> TropMatrix:
    if getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {args.input}: {exc}")
        return TropMatrix.from_json(text, allow_minus_inf_columns=True)
    name = (getattr(args, "fixture", None) or "").lower()
    if name == "cube":
        return cube(args.d if args.d is not None else 2)
    if name == "l":
        return fix_l(args.l if args.l is not None else 4)
    if name == "tri":
        return fix_tri(
            args.l if args.l is not None else 3,
            args.k if args.k is not None else 0,
        )
    if name == "4d":
        return fix_4d()
    if name == "delta2":
        return fix_delta2()
    if name == "prod":
        m, n = fix_prod(args.l if args.l is not None else 3)
        return cartesian_product(m, n)
    if name == "alcove":
        return alcove_simplex(_parse_point(args.a if args.a is not None else "1,2"))
    raise ValidationError(f"unknown fixture {name!r}")


def _make_config(args) -> RunConfig:
    b = getattr(args, "b", 2)
    check_base(b)
    kmax = getattr(args, "kmax", None)
    if kmax is not None and kmax < 0:
        raise ValidationError(f"kmax must be nonnegative, got {kmax}")
    return RunConfig(
        matrix=_load_matrix(args),
        b=b,
        kmax=kmax,
        method=getattr(args, "method", "subsets"),
        i=getattr(args, "i", None),
        guard=resolve_guard(getattr(args, "guard", None)),
        out=getattr(args, "out", None),
        fmt=getattr(args, "format", None) or "json",
    )


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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


def _render(obj, fmt: str, what: str) -> str:
    if fmt == "json":
        return _render_json(obj)
    if fmt == "text":
        return _render_text(obj)
    raise ValidationError(f"format {fmt!r} does not apply to {what}")


def _cmd_volume(args) -> int:
    cfg = _make_config(args)
    report = build_volume_report(cfg.matrix, method=cfg.method, guard=cfg.guard)
    obj = report.to_json_dict()
    if cfg.i is not None:
        if not 1 <= cfg.i <= cfg.matrix.rows:
            raise ValidationError(
                f"i must lie in 1..{cfg.matrix.rows}, got {cfg.i}"
            )
        if obj.get("i_volumes"):
            key = str(cfg.i)
            obj["i_volumes"] = {key: obj["i_volumes"][key]}
    _emit(_render(obj, cfg.fmt, "volume reports"), cfg.out)
    return 0


def _cmd_ehrhart(args) -> int:
    cfg = _make_config(args)
    kmax = cfg.kmax if cfg.kmax is not None else cfg.matrix.rows
    obj = ehrhart_report(cfg.matrix, cfg.b, kmax, cfg.guard)
    _emit(_render(obj, cfg.fmt, "counting reports"), cfg.out)
    return 0 if obj["agree"] else 4


def _cmd_check(args) -> int:
    if args.suite is not None and args.suite not in SUITES:
        raise ValidationError(
            f"unknown suite {args.suite!r}; available: {', '.join(SUITES)}"
        )
    names = [args.suite] if args.suite else None
    results = run_suites(names, seed=args.seed, cases=args.cases)
    fmt = args.format or "text"
    if fmt == "json":
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
    elif fmt == "text":
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.name}: {status} ({r.cases} cases)")
            for msg in r.failures:
                lines.append(f"  failure: {msg}")
            for msg in r.warnings:
                lines.append(f"  warning: {msg}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValidationError(f"format {fmt!r} does not apply to check runs")
    _emit(text, args.out)
    return 0 if all(r.passed for r in results) else 4


_SVG_SCALE = 60
_SVG_MARGIN = 40


def _svg_xy(x: float, y: float, ymax: float) -> tuple:
    px = _SVG_MARGIN + _SVG_SCALE * x
    py = _SVG_MARGIN + _SVG_SCALE * (ymax - y)
    return px, py


def _cmd_plot(args) -> int:
    cfg = _make_config(args)
    m = cfg.matrix
    if m.rows != 2:
        raise ValidationError("plotting is only implemented for two rows")
    if not m.is_finite():
        raise ValidationError("plotting needs finite entries")
    if not m.is_integer():
        raise ValidationError("plotting needs integer entries")
    fmt = getattr(args, "format", None) or "svg"
    if fmt != "svg":
        raise ValidationError(f"format {fmt!r} does not apply to plots")
    complex_ = enumerate_triangulation(m, cfg.guard)
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

    # lattice dots: finite points of the base-b grid inside the box
    if m.is_nonnegative():
        top1 = cfg.b ** max(m.entries[0])
        top2 = cfg.b ** max(m.entries[1])
        if top1 * top2 <= cfg.guard:
            logb = math.log(cfg.b)
            member = maxtimes_membership(
                [[cfg.b ** e for e in row] for row in m.entries], max(top1, top2)
            )
            for n1 in range(1, top1 + 1):
                for n2 in range(1, top2 + 1):
                    x = math.log(n1) / logb
                    y = math.log(n2) / logb
                    inside = member((n1, n2))
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
    _emit("\n".join(parts) + "\n", cfg.out)
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
    p.add_argument("--a", default=None, help="comma-separated base point for ALCOVE")
    # the check suites take no --guard; TROPEVOL_GUARD still reaches them
    p.add_argument("--guard", type=int, default=None, help="work guard override")


def _add_common(p: argparse.ArgumentParser, formats) -> None:
    p.add_argument("--out", default=None, help="write output to this file")
    p.add_argument("--format", choices=formats, default=None)


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
    _add_common(p_vol, ("json", "text"))
    p_vol.set_defaults(func=_cmd_volume)

    p_ehr = sub.add_parser("ehrhart", help="count lattice points and interpolate")
    _add_matrix_source(p_ehr)
    p_ehr.add_argument("--b", type=int, default=2, help="lattice base (default 2)")
    p_ehr.add_argument(
        "--kmax", type=int, default=None, help="largest dilation exponent to tabulate"
    )
    _add_common(p_ehr, ("json", "text"))
    p_ehr.set_defaults(func=_cmd_ehrhart)

    p_chk = sub.add_parser("check", help="run the self-check suites")
    p_chk.add_argument("--suite", default=None, help="run a single named suite")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument(
        "--cases", type=int, default=None, help="cases per suite (default per suite)"
    )
    _add_common(p_chk, ("json", "text"))
    p_chk.set_defaults(func=_cmd_check)

    p_plot = sub.add_parser("plot", help="draw the cell complex as SVG (two rows)")
    _add_matrix_source(p_plot)
    p_plot.add_argument("--b", type=int, default=2, help="lattice base for the dots")
    _add_common(p_plot, ("svg",))
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
