"""Command line surface: reports, plots, fixtures and the self-check harness.

Exit codes: 0 success, 2 parse or validation problem, 3 work guard exceeded,
4 assertion or cross-check mismatch.  All output is byte-stable for a fixed
invocation: JSON is emitted with sorted keys, rationals as reduced "p/q"
strings and minus infinity as "-inf".
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
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
    """Write text to stdout, or its bytes to the file out (an empty path is an error).

    out gets exactly the bytes a redirected stdout would: text encoded once
    as UTF-8, with each "\n" written as os.linesep, and written with
    os.write until every byte is taken (a pipe may take fewer per call).
    out is opened without truncating it, written in place and then cut to
    the new length.  A truncate to zero first would cost a forced writeback:
    on ext4 with auto_da_alloc (the default), closing a file that was
    truncated to zero and rewritten flushes its data to disk.  Only a regular
    file can be cut; /dev/null, FIFOs and ttys are written as a stream.
    """
    if out is None:
        sys.stdout.write(text)
        return
    if os.linesep != "\n":
        text = text.replace("\n", os.linesep)
    data = text.encode("utf-8")
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            rest = memoryview(data)
            while rest:
                rest = rest[os.write(fd, rest):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc}")


# the text of each JSON scalar a report holds, by its exact type
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_chunks(node, pad: str, out: list) -> None:
    """Append node's indented JSON text to out; pad is a newline and node's indent."""
    kind = type(node)
    if kind is dict:
        if not node:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(node):
            item = node[key]
            head = sep + encode_basestring_ascii(key) + ": "
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(head)
                _json_chunks(item, inner, out)
            else:
                out.append(head + scalar(item))
            sep = "," + inner
        out.append(pad + "}")
    elif kind is list or kind is tuple:
        if not node:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in node:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(sep)
                _json_chunks(item, inner, out)
            else:
                out.append(sep + scalar(item))
            sep = "," + inner
        out.append(pad + "]")
    else:
        scalar = _SCALARS.get(kind)
        if scalar is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        out.append(scalar(node))


def _render_json(obj) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, plus a newline.

    Strings go through the C escaper json.dumps itself uses, so the text is
    ASCII.  A report holds only dicts with str keys, lists, tuples, str, int,
    bool and None; anything else raises TypeError.  json.dumps with an indent
    would run its pure-Python encoder, at about twice the cost.
    """
    out = []
    _json_chunks(obj, "\n", out)
    out.append("\n")
    return "".join(out)


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
def _parsers() -> tuple:
    """The full parser and its subcommand name -> parser map, built once per process.

    The map is the choices of the action add_subparsers returns.  Parsing
    leaves both unchanged.
    """
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
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, built once per process."""
    return _parsers()[0]


def _parse(argv) -> argparse.Namespace:
    """argv parsed once, to the namespace build_parser().parse_args(argv) gives."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    When argv[0] names a subcommand, that subcommand's parser alone parses
    the rest, and command is set from argv[0].  Everything else goes to the
    full parser: an empty argv, -h, an unknown command, and a call whose
    subcommand parser leaves arguments over.  The full parser hands the same
    tail to the same subcommand parser, so the namespace, and every usage
    and error text, are those of the full parse.
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
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
