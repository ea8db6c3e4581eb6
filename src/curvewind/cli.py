"""Command line front end.

Exit codes: 0 success, 2 validation or domain failure, 3 parse failure,
4 oracle disagreement.  All output is deterministic for a given input:
reruns produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .connectivity import polygonal_join
from .curves import curve_from_json, curve_to_json, validate_jordan
from .errors import (
    CurveError,
    NoPathAtResolution,
    OracleDisagreement,
    ParseError,
    ValidationFailure,
)
from .fixtures import FIXTURES, fixture
from .index import classify, region_grid, winding_number
from .svg import render_svg


def _read_curve(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(str(exc)) from None
    return curve_from_json(text)


def _emit(obj, as_json: bool) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for k, v in obj.items():
            print(f"{k}: {v}")


def cmd_validate(args) -> int:
    spec = _read_curve(args.curve)
    try:
        jc = validate_jordan(spec, h=args.resolution)
    except ValidationFailure as exc:
        report = {"ok": False, "error": type(exc).__name__, "detail": str(exc)}
        _emit(report, args.format == "json")
        return 2
    report = {
        "ok": True,
        "pieces": jc.spec.n_pieces,
        "interval": list(jc.interval),
        "closed_gap": jc.spec.closure_gap,
        "min_gap": jc.j1.min_gap,
        "j1_threshold": jc.j1.threshold,
        "deriv_sup": jc.deriv_sup,
        "diameter": jc.diameter(),
        "inverse_modulus": [[e, d] for e, d in jc.j2.entries],
    }
    _emit(report, args.format == "json")
    return 0


def cmd_winding(args) -> int:
    spec = _read_curve(args.curve)
    jc = validate_jordan(spec, h=args.resolution)
    x, y = args.point
    res = winding_number(jc, (x, y))
    _emit(
        {
            "point": [x, y],
            "winding": res.rounded,
            "residual": res.residual,
            "error_budget": res.error_budget,
            "nodes": res.nodes,
        },
        args.format == "json",
    )
    return 0


def _grid_points(args, jc):
    if args.bounds is not None:
        x0, y0, x1, y1 = args.bounds
    else:
        x0, y0, x1, y1 = jc.carrier.bbox
        padx, pady = 0.1 * (x1 - x0), 0.1 * (y1 - y0)
        x0, y0, x1, y1 = x0 - padx, y0 - pady, x1 + padx, y1 + pady
    nx, ny = args.grid
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    # row-major from the bottom row: y varies slowest, ascending
    return [(float(x), float(y)) for y in ys for x in xs]


def cmd_classify(args) -> int:
    spec = _read_curve(args.curve)
    jc = validate_jordan(spec, h=args.resolution)
    if args.grid is not None:
        pts = _grid_points(args, jc)
    elif args.point:
        pts = [(x, y) for x, y in args.point]
    else:
        raise CurveError("classify needs --point or --grid")
    rows = []
    for x, y in pts:
        c = classify(jc, (x, y), eps_band=args.eps_band)
        w = "" if c.winding is None else str(c.winding.rounded)
        rows.append((x, y, c.verdict.value, w))
    if args.format == "csv":
        print("x,y,verdict,winding")
        for x, y, v, w in rows:
            print(f"{x!r},{y!r},{v},{w}")
    else:
        print(
            json.dumps(
                [
                    {"x": x, "y": y, "verdict": v, "winding": None if w == "" else int(w)}
                    for x, y, v, w in rows
                ],
                sort_keys=True,
                indent=2,
            )
        )
    return 0


def cmd_join(args) -> int:
    spec = _read_curve(args.curve)
    jc = validate_jordan(spec, h=args.resolution)
    x1, y1 = args.start
    x2, y2 = args.end
    try:
        join = polygonal_join(jc, (x1, y1), (x2, y2), args.clearance, args.cell)
    except NoPathAtResolution as exc:
        _emit(
            {"joined": False, "reason": str(exc), "cell": exc.h},
            args.format == "json",
        )
        return 0
    _emit(
        {
            "joined": True,
            "clearance": join.clearance,
            "gap": join.gap,
            "length": join.length,
            "vertices": [[v.x, v.y] for v in join.vertices],
        },
        args.format == "json",
    )
    return 0


def cmd_render(args) -> int:
    spec = _read_curve(args.curve)
    shade = None
    if args.shade:
        jc = validate_jordan(spec, h=args.resolution)
        shade = region_grid(jc, jc.diameter() / args.shade)
    doc = render_svg(spec, size=args.size, shade=shade)
    if args.output == "-":
        sys.stdout.write(doc)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    return 0


def cmd_fixture(args) -> int:
    spec = fixture(args.name)
    text = curve_to_json(spec)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _point_pair(parser, flag, **kw):
    parser.add_argument(flag, nargs=2, type=_finite_float, metavar=("X", "Y"), **kw)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _number(text: str, ok, what: str) -> float:
    value = float(text)
    if not ok(value):
        raise argparse.ArgumentTypeError(f"expected {what}, got {text}")
    return value


def _finite_float(text: str) -> float:
    return _number(text, math.isfinite, "a finite number")


def _positive_float(text: str) -> float:
    return _number(text, lambda v: math.isfinite(v) and v > 0.0, "a finite positive number")


def _finite_non_negative_float(text: str) -> float:
    return _number(
        text, lambda v: math.isfinite(v) and v >= 0.0, "a finite non-negative number"
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="curvewind",
        description="Validate piecewise curves and classify points by "
        "winding number and crossing parity.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("curve", help="curve JSON file, or - for stdin")
    common.add_argument(
        "--resolution", type=_positive_float, default=1e-3, help="validation sample step"
    )

    def add_format(sp, *choices):
        sp.add_argument("--format", choices=choices, default=choices[0])

    v = sub.add_parser("validate", parents=[common], help="run the full check")
    add_format(v, "text", "json")
    v.set_defaults(func=cmd_validate)

    w = sub.add_parser("winding", parents=[common], help="winding number at a point")
    add_format(w, "text", "json")
    _point_pair(w, "--point", required=True)
    w.set_defaults(func=cmd_winding)

    c = sub.add_parser("classify", parents=[common], help="inside/outside verdicts")
    add_format(c, "csv", "json")
    c.add_argument(
        "--point",
        nargs=2,
        type=_finite_float,
        action="append",
        metavar=("X", "Y"),
        help="query point, repeatable",
    )
    c.add_argument("--grid", nargs=2, type=_positive_int, metavar=("NX", "NY"))
    c.add_argument(
        "--bounds", nargs=4, type=_finite_float, metavar=("X0", "Y0", "X1", "Y1")
    )
    c.add_argument("--eps-band", type=_finite_non_negative_float, default=None)
    c.set_defaults(func=cmd_classify)

    j = sub.add_parser("join", parents=[common], help="clear polyline between points")
    add_format(j, "text", "json")
    _point_pair(j, "--start", required=True)
    _point_pair(j, "--end", required=True)
    j.add_argument("--clearance", type=_finite_non_negative_float, required=True)
    j.add_argument("--cell", type=_positive_float, required=True, help="grid cell size")
    j.set_defaults(func=cmd_join)

    r = sub.add_parser("render", parents=[common], help="write an SVG picture")
    add_format(r, "text", "json")
    r.add_argument("-o", "--output", default="-")
    r.add_argument("--size", type=_positive_int, default=640)
    r.add_argument(
        "--shade",
        type=_non_negative_int,
        default=0,
        help="shade inside cells, value = diameter/cell ratio (0 = off)",
    )
    r.set_defaults(func=cmd_render)

    f = sub.add_parser("fixture", help="emit a built-in example curve as JSON")
    f.add_argument("name", choices=sorted(FIXTURES))
    f.add_argument("-o", "--output", default="-")
    f.set_defaults(func=cmd_fixture)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except OracleDisagreement as exc:
        print(f"oracle disagreement: {exc}", file=sys.stderr)
        return 4
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except CurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
