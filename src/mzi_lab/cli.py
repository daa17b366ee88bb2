"""Command-line interface: single points, figure sweeps, thresholds, validation.

Output is machine-readable CSV (12 significant digits) or JSON lines; both
carry identical values.  Identical invocations produce byte-identical
output: there is no randomness anywhere in the toolkit, and sweep rows are
emitted in grid order regardless of how they were computed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .errors import InvalidArgument, MziLabError, UnsupportedConfiguration
from .optimize import (
    LossKind,
    Scheme,
    SweepRow,
    SweepSpec,
    SweepVariable,
    _chain,
    _sweep_row,
    run_sweep,
    scheme_sensitivity,
    snl_threshold,
)
from .qfi import snl
from .states import ResourceKind

_SWEEP_FIELDS = tuple(field.name for field in dataclasses.fields(SweepRow))
_POINT_FIELDS = _SWEEP_FIELDS[2:-1]  # a sweep row without variable, value and status


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.11e}"
    return str(value)


def _json_value(value):
    if isinstance(value, float) and math.isfinite(value):
        return float(f"{value:.11e}")
    if isinstance(value, float):
        return None  # NaN and infinities are not valid JSON
    return value


def emit(rows, fields, fmt, out):
    """Serialize rows (dicts, such as ``vars`` of a row dataclass) with a fixed field order."""
    lines = []
    if fmt == "csv":
        lines.append(",".join(fields))
        for row in rows:
            lines.append(",".join(_fmt(row[f]) for f in fields))
    else:
        for row in rows:
            lines.append(json.dumps({f: _json_value(row[f]) for f in fields}))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


# -- figure presets -------------------------------------------------------------
#
# Parameter grids behind the --figure shortcuts.  Loss-rate panels run over
# 1 - eta in [0, 0.6] with 21 points; energy panels over nbar in [1, 50]
# with 15 points at loss rate 0.2 (see README for the mapping).

_ALL3 = (ResourceKind.CSV, ResourceKind.TMSV, ResourceKind.COHERENT)
_ALL4_SCHEMES = (Scheme.QFI, Scheme.PARITY, Scheme.SINGLE_HD, Scheme.DOUBLE_HD)
_LOSS_GRID = dict(lo=0.0, hi=0.6, points=21)
_NBAR_GRID = dict(lo=1.0, hi=50.0, points=15)


def _loss_sweep(scheme, kind, nbar=10.0, resources=_ALL3):
    return SweepSpec(
        variable=SweepVariable.LOSS_RATE,
        schemes=(scheme,) if isinstance(scheme, Scheme) else tuple(scheme),
        resources=resources,
        loss_kind=kind,
        nbar=nbar,
        **_LOSS_GRID,
    )


def _nbar_sweep(scheme, kind, resources=_ALL3):
    return SweepSpec(
        variable=SweepVariable.MEAN_PHOTON_NUMBER,
        schemes=(scheme,) if isinstance(scheme, Scheme) else tuple(scheme),
        resources=resources,
        loss_kind=kind,
        loss_rate=0.2,
        **_NBAR_GRID,
    )


def figure_presets():
    sym, one = LossKind.SYMMETRIC, LossKind.ONE_ARM
    presets = {
        "2a": [_loss_sweep(Scheme.QFI, sym)],
        "2b": [_nbar_sweep(Scheme.QFI, sym)],
        "2c": [_loss_sweep(Scheme.QFI, sym, nbar=n, resources=(ResourceKind.CSV,)) for n in (1.0, 10.0, 100.0)],
        "2d": [_loss_sweep(Scheme.QFI, one)],
        "2e": [_nbar_sweep(Scheme.QFI, one)],
        "2f": [_loss_sweep(Scheme.QFI, one, nbar=n, resources=(ResourceKind.CSV,)) for n in (1.0, 10.0, 100.0)],
        "6a": [_loss_sweep(_ALL4_SCHEMES, sym, resources=(ResourceKind.CSV,)),
               _loss_sweep(Scheme.QFI, sym, resources=(ResourceKind.COHERENT,))],
        "6b": [_loss_sweep(_ALL4_SCHEMES, one, resources=(ResourceKind.CSV,)),
               _loss_sweep(Scheme.QFI, one, resources=(ResourceKind.COHERENT,))],
        "6c": [_loss_sweep(_ALL4_SCHEMES, sym, resources=(ResourceKind.TMSV,)),
               _loss_sweep(Scheme.QFI, sym, resources=(ResourceKind.COHERENT,))],
        "6d": [_loss_sweep(_ALL4_SCHEMES, one, resources=(ResourceKind.TMSV,)),
               _loss_sweep(Scheme.QFI, one, resources=(ResourceKind.COHERENT,))],
        "a1": [_loss_sweep(_ALL4_SCHEMES, sym, nbar=7.0)],
        "a2": [_loss_sweep(_ALL4_SCHEMES, one, nbar=7.0)],
    }
    for label, scheme in (("3", Scheme.PARITY), ("4", Scheme.SINGLE_HD), ("5", Scheme.DOUBLE_HD)):
        presets[label + "a"] = [_loss_sweep(scheme, sym)]
        presets[label + "b"] = [_nbar_sweep(scheme, sym)]
        presets[label + "c"] = [_loss_sweep(scheme, one)]
        presets[label + "d"] = [_nbar_sweep(scheme, one)]
    return presets


# -- commands -------------------------------------------------------------------


def _cmd_point(args):
    scheme, kind, loss_kind = Scheme(args.scheme), ResourceKind(args.resource), LossKind(args.loss)
    benchmark = snl(args.nbar)  # validates nbar before any search runs
    loss = loss_kind.model(args.rate)
    if args.mu is not None:
        point = scheme_sensitivity(scheme, kind, args.nbar, loss, mu=args.mu)
    else:
        point = _chain(scheme, kind, optimize_mu=not args.fixed_mu)(args.nbar, loss)
    row = _sweep_row(None, None, scheme, kind, float(args.nbar), loss_kind, float(args.rate), benchmark, point, "ok")
    emit([vars(row)], _POINT_FIELDS, args.format, args.out)
    return 0


def _cmd_sweep(args):
    raw_threads = os.environ.get("MZI_LAB_THREADS", "1")
    try:
        threads = max(1, int(raw_threads))
    except ValueError:
        raise InvalidArgument(f"MZI_LAB_THREADS must be an integer, got {raw_threads!r}") from None
    if args.figure is not None:
        specs = figure_presets()[args.figure]
    else:
        if args.variable is None:
            raise UnsupportedConfiguration("sweep needs either --figure or --variable")
        specs = [
            SweepSpec(
                variable=SweepVariable(args.variable),
                lo=args.lo,
                hi=args.hi,
                points=args.points,
                schemes=tuple(Scheme(s) for s in args.scheme),
                resources=tuple(ResourceKind(r) for r in args.resource),
                loss_kind=LossKind(args.loss),
                nbar=args.nbar,
                loss_rate=args.rate,
                optimize_mu=not args.fixed_mu,
            )
        ]
    rows = [vars(row) for spec in specs for row in run_sweep(spec, threads=threads)]
    emit(rows, _SWEEP_FIELDS, args.format, args.out)
    return 0


def _cmd_threshold(args):
    result = snl_threshold(
        Scheme(args.scheme),
        ResourceKind(args.resource),
        args.nbar,
        LossKind(args.loss),
        optimize_mu=not args.fixed_mu,
        tol=args.tol,
    )
    row = {
        "scheme": args.scheme,
        "resource": args.resource,
        "nbar": float(args.nbar),
        "loss_kind": args.loss,
        "loss_rate": result.loss_rate,
        "bracket_lo": float(result.bracket[0]),
        "bracket_hi": float(result.bracket[1]),
        "iterations": result.iterations,
        "status": result.status,
    }
    emit([row], list(row), args.format, args.out)
    return 0


def _cmd_validate(args):
    from . import validate

    failures = validate.run_cross_checks(cutoff=args.cutoff, stream=sys.stdout)
    return 1 if failures else 0


def _names(enum):
    return sorted(member.value for member in enum)


class _Parser(argparse.ArgumentParser):
    """Takes every negative float (``-1e-3``, ``-inf``) for a value, so the library checks it; argparse
    alone knows only ``-1`` and ``-.5`` and reads the rest as unknown options.  Subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None  # a value, not an option


def build_parser():
    parser = _Parser(
        prog="mzi-lab",
        description="Phase-estimation sensitivities of a lossy Mach-Zehnder interferometer "
        "with Gaussian input resources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    def add_config(p):
        p.add_argument("--scheme", choices=_names(Scheme), required=True)
        p.add_argument("--resource", choices=_names(ResourceKind), required=True)
        p.add_argument("--nbar", type=float, default=10.0)
        p.add_argument("--loss", choices=_names(LossKind), default="symmetric")
        p.add_argument(
            "--fixed-mu",
            action="store_true",
            help="pin the CSV squeezing fraction at its lossless optimum instead of re-optimizing per point",
        )

    p_point = sub.add_parser("point", help="one optimized sensitivity evaluation")
    add_config(p_point)
    p_point.add_argument("--rate", type=float, default=0.0, help="loss rate 1 - eta")
    p_point.add_argument("--mu", type=float, default=None, help="fix the CSV squeezing fraction")
    add_io(p_point)
    p_point.set_defaults(fn=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter sweep or figure preset")
    p_sweep.add_argument("--figure", choices=sorted(figure_presets()), default=None)
    p_sweep.add_argument("--variable", choices=_names(SweepVariable), default=None)
    p_sweep.add_argument("--lo", type=float, default=0.0)
    p_sweep.add_argument("--hi", type=float, default=0.6)
    p_sweep.add_argument("--points", type=int, default=21)
    p_sweep.add_argument("--scheme", nargs="+", choices=_names(Scheme), default=["qfi"])
    p_sweep.add_argument(
        "--resource", nargs="+", choices=_names(ResourceKind), default=_names(ResourceKind)
    )
    p_sweep.add_argument("--nbar", type=float, default=10.0, help="fixed energy for loss sweeps")
    p_sweep.add_argument("--rate", type=float, default=0.0, help="fixed loss rate for nbar sweeps")
    p_sweep.add_argument("--loss", choices=_names(LossKind), default="symmetric")
    p_sweep.add_argument("--fixed-mu", action="store_true")
    add_io(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_thresh = sub.add_parser("threshold", help="loss rate at which a scheme meets the SNL")
    add_config(p_thresh)
    p_thresh.add_argument("--tol", type=float, default=1e-3)
    add_io(p_thresh)
    p_thresh.set_defaults(fn=_cmd_threshold)

    p_val = sub.add_parser("validate", help="run the Fock-oracle cross-check table")
    p_val.add_argument("--cutoff", type=int, default=40)
    p_val.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidArgument, UnsupportedConfiguration) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MziLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
