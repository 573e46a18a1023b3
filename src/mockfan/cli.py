"""Batch command-line interface.

Subcommands operate on the UTF-8 text formats of `mockfan.formats`
and print to stdout unless `-o` is given.  Exit codes: 0 success,
1 verification mismatch, 2 bad input, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import formats
from .cones import ConeError, dual_cone
from .exact import ExactError
from .fans import FanError, rescale
from .grassmann import GrassmannError, GrassmannSpec, verify, vol_expression
from .subdivision import (ChartError, GlueError, SubdivisionInconsistency,
                          glue_charts, subdivide_chart)
from .volume import vol_skeleton

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_INPUT_ERRORS = (formats.ParseError, ConeError, FanError, ChartError,
                 GlueError, GrassmannError, ExactError, OSError, UnicodeDecodeError)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, out: Optional[str]):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))


def _cmd_dual(args) -> int:
    cone = formats.read_cone(_read(args.input))
    _emit(formats.write_cone(dual_cone(cone)), args.output)
    return EXIT_OK


def _cmd_faces(args) -> int:
    cone = formats.read_cone(_read(args.input))
    _emit(formats.write_faces(cone), args.output)
    return EXIT_OK


def _cmd_subdivide(args) -> int:
    chart = formats.read_chart(_read(args.input))
    result = subdivide_chart(chart)
    _emit(formats.write_result(result.projected_fan, result.active_sets), args.output)
    return EXIT_OK


def _cmd_glue(args) -> int:
    results = [subdivide_chart(formats.read_chart(_read(p))) for p in args.inputs]
    glued = glue_charts(results)
    _emit(formats.write_result(glued.fan, glued.active_sets), args.output)
    return EXIT_OK


def _cmd_bounded(args) -> int:
    fan = formats.read_fan(_read(args.input))
    _emit(formats.write_classification(fan), args.output)
    return EXIT_OK


def _cmd_rescale(args) -> int:
    fan = formats.read_fan(_read(args.input))
    _emit(formats.write_fan(rescale(fan, args.scale)), args.output)
    return EXIT_OK


def _cmd_vol(args) -> int:
    fan = formats.read_fan_or_result(_read(args.input))
    annotations = {}
    if args.annotations:
        annotations = formats.read_annotations(_read(args.annotations), fan)
    total = vol_skeleton(fan, annotations)
    _emit(formats.write_expression(total), args.output)
    return EXIT_OK


def _cmd_grassmann_verify(args) -> int:
    spec = GrassmannSpec(args.n, args.d, args.l)
    report = verify(spec)
    _emit(report.render() + "\n", args.output)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _cmd_grassmann_vol(args) -> int:
    spec = GrassmannSpec(args.n, args.d, args.l)
    report = verify(spec)
    if not report.passed:
        sys.stderr.write("error[mismatch]: verification failed, no volume emitted\n")
        return EXIT_MISMATCH
    _emit(formats.write_expression(vol_expression(spec, report)), args.output)
    return EXIT_OK


_INPUT = (("-i", "--input"), {"required": True})
_NDL = [(("--n",), {"type": int, "required": True}), (("--d",), {"type": int, "required": True}),
        (("--l",), {"type": int, "default": 1})]

# each subcommand: its handler, its help and its arguments besides -o, as
# (flags, keyword arguments) of `add_argument`
COMMANDS = {
    "dual": (_cmd_dual, "dual cone of a cone file", [_INPUT]),
    "faces": (_cmd_faces, "all faces of a cone file", [_INPUT]),
    "subdivide": (_cmd_subdivide, "subdivision fan and active sets of a chart", [_INPUT]),
    "glue": (_cmd_glue, "subdivide several charts and merge the fans",
             [(("-i", "--inputs"), {"required": True, "nargs": "+"})]),
    "bounded": (_cmd_bounded, "special/bounded classification of a fan", [_INPUT]),
    "rescale": (_cmd_rescale, "image of a t-flagged fan under (v,t) -> (n v,t)",
                [_INPUT, (("--scale",), {"type": int, "required": True})]),
    "vol": (_cmd_vol, "signed class sum over bounded cones of a fan",
            [(("-i", "--input"), {"required": True,
                                  "help": "fan file or subdivision result file"}),
             (("--annotations",), {"help": "optional annotations file"})]),
    "grassmann-verify": (_cmd_grassmann_verify,
                         "verify the Gr(2,n) degree-d bounded cones and active sets", _NDL),
    "grassmann-vol": (_cmd_grassmann_vol,
                      "verified signed class sum for the Gr(2,n) instance", _NDL),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with `command`, one of `COMMANDS`,
    of that one alone, which parses its command lines alike: its usage
    names every subcommand, so its errors and help read the same."""
    parser = argparse.ArgumentParser(
        prog="mockfan",
        description="Exact polyhedral subdivision fans and signed stratum volumes.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name, (func, help_text, arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(func=func)
            p.add_argument("-o", "--output", help="output file (default: stdout)")
            for flags, options in arguments:
                p.add_argument(*flags, **options)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line; only the parser of its subcommand is built."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except SubdivisionInconsistency as exc:
        sys.stderr.write(f"error[internal]: {exc}\n")
        return EXIT_INTERNAL
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error[input]: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
