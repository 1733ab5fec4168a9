"""Deterministic command-line front end.

Commands: chartab, mu, check, enumerate, decompose, verify.  Output is
byte-stable for identical invocations; JSON payloads carry a top-level
"schema": 1 version field.  Exit codes: 0 for success / a perfect verdict,
1 for a negative verdict or failed check, 2 for usage, parse and
feasibility errors (every command rejects p > MAX_P before the primality
test), 3 for an internal error (such as the two perfectness checkers
disagreeing), reported on stderr without a traceback.

A ``--map`` literal that starts with "-" may be given as a separate
argument (``--map -0,-1,-2``) or joined (``--map=-0,-1,-2``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from .characters import char_table
from .cyclotomic import symbolic_str
from .isometry import (
    InternalError,
    SignedIsometry,
    Verdict,
    is_perfect,
    is_perfect_via_spaces,
    kernel_table,
)
from .pigroup import (
    CHECK_KEYS,
    MODES,
    NotPerfect,
    PIGroupReport,
    POSITIVE_THEN_NEGATE,
    decompose,
    enumerate_perfect,
    verify_structure,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SCHEMA_VERSION = 1
MAX_P = 101  # the target scale; at p = 101, check takes about 0.25 s, mu and chartab 0.2 s (2 vCPUs)

_NEGATIVE_LITERAL = re.compile(r"-\d")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-p", type=int, required=True, help="prime order of the group")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--seed",
        type=int,
        default=0,
        help="accepted on every command for script compatibility; no command uses it",
    )

    parser = argparse.ArgumentParser(
        prog="perfiso",
        description="Exact tools for perfect self-isometries of the prime-order cyclic block.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("chartab", parents=[common], help="print the character table")
    sp.set_defaults(func=cmd_chartab)

    sp = sub.add_parser(
        "mu", parents=[common], help="print the pairing kernel of an isometry"
    )
    sp.add_argument("--map", required=True, help='isometry literal, e.g. "+2,+0,+1"')
    sp.set_defaults(func=cmd_mu)

    sp = sub.add_parser(
        "check", parents=[common], help="test an isometry for perfectness"
    )
    sp.add_argument("--map", required=True, help='isometry literal, e.g. "+0,+1,+2"')
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser(
        "enumerate", parents=[common], help="enumerate all perfect isometries"
    )
    sp.add_argument(
        "--mode", choices=MODES, default=POSITIVE_THEN_NEGATE, help="enumeration mode"
    )
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser(
        "decompose", parents=[common], help="affine coordinates of a perfect isometry"
    )
    sp.add_argument("--map", required=True, help='isometry literal, e.g. "+1,+3,+0,+2,+4"')
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser(
        "verify", parents=[common], help="enumerate and verify the group structure"
    )
    sp.add_argument(
        "--mode", choices=MODES, default=POSITIVE_THEN_NEGATE, help="enumeration mode"
    )
    sp.set_defaults(func=cmd_verify)

    return parser


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _grid(entries) -> list[list[str]]:
    return [[symbolic_str(e) for e in row] for row in entries]


def cmd_chartab(args: argparse.Namespace) -> int:
    grid = _grid(char_table(args.p))
    if args.format == "json":
        _print_json({"schema": SCHEMA_VERSION, "p": args.p, "entries": grid})
    else:
        for row in grid:
            print(" ".join(row))
    return EXIT_OK


def cmd_mu(args: argparse.Namespace) -> int:
    iso = SignedIsometry.from_literal(args.p, args.map)
    grid = _grid(kernel_table(iso).entries)
    if args.format == "json":
        _print_json(
            {
                "schema": SCHEMA_VERSION,
                "p": args.p,
                "map": iso.as_literal(),
                "entries": grid,
            }
        )
    else:
        for row in grid:
            print(" ".join(row))
    return EXIT_OK


def _verdict_json(verdict: Verdict) -> dict:
    return {
        "status": verdict.status,
        "witness": list(verdict.witness) if verdict.witness else None,
    }


def cmd_check(args: argparse.Namespace) -> int:
    iso = SignedIsometry.from_literal(args.p, args.map)
    direct = is_perfect(iso)
    cross = is_perfect_via_spaces(iso)
    if direct.status != cross.status:
        raise InternalError(f"checkers disagree ({direct.status} vs {cross.status})")
    if args.format == "json":
        _print_json(
            {
                "schema": SCHEMA_VERSION,
                "p": args.p,
                "map": iso.as_literal(),
                "verdict": _verdict_json(direct),
                "cross_check": _verdict_json(cross),
                "agree": True,
            }
        )
    else:
        print(f"verdict: {direct.status}")
        if direct.witness:
            print(f"witness: ({direct.witness[0]}, {direct.witness[1]})")
        print(f"cross_check: {cross.status}")
        if cross.witness:
            print(f"cross_check_witness: ({cross.witness[0]}, {cross.witness[1]})")
    return EXIT_OK if direct.ok else EXIT_NEGATIVE


def _print_report(report: PIGroupReport, fmt: str) -> None:
    if fmt == "json":
        _print_json({"schema": SCHEMA_VERSION, **report.to_json_dict()})
        return
    print(f"p: {report.p}")
    print(f"order: {report.order}")
    print("elements:")
    for c in report.elements:
        print(f"  ({'+' if c.eps > 0 else '-'}1, a={c.a}, u={c.u})")
    print("checks:")
    for key in CHECK_KEYS:
        value = report.checks[key]
        shown = "not_checked" if value is None else ("pass" if value else "FAIL")
        print(f"  {key}: {shown}")
    for line in report.failures:
        print(f"  ! {line}")


def cmd_enumerate(args: argparse.Namespace) -> int:
    report = enumerate_perfect(args.p, args.mode)
    _print_report(report, args.format)
    return EXIT_OK if report.all_pass() else EXIT_NEGATIVE


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_structure(args.p, args.mode)
    _print_report(report, args.format)
    return EXIT_OK if report.all_pass() else EXIT_NEGATIVE


def cmd_decompose(args: argparse.Namespace) -> int:
    iso = SignedIsometry.from_literal(args.p, args.map)
    coords = decompose(iso)
    if args.format == "json":
        _print_json(
            {
                "schema": SCHEMA_VERSION,
                "p": args.p,
                "map": iso.as_literal(),
                "eps": coords.eps,
                "a": coords.a,
                "u": coords.u,
            }
        )
    else:
        print(f"({'+' if coords.eps > 0 else '-'}1, a={coords.a}, u={coords.u})")
    return EXIT_OK


def _join_map_literals(argv: Sequence[str]) -> list[str]:
    """Join "--map" with a following literal that starts with "-".

    argparse reads a separate "-0,-1,-2" as an unknown option, so it is
    passed on as the single token "--map=-0,-1,-2".
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] == "--map" and _NEGATIVE_LITERAL.match(token):
            joined[-1] = f"--map={token}"
        else:
            joined.append(token)
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_map_literals(sys.argv[1:] if argv is None else argv))
    try:
        if args.p > MAX_P:
            raise ValueError(f"p={args.p} is out of range; the bound is p <= {MAX_P}")
        return args.func(args)
    except NotPerfect as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
