"""Deterministic command-line front end.

Commands: chartab, mu, check, enumerate, decompose, verify.  Each command is
a function of the parsed arguments that returns ``(ok, payload, lines)``:
the positive verdict, the JSON keys that follow ``"schema"`` and ``"p"``,
and the text output.  ``main`` alone writes stdout, once, after the command
has returned, so an error exit leaves stdout empty.  Output is byte-stable
for identical invocations; JSON payloads carry a top-level "schema": 1
version field.  Exit codes: 0 for success / a perfect verdict, 1 for a
negative verdict or failed check, 2 for usage, parse and bound errors
(every command rejects p > MAX_P before the primality test), 3 for an
internal error (such as the two perfectness checkers disagreeing), reported
on stderr without a traceback.

A ``--map`` literal that starts with "-" may be given as a separate
argument (``--map -0,-1,-2``) or joined (``--map=-0,-1,-2``); both forms
reach the same literal parser, so a malformed one gets the same message.
"""

from __future__ import annotations

import argparse
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
    AffineCoords,
    NotPerfect,
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
# the target scale; at p = 101, end to end on 2 vCPUs (median of 7), verify and
# enumerate take about 0.5 s, chartab 0.10 s, and check and mu of an affine map
# 0.09 s each (0.09 and 0.40 s for a random signed map, whose mu prints 10,201
# coefficient lists; a bare interpreter start is about 0.06 s)
MAX_P = 101


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

    examples = {"mu": "+2,+0,+1", "check": "+0,+1,+2", "decompose": "+1,+3,+0,+2,+4"}
    builds = {"enumerate": enumerate_perfect, "verify": verify_structure}
    for name, func, help_text in (
        ("chartab", cmd_chartab, "print the character table"),
        ("mu", cmd_mu, "print the pairing kernel of an isometry"),
        ("check", cmd_check, "test an isometry for perfectness"),
        ("enumerate", cmd_report, "enumerate all perfect isometries"),
        ("decompose", cmd_decompose, "affine coordinates of a perfect isometry"),
        ("verify", cmd_report, "enumerate and verify the group structure"),
    ):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if name in examples:
            sp.add_argument(
                "--map", required=True, help=f'isometry literal, e.g. "{examples[name]}"'
            )
        if name in builds:
            # accepted for script compatibility: both modes run one search
            sp.add_argument(
                "--mode", choices=MODES, default=POSITIVE_THEN_NEGATE, help="enumeration mode"
            )
        sp.set_defaults(func=func, build=builds.get(name))

    return parser


_Result = tuple[bool, dict, list[str]]


def _grid(entries) -> tuple[dict, list[str]]:
    grid = [[symbolic_str(e) for e in row] for row in entries]
    return {"entries": grid}, [" ".join(row) for row in grid]


def _coords_text(c: AffineCoords) -> str:
    return f"({'+' if c.eps > 0 else '-'}1, a={c.a}, u={c.u})"


def _verdict_json(verdict: Verdict) -> dict:
    return {
        "status": verdict.status,
        "witness": list(verdict.witness) if verdict.witness else None,
    }


def cmd_chartab(args: argparse.Namespace) -> _Result:
    payload, lines = _grid(char_table(args.p))
    return True, payload, lines


def cmd_mu(args: argparse.Namespace) -> _Result:
    iso = SignedIsometry.from_literal(args.p, args.map)
    payload, lines = _grid(kernel_table(iso).entries)
    return True, {"map": iso.as_literal(), **payload}, lines


def cmd_check(args: argparse.Namespace) -> _Result:
    iso = SignedIsometry.from_literal(args.p, args.map)
    direct = is_perfect(iso)
    cross = is_perfect_via_spaces(iso)
    if direct.status != cross.status:
        raise InternalError(f"checkers disagree ({direct.status} vs {cross.status})")
    payload = {
        "map": iso.as_literal(),
        "verdict": _verdict_json(direct),
        "cross_check": _verdict_json(cross),
        "agree": True,
    }
    lines = [f"verdict: {direct.status}"]
    if direct.witness:
        lines.append(f"witness: ({direct.witness[0]}, {direct.witness[1]})")
    lines.append(f"cross_check: {cross.status}")
    if cross.witness:
        lines.append(f"cross_check_witness: ({cross.witness[0]}, {cross.witness[1]})")
    return direct.ok, payload, lines


def cmd_decompose(args: argparse.Namespace) -> _Result:
    iso = SignedIsometry.from_literal(args.p, args.map)
    c = decompose(iso)
    payload = {"map": iso.as_literal(), "eps": c.eps, "a": c.a, "u": c.u}
    return True, payload, [_coords_text(c)]


def cmd_report(args: argparse.Namespace) -> _Result:
    """enumerate or verify: ``args.build`` is the library call that makes the report."""
    report = args.build(args.p)
    shown = {None: "not_checked", True: "pass", False: "FAIL"}
    lines = [
        f"p: {report.p}",
        f"order: {report.order}",
        "elements:",
        *(f"  {_coords_text(c)}" for c in report.elements),
        "checks:",
        *(f"  {key}: {shown[report.checks[key]]}" for key in CHECK_KEYS),
        *(f"  ! {line}" for line in report.failures),
    ]
    return report.all_pass(), report.to_json_dict(), lines


def _join_map_literals(argv: Sequence[str]) -> list[str]:
    """Join "--map" with a following token that starts with a single "-".

    argparse reads a separate "-0,-1,-2" as an unknown option, so it is
    passed on as the single token "--map=-0,-1,-2", and the literal parser
    judges it, malformed or not.  The parser's own short options, "-p..."
    and "-h", are left alone, as is every "--" token.
    """
    joined: list[str] = []
    for token in argv:
        literal = token[:1] == "-" and token[:2] not in ("--", "-p") and token != "-h"
        if joined and joined[-1] == "--map" and literal:
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
        ok, payload, lines = args.func(args)
    except NotPerfect as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        import json  # only here: text runs do not pay for importing it

        # a report's own "p" key takes the envelope's place and has the same value
        print(json.dumps({"schema": SCHEMA_VERSION, "p": args.p, **payload}, indent=2))
    else:
        print("\n".join(lines))
    return EXIT_OK if ok else EXIT_NEGATIVE
