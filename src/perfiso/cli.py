"""Deterministic command-line front end.

Commands: chartab, mu, check, enumerate, decompose, verify.  Each command is
a function of the parsed arguments that returns ``(ok, payload, lines)``:
the positive verdict, the JSON keys that follow ``"schema"`` and ``"p"``,
and the text output.  ``main`` alone writes stdout, once, after the command
has returned, so an error exit leaves stdout empty.  Output is byte-stable
for identical invocations; JSON payloads carry a top-level "schema": 1
version field.  JSON is written by ``_dumps``, byte for byte what
``json.dumps(..., indent=2)`` writes; it needs CPython's C module ``_json``,
and json itself is not imported.  Exit codes: 0 for success / a perfect
verdict, 1 for a negative verdict or failed check, 2 for usage, parse and
bound errors (every command rejects p > MAX_P before the primality test), 3
for an internal error (such as the two perfectness checkers disagreeing),
reported on stderr without a traceback.

A ``--map`` literal that starts with "-" may be given as a separate
argument (``--map -0,-1,-2``) or joined (``--map=-0,-1,-2``); both forms
reach the same literal parser, so a malformed one gets the same message.

One command table, ``_commands()``, is read by ``build_parser`` and by
``_parse_plain``.  A plain call (the command, then each of its options once,
with well-formed values) is parsed from the table alone, to the namespace
argparse would build; help, usage errors, abbreviations and every other argv
go to the argparse parser, which is imported and built only for them.  A
reader that closes stdout early ends the output, not the verdict: the exit
code is the command's own, and nothing is printed on stderr.
"""

import os
import sys
from types import SimpleNamespace

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

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from collections.abc import Sequence

    Args = argparse.Namespace | SimpleNamespace

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SCHEMA_VERSION = 1
# the target scale; at p = 101, end to end on 2 vCPUs (median of 31), verify and
# enumerate take about 0.055 s (0.09 s with --format json), chartab 0.045 s, and
# check and mu of an affine map 0.035 s each (0.03 and 0.18 s for a random signed
# map, whose mu prints 10,201 coefficient lists; a bare interpreter start is
# about 0.026 s)
MAX_P = 101

FORMATS = ("text", "json")


def _commands() -> dict[str, tuple]:
    """The command table: name -> (handler, help, library call, --map example, takes --mode).

    build_parser and _parse_plain both read it.  It is built on each call, so
    the library calls it holds are this module's names at that moment, a
    traced or patched one included.  The library call is the one that makes
    the report of enumerate and verify (see cmd_report); a command without
    --map has no example.
    """
    return {
        "chartab": (cmd_chartab, "print the character table", None, None, False),
        "mu": (cmd_mu, "print the pairing kernel of an isometry", None, "+2,+0,+1", False),
        "check": (cmd_check, "test an isometry for perfectness", None, "+0,+1,+2", False),
        "enumerate": (
            cmd_report, "enumerate all perfect isometries", enumerate_perfect, None, True
        ),
        "decompose": (
            cmd_decompose, "affine coordinates of a perfect isometry", None, "+1,+3,+0,+2,+4", False
        ),
        "verify": (
            cmd_report, "enumerate and verify the group structure", verify_structure, None, True
        ),
    }


def build_parser() -> "argparse.ArgumentParser":
    import argparse  # only here: a plain call is parsed by _parse_plain without it

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-p", type=int, required=True, help="prime order of the group")
    common.add_argument("--format", choices=FORMATS, default="text", help="output format")
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

    for name, (func, help_text, build, example, modes) in _commands().items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if example:
            sp.add_argument("--map", required=True, help=f'isometry literal, e.g. "{example}"')
        if modes:
            # accepted for script compatibility: both modes run one search
            sp.add_argument(
                "--mode", choices=MODES, default=POSITIVE_THEN_NEGATE, help="enumeration mode"
            )
        sp.set_defaults(func=func, build=build)

    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser() gives a plain call; None for any other argv.

    A plain call is the command, then each of its options at most once, as
    "--opt value", "--opt=value" or "-p value": -p and --seed in ASCII
    digits, --format and --mode one of their choices exactly, no separate
    value that starts with "-", and -p present, and --map too where the
    command has it.  argparse reads such an argv to the same namespace.
    Anything else, help, abbreviations, "-p7", a repeated option and every
    usage error among it, gets None, so argparse alone prints help and
    usage messages and picks their exit codes.
    """
    entry = _commands().get(argv[0]) if argv else None
    if entry is None:
        return None
    func, _, build, example, modes = entry
    names = {"-p", "--format", "--seed"}
    if example:
        names.add("--map")
    if modes:
        names.add("--mode")
    values: dict[str, str] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, joined, value = token.partition("=")
        if not (joined and name[:2] == "--"):
            name, value = token, next(tokens, None)
            if value is None or value[:1] == "-":
                return None
        # argparse drops a value of "--" ("--map=--" gives an empty list)
        if name not in names or name in values or value == "--":
            return None
        values[name] = value
    if "-p" not in values or (example and "--map" not in values):
        return None
    numbers = [values["-p"], values.get("--seed", "0")]
    fmt = values.get("--format", "text")
    mode = values.get("--mode", POSITIVE_THEN_NEGATE)
    if not all(n.isascii() and n.isdigit() for n in numbers):
        return None
    if fmt not in FORMATS or mode not in MODES:
        return None
    try:
        p, seed = map(int, numbers)
    except ValueError:  # more digits than int() reads; argparse rejects them too
        return None
    args = SimpleNamespace(command=argv[0], p=p, format=fmt, seed=seed, func=func, build=build)
    if example:
        args.map = values["--map"]
    if modes:
        args.mode = mode
    return args


_Result = tuple[bool, dict, list[str]]


def _grid(entries) -> tuple[dict, list[str]]:
    # the rows share entry objects, and each shared one is rendered once: the
    # rows of chartab are made of its p powers, all of them in row 1, and mu
    # carries the zero objects of row 1 into every derived row.  So the
    # objects of rows 0 and 1 are rendered first and found again by id; the
    # dict stays at 2p entries for a dense map, whose derived rows share
    # nothing.  entries keeps every object alive until the grid is built, so
    # no id is reused meanwhile; symbolic_str never returns ""
    first = {id(e): e for row in entries[:2] for e in row}
    text = {key: symbolic_str(e) for key, e in first.items()}
    grid = [[text.get(id(e)) or symbolic_str(e) for e in row] for row in entries]
    return {"entries": grid}, [" ".join(row) for row in grid]


def _coords_text(c: AffineCoords) -> str:
    return f"({'+' if c.eps > 0 else '-'}1, a={c.a}, u={c.u})"


def _verdict_json(verdict: Verdict) -> dict:
    return {
        "status": verdict.status,
        "witness": list(verdict.witness) if verdict.witness else None,
    }


def cmd_chartab(args: "Args") -> _Result:
    payload, lines = _grid(char_table(args.p))
    return True, payload, lines


def cmd_mu(args: "Args") -> _Result:
    iso = SignedIsometry.from_literal(args.p, args.map)
    payload, lines = _grid(kernel_table(iso).entries)
    return True, {"map": iso.as_literal(), **payload}, lines


def cmd_check(args: "Args") -> _Result:
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


def cmd_decompose(args: "Args") -> _Result:
    iso = SignedIsometry.from_literal(args.p, args.map)
    c = decompose(iso)
    payload = {"map": iso.as_literal(), "eps": c.eps, "a": c.a, "u": c.u}
    return True, payload, [_coords_text(c)]


def cmd_report(args: "Args") -> _Result:
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


def _join_map_literals(argv: "Sequence[str]") -> list[str]:
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


def _dumps(value: object) -> str:
    """What json.dumps(value, indent=2) writes, for the values a payload holds.

    Those are dicts with str keys, lists, tuples, str, int, bool and None;
    anything else, a float or a non-str key included, raises TypeError.
    Strings go through _json.encode_basestring_ascii, the C escaper that
    json.dumps itself calls, so the output is the same byte for byte
    without importing json, whose modules compile regexes at import.  Each
    container is one join of its chunks, so a long string is copied once
    per level it is nested in.
    """
    from _json import encode_basestring_ascii as quote  # only here: text runs do not pay for it

    def write(value: object, pad: str) -> str:
        if isinstance(value, str):
            return quote(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        inner = pad + "  "
        sep = "," + inner
        chunks: list[str] = []
        if isinstance(value, (list, tuple)):
            for item in value:
                chunks += (sep, write(item, inner))
            brackets = "[]"
        elif isinstance(value, dict):
            for key, item in value.items():  # quote raises TypeError on a non-str key
                chunks += (sep, quote(key), ": ", write(item, inner))
            brackets = "{}"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not chunks:
            return brackets
        chunks[0] = brackets[0] + inner  # the first item has no comma before it
        chunks.append(pad + brackets[1])
        return "".join(chunks)

    return write(value, "\n")


def main(argv: "Sequence[str] | None" = None) -> int:
    argv = _join_map_literals(sys.argv[1:] if argv is None else argv)
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
        # a report's own "p" key takes the envelope's place and has the same value
        text = _dumps({"schema": SCHEMA_VERSION, "p": args.p, **payload})
    else:
        text = "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early, and the verdict stands; stdout now goes
        # to devnull, so the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK if ok else EXIT_NEGATIVE
