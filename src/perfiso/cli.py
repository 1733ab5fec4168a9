"""Deterministic command-line front end.

Commands: chartab, mu, check, enumerate, decompose, verify.  Each command is
a function of the parsed arguments that returns ``(ok, payload, lines)``:
the positive verdict, the JSON keys that follow ``"schema"`` and ``"p"``,
and the lines of the text output, an iterable that main reads only for
--format text.  ``main`` alone writes stdout, once, after the command
has returned, so an error exit leaves stdout empty.  Output is byte-stable
for identical invocations; JSON payloads carry a top-level "schema": 1
version field.  JSON is written by ``_dumps``, byte for byte what
``json.dumps(..., indent=2)`` writes; it needs CPython's C module ``_json``,
and json itself is not imported.  Exit codes: 0 for success / a perfect
verdict, 1 for a negative verdict or failed check, 2 for usage, parse and
bound errors (every command rejects p > MAX_P before the primality test), 3
for an internal error, reported on stderr without a traceback.  ``check``
exits 3 when its two perfectness checkers disagree: ``is_perfect``, which
counts kernel rows 0 and 1, and ``is_perfect_via_spaces``, which reads the
rule of pigroup.iter_perfect off the map with no ring arithmetic.

A ``--map`` literal that starts with "-" may be given as a separate
argument (``--map -0,-1,-2``) or joined (``--map=-0,-1,-2``); both forms
reach the same literal parser, so a malformed one gets the same message.

One command table, ``_commands()``, is read by ``build_parser`` and by
``_parse_plain``.  A plain call (the command, then each of its options once,
with well-formed values) is parsed from the table alone, to the namespace
argparse would build; help, usage errors, abbreviations and every other argv
go to the argparse parser, which is imported and built only for them.  A
reader that closes stdout early ends the output, not the verdict: the exit
code is the command's own, and nothing is printed on stderr.  An error line
goes to stderr or nowhere (_error), never to stdout.

Each command imports the library functions it calls when it runs, and
parsing imports none, so a call loads only the layers its command needs:
chartab loads cyclotomic alone; mu and check cyclotomic and isometry;
decompose, enumerate and verify those two and pigroup.

chartab and mu render their grids row by row and hold no p x p table of
ring values: chartab renders the p powers of zeta once and builds each row
from their texts, and mu renders each kernel row as _kernel_rows makes it.

``main`` returns the exit code.  ``run``, the entry of ``python -m perfiso``
and of the ``perfiso`` script, calls it, flushes stdout and stderr and ends
the process with ``os._exit``, skipping interpreter teardown (see run).
"""

import os
import sys
from types import SimpleNamespace

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from collections.abc import Iterable, Sequence

    from .isometry import Verdict
    from .pigroup import AffineCoords, PIGroupReport

    Args = argparse.Namespace | SimpleNamespace

__all__ = ["main", "run", "build_parser"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SCHEMA_VERSION = 1
# the target scale; at p = 101, end to end on 2 vCPUs (median of 21) on a host
# whose bare `python -c pass` takes 0.066 s, verify and enumerate take about
# 0.12 s (0.21 s with --format json), chartab 0.062 s, and check and mu of an
# affine map 0.067 and 0.074 s (0.063 and 0.39 s for a random signed map, whose
# mu prints 10,201 coefficient lists)
MAX_P = 101

FORMATS = ("text", "json")
# pigroup's modes and default, held here so that parsing loads no layer
POSITIVE_THEN_NEGATE = "positive_then_negate"
MODES = ("exhaustive", POSITIVE_THEN_NEGATE)


def _commands() -> dict[str, tuple]:
    """The command table: name -> (handler, help, --map example, takes --mode).

    build_parser and _parse_plain both read it; a command without --map has
    no example.  It holds no library call: each handler imports the layer
    functions it calls, so parsing loads no layer.
    """
    return {
        "chartab": (cmd_chartab, "print the character table", None, False),
        "mu": (cmd_mu, "print the pairing kernel of an isometry", "+2,+0,+1", False),
        "check": (cmd_check, "test an isometry for perfectness", "+0,+1,+2", False),
        "enumerate": (cmd_enumerate, "enumerate all perfect isometries", None, True),
        "decompose": (
            cmd_decompose, "affine coordinates of a perfect isometry", "+1,+3,+0,+2,+4", False
        ),
        "verify": (cmd_verify, "enumerate and verify the group structure", None, True),
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

    for name, (func, help_text, example, modes) in _commands().items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if example:
            sp.add_argument("--map", required=True, help=f'isometry literal, e.g. "{example}"')
        if modes:
            # accepted for script compatibility: both modes run one search
            sp.add_argument(
                "--mode", choices=MODES, default=POSITIVE_THEN_NEGATE, help="enumeration mode"
            )
        sp.set_defaults(func=func)

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
    func, _, example, modes = entry
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
    args = SimpleNamespace(command=argv[0], p=p, format=fmt, seed=seed, func=func)
    if example:
        args.map = values["--map"]
    if modes:
        args.mode = mode
    return args


_Result = tuple[bool, dict, "Iterable[str]"]


def _grid(grid: list[list[str]]) -> tuple[dict, "Iterable[str]"]:
    # the text lines are joined only when main writes them, so a JSON call
    # builds none
    return {"entries": grid}, map(" ".join, grid)


def _coords_text(c: "AffineCoords") -> str:
    return f"({'+' if c.eps > 0 else '-'}1, a={c.a}, u={c.u})"


def _verdict_json(verdict: "Verdict") -> dict:
    return {
        "status": verdict.status,
        "witness": list(verdict.witness) if verdict.witness else None,
    }


def cmd_chartab(args: "Args") -> _Result:
    # entry (a, b) is zeta^(a*b), so each row is made of the p texts of the
    # powers zeta^k, each rendered once; no ring value outlives its text
    from .cyclotomic import require_prime, symbolic_str, zeta_pow

    p = require_prime(args.p)
    powers = [symbolic_str(zeta_pow(p, k)) for k in range(p)]
    payload, lines = _grid([[powers[a * b % p] for b in range(p)] for a in range(p)])
    return True, payload, lines


def cmd_mu(args: "Args") -> _Result:
    from .cyclotomic import symbolic_str
    from .isometry import SignedIsometry, _kernel_rows

    iso = SignedIsometry.from_literal(args.p, args.map)
    rows = _kernel_rows(iso)
    grid = [[symbolic_str(e) for e in next(rows)]]
    row1 = next(rows)
    grid.append([symbolic_str(e) for e in row1])
    # a derived row holds row 1's zero entries as the same objects, rendered
    # above and found again by id (row1 stays alive, so no id of it is
    # reused); its other entries are new, rendered as the row arrives, and
    # freed with it.  symbolic_str never returns ""
    shared = dict(zip(map(id, row1), grid[1]))
    grid += ([shared.get(id(e)) or symbolic_str(e) for e in row] for row in rows)
    payload, lines = _grid(grid)
    return True, {"map": iso.as_literal(), **payload}, lines


def cmd_check(args: "Args") -> _Result:
    from .isometry import InternalError, SignedIsometry, is_perfect, is_perfect_via_spaces

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
    from .isometry import SignedIsometry
    from .pigroup import decompose

    iso = SignedIsometry.from_literal(args.p, args.map)
    c = decompose(iso)
    payload = {"map": iso.as_literal(), "eps": c.eps, "a": c.a, "u": c.u}
    return True, payload, [_coords_text(c)]


def cmd_enumerate(args: "Args") -> _Result:
    from .pigroup import enumerate_perfect

    return _report(enumerate_perfect(args.p))


def cmd_verify(args: "Args") -> _Result:
    from .pigroup import verify_structure

    return _report(verify_structure(args.p))


def _report(report: "PIGroupReport") -> _Result:
    from .pigroup import CHECK_KEYS

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


def _error(message: str) -> None:
    """Write "error: message" to stderr, or nowhere when stderr cannot take it.

    With stderr closed at start-up, sys.stderr is None, and print(file=None)
    would write to stdout; a descriptor that refuses writes raises OSError.
    Either way the line is dropped, so stdout stays empty and the exit code
    is the command's own.
    """
    if sys.stderr is not None:
        try:
            print(f"error: {message}", file=sys.stderr)
        except OSError:
            pass


def main(argv: "Sequence[str] | None" = None) -> int:
    argv = _join_map_literals(sys.argv[1:] if argv is None else argv)
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        if args.p > MAX_P:
            raise ValueError(f"p={args.p} is out of range; the bound is p <= {MAX_P}")
        ok, payload, lines = args.func(args)
    except ValueError as exc:
        _error(str(exc))
        return EXIT_USAGE
    except Exception as exc:
        # the layers' own errors, imported only once something is raised
        from .isometry import InternalError
        from .pigroup import NotPerfect

        if isinstance(exc, NotPerfect):
            _error(str(exc))
            return EXIT_NEGATIVE
        if not isinstance(exc, InternalError):
            raise
        _error(f"internal error: {exc}")
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
        # to devnull, so a later flush (run's or the interpreter's) does not
        # fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK if ok else EXIT_NEGATIVE


def run() -> None:
    """The command-line entry (python -m perfiso, the perfiso script): main,
    then an exit without interpreter teardown.

    Once main has returned, both streams are flushed and the process ends
    with os._exit, so it skips what the interpreter would do next: clear
    every module, collect garbage and free memory, which takes longer than
    a small command itself.  No check of perfiso runs then, but atexit
    handlers that other tools register do not run either.  A stream that is
    None (closed at start-up) is skipped.  When a flush raises OSError, or
    under python -i (or PYTHONINSPECT), run ends with SystemExit instead,
    as a plain SystemExit(main()) would, and the interpreter finishes as
    usual.  SystemExit from argparse and any exception from main pass
    through untouched.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        raise SystemExit(code)
    if sys.flags.inspect:
        raise SystemExit(code)
    os._exit(code)
