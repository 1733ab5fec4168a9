"""Deterministic command-line front end.

Commands: chartab, mu, check, enumerate, decompose, verify.  Each command is
a function of the parsed arguments that returns ``(ok, payload, lines)``:
the positive verdict, the JSON keys that follow ``"schema"`` and ``"p"``,
and the lines of the text output, an iterable that main reads only for
--format text.  ``main`` alone hands output to ``_end``, once, after the
command has returned, so an error exit leaves stdout empty.  Output is
byte-stable for identical invocations; JSON payloads carry a top-level
"schema": 1 version field.  JSON is written by ``_dumps``, byte for byte what
``json.dumps(..., indent=2)`` writes; it needs CPython's C module ``_json``,
and json itself is not imported.  Exit codes: 0 for success / a perfect
verdict, 1 for a negative verdict or failed check, 2 for usage, parse and
bound errors (every command rejects p > MAX_P before the primality test), 3
for an internal error or lost output (the stream rule below), reported on
stderr without a traceback.  ``check`` exits 3 when its two perfectness
checkers disagree: ``is_perfect``, which counts kernel rows 0 and 1 up to
its witness, and ``is_perfect_via_spaces``, which reads the rule of
pigroup.iter_perfect off the map with no ring arithmetic.  NotPerfect
exits 1 and InternalError 3; both live in the package root, so main
catches them by name and loads no layer to do so.

A ``--map`` literal that starts with "-" may be given as a separate
argument (``--map -0,-1,-2``) or joined (``--map=-0,-1,-2``); both forms
reach the same literal parser, so a malformed one gets the same message.
A joined "--" value (``--format=--``, ``-p=--``, ``-p--``) is split off
as a token of its own, which argparse refuses on every supported version
("expected one argument", exit 2).

One command table, ``_commands()``, is read by ``build_parser`` and by
``_parse_plain``: each command's handler and help, and each option's flag,
kind (int, str or a tuple of choices), default (None when it is required)
and help, so neither parser names an option.  A plain call (the command,
then each of its options once, with well-formed values) is parsed from the
table alone, to the namespace argparse would build; help, usage errors,
abbreviations and every other argv go to the argparse parser, which is
imported and built only for them.  Both parsers read an int option with
``_int``: an optional ASCII sign, then ASCII digits, so "٣", "1_1" and
" 3" are usage errors on either path and "+3" and "-1" keep their values.
The paths differ only in which token shapes they take, never in what a
value means.

One rule holds for both streams, and ``_end``, the one function that
writes or flushes them, applies it: a stream that refuses output (OSError)
is closed from then on, as one closed at start-up is, and a stdout that
refuses it for any reason but a closed pipe lost the output, so the call
exits 3 with "error: cannot write output: ..." on stderr.  A closed pipe
(``| head``) or a refusing stderr ends the output, not the verdict: the
exit code is the command's own, argparse's 2 for a usage error included,
and nothing is printed on stderr.  Every call ends through ``_end``, so
this holds under any buffering, for help and usage text too, and no
refused stream ends a call in a traceback.  An error line goes to stderr
or nowhere, never to stdout.

Each command imports the library functions it calls when it runs, and
parsing imports none, so a call loads only the layers its command needs:
chartab loads cyclotomic alone; mu and check cyclotomic and isometry;
decompose those two and pigroup; enumerate and verify pigroup alone, and
isometry too only to name a failure.

chartab and mu render their grids row by row and hold no p x p table of
ring values: chartab renders the p powers of zeta once, each the
normalized coefficient tuple cyclotomic._zeta_sums counts, and builds each
row from their texts, and mu fills each row with "0", the zero text of
cyclotomic._render, and renders, as _kernel_rows makes each row, only its
nonzero entries, each a normalized coefficient tuple: no command builds a
CycInt.
The grids' joined lines are made only when main writes them.  _report
alone turns a PIGroupReport into JSON keys or text lines, and builds only
those its --format writes: a JSON call makes no line, a text call no dict.

``main`` returns the exit code.  ``run``, the entry of ``python -m perfiso``
and of the ``perfiso`` script, calls it, ends argparse's exit through
``_end`` and ends the process with ``os._exit``, skipping interpreter
teardown (see run).
"""

import os
import sys
from types import SimpleNamespace

from . import MODES, POSITIVE_THEN_NEGATE, InternalError, NotPerfect, require_prime

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from collections.abc import Iterable, Sequence

    from .pigroup import PIGroupReport

    Args = argparse.Namespace | SimpleNamespace

__all__ = ["main", "run", "build_parser"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SCHEMA_VERSION = 1
# every command rejects p > MAX_P; the library has no bound.  Output size sets
# it: mu of a dense map writes p^2 coefficient lists of p integers, O(p^3)
# characters.  The measured times at this bound, and what raising it would
# take, are in ROADMAP.md and CHANGES.md
MAX_P = 101


def _commands() -> tuple[tuple, dict[str, tuple]]:
    """The command table: the options every command takes, and name ->
    (handler, help, the command's own options).

    Each option is a tuple (flag, kind, default, help), in the order help
    lists them, the common ones first.  kind is int (read by _int on both
    parser paths: an optional ASCII sign, then ASCII digits), str, or a
    tuple of choices; default is the value, as written on the command line,
    that an absent option takes, and None makes the option required.  build_parser and _parse_plain both read
    this table and name no option themselves.  It holds no library call:
    each handler imports the layer functions it calls, so parsing loads no
    layer.
    """
    common = (
        ("-p", int, None, "prime order of the group"),
        ("--format", ("text", "json"), "text", "output format"),
        ("--seed", int, "0",
         "accepted on every command for script compatibility; no command uses it"),
    )

    def map_option(example: str) -> tuple:
        return (("--map", str, None, f'isometry literal, e.g. "{example}"'),)

    # accepted for script compatibility: both modes run one search
    mode = (("--mode", MODES, POSITIVE_THEN_NEGATE, "enumeration mode"),)
    return common, {
        "chartab": (cmd_chartab, "print the character table", ()),
        "mu": (cmd_mu, "print the pairing kernel of an isometry", map_option("+2,+0,+1")),
        "check": (cmd_check, "test an isometry for perfectness", map_option("+0,+1,+2")),
        "enumerate": (cmd_enumerate, "enumerate all perfect isometries", mode),
        "decompose": (
            cmd_decompose, "affine coordinates of a perfect isometry", map_option("+1,+3,+0,+2,+4")
        ),
        "verify": (cmd_verify, "enumerate and verify the group structure", mode),
    }


def _int(text: str) -> int:
    """The value of an int option: an optional ASCII "+" or "-", then ASCII
    digits, at most 640 of them once leading zeros are stripped; anything
    else raises ValueError.

    int() alone would also read other digits ("٣"), "_" between
    digits and surrounding whitespace, and it refuses more digits, leading
    zeros counted, than the int-string limit, an interpreter setting
    (PYTHONINTMAXSTRDIGITS, -X int_max_str_digits) whose lowest value is
    640.  So int() reads every stripped value let through here under any
    setting, and an argv means the same under each.  _parse_plain calls
    this, and each subparser registers it as its int type, so argparse
    reads a value the same way and still words its error "invalid int
    value".
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    significant = digits.lstrip("0")
    if not (digits.isascii() and digits.isdigit()) or len(significant) > 640:
        raise ValueError(f"invalid int value: {text!r}")
    value = int(significant or "0")
    return -value if text[:1] == "-" else value


def build_parser() -> "argparse.ArgumentParser":
    import argparse  # only here: a plain call is parsed by _parse_plain without it

    def add_options(parser: argparse.ArgumentParser, options: tuple) -> argparse.ArgumentParser:
        for flag, kind, default, option_help in options:
            choices = kind if isinstance(kind, tuple) else None
            parser.add_argument(
                flag,
                type=None if choices else kind,
                choices=choices,
                default=default,
                required=default is None,
                help=option_help,
            )
        return parser

    def usage(name: str, options: tuple) -> str:
        # the line 3.11's argparse writes at COLUMNS=80, given as usage= so that
        # no interpreter or terminal width wraps it differently: [-h], then an
        # option with a default as one part, a required one as flag and metavar
        parts = ["[-h]"]
        for flag, kind, default, _ in options:
            metavar = flag.lstrip("-").upper()
            if isinstance(kind, tuple):
                metavar = "{%s}" % ",".join(kind)
            parts += [f"[{flag} {metavar}]"] if default is not None else [flag, metavar]
        line = f"usage: perfiso {name}"
        lines, indent = [], " " * (len(line) + 1)
        for part in parts:
            if len(line) + 1 + len(part) > 78:
                lines.append(line)
                line = indent + part
            else:
                line += " " + part
        return "\n".join([*lines, line]).removeprefix("usage: ")

    common, commands = _commands()
    # the common options go once into a parent that each command copies; added
    # to every command, each add_argument sizes its help again, about 0.2 ms more
    parent = add_options(argparse.ArgumentParser(add_help=False), common)
    parser = argparse.ArgumentParser(
        prog="perfiso",
        description="Exact tools for perfect self-isometries of the prime-order cyclic block.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in commands.items():
        sp = sub.add_parser(
            name, parents=[parent], help=help_text, usage=usage(name, (*common, *options))
        )
        sp.register("type", int, _int)  # type=int reads through _int; errors still say "int"
        add_options(sp, options)
        sp.set_defaults(func=func)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser() gives a plain call; None for any other argv.

    A plain call is the command, then each of its options at most once, as
    "--opt value", "--opt=value" or "-p value": an int option that _int
    reads, a choice option one of its choices exactly, no separate value
    that starts with "-", and every required option present.  argparse
    reads such an argv to the same namespace, with the same _int, and
    _join_map_literals has already split off a joined "--" value, so no
    value here is "--".  Anything else, help, abbreviations, "-p7", a
    repeated option and every usage error among it, gets None, so argparse
    alone prints help and usage messages and picks their exit codes.
    """
    common, commands = _commands()
    entry = commands.get(argv[0]) if argv else None
    if entry is None:
        return None
    func, _, own = entry
    values: dict[str, str] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, joined, value = token.partition("=")
        if not (joined and name[:2] == "--"):
            name, value = token, next(tokens, None)
            if value is None or value[:1] == "-":
                return None
        if name in values:
            return None
        values[name] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, kind, default, _ in (*common, *own):
        value = values.pop(flag, default)
        if value is None:  # a required option is missing
            return None
        if kind is int:
            try:
                value = _int(value)
            except ValueError:  # argparse words the error
                return None
        elif kind is not str and value not in kind:
            return None
        setattr(args, flag.lstrip("-"), value)
    return None if values else args  # what is left names no option of the command


_Result = tuple[bool, dict, "Iterable[str]"]


def _coords_text(c: "tuple[int, int, int]") -> str:
    return f"({'+' if c[0] > 0 else '-'}1, a={c[1]}, u={c[2]})"


def _coords_json(c: "tuple[int, int, int]") -> dict:
    return {"eps": c[0], "a": c[1], "u": c[2]}


def cmd_chartab(args: "Args") -> _Result:
    # entry (a, b) is zeta^(a*b), so each row is made of the p texts of the
    # powers zeta^k, each counted as a coefficient tuple and rendered once
    from .cyclotomic import _render, _zeta_sums

    p = require_prime(args.p)
    powers = [_render(next(_zeta_sums(p, (1,), (k,), (0,)))) for k in range(p)]
    grid = [[powers[a * b % p] for b in range(p)] for a in range(p)]
    return True, {"entries": grid}, map(" ".join, grid)


def cmd_mu(args: "Args") -> _Result:
    from .cyclotomic import _render
    from .isometry import SignedIsometry, _kernel_rows

    iso = SignedIsometry.from_literal(args.p, args.map)
    p = iso.p
    # a row holds only its nonzero entries, each rendered as the row arrives
    # and freed with it; every other column shows "0", _render's zero text
    grid = [["0"] * p for _ in range(p)]
    for texts, row in zip(grid, _kernel_rows(iso)):
        for n, entry in row:
            texts[n] = _render(entry)
    return True, {"map": iso.as_literal(), "entries": grid}, map(" ".join, grid)


def cmd_check(args: "Args") -> _Result:
    from .isometry import SignedIsometry, is_perfect, is_perfect_via_spaces

    iso = SignedIsometry.from_literal(args.p, args.map)
    direct = is_perfect(iso)
    cross = is_perfect_via_spaces(iso)
    if direct.status != cross.status:
        raise InternalError(f"checkers disagree ({direct.status} vs {cross.status})")
    payload = {
        "map": iso.as_literal(),
        "verdict": {"status": direct.status, "witness": direct.witness},
        "cross_check": {"status": cross.status, "witness": cross.witness},
        "agree": True,
    }
    lines = [f"verdict: {direct.status}"]
    if direct.witness:
        lines.append(f"witness: {direct.witness}")
    lines.append(f"cross_check: {cross.status}")
    if cross.witness:
        lines.append(f"cross_check_witness: {cross.witness}")
    return direct.ok, payload, lines


def cmd_decompose(args: "Args") -> _Result:
    from .isometry import SignedIsometry
    from .pigroup import decompose

    iso = SignedIsometry.from_literal(args.p, args.map)
    c = decompose(iso)
    payload = {"map": iso.as_literal(), **_coords_json(c)}
    return True, payload, [_coords_text(c)]


def cmd_enumerate(args: "Args") -> _Result:
    from .pigroup import enumerate_perfect

    return _report(enumerate_perfect(args.p), args.format)


def cmd_verify(args: "Args") -> _Result:
    from .pigroup import verify_structure

    return _report(verify_structure(args.p), args.format)


def _report(report: "PIGroupReport", fmt: str) -> _Result:
    """The result of enumerate and verify, with only the half that main
    writes for ``--format fmt``: the payload for JSON, the lines for text."""
    if fmt == "json":
        payload = {
            "order": report.order,
            "elements": [_coords_json(c) for c in report.elements()],
            "checks": report.checks,
        }
        if report.failures:
            payload["failures"] = report.failures
        return report.all_pass(), payload, ()
    shown = {None: "not_checked", True: "pass", False: "FAIL"}
    lines = [
        f"p: {report.p}",
        f"order: {report.order}",
        "elements:",
        *(f"  {_coords_text(c)}" for c in report.elements()),
        "checks:",
        *(f"  {key}: {shown[value]}" for key, value in report.checks.items()),
        *(f"  ! {line}" for line in report.failures),
    ]
    return report.all_pass(), {}, lines


def _join_map_literals(argv: "Sequence[str]") -> list[str]:
    """Join "--map" with a following token that starts with a single "-",
    and split a joined "--" value off its option.

    argparse reads a separate "-0,-1,-2" as an unknown option, so it is
    passed on as the single token "--map=-0,-1,-2", and the literal parser
    judges it, malformed or not.  The parser's own short options, "-p..."
    and "-h", are left alone, as is every "--" token.

    "--opt=--", "-p=--" and "-p--" become the option and a "--" token of
    their own.  argparse before 3.13 reads such a joined value as an empty
    list, which no command takes (main would compare it with MAX_P), and
    3.13 as the value "--"; given "--" apart, every version refuses it with
    "argument <flag>: expected one argument", a usage error.
    """
    joined: list[str] = []
    for token in argv:
        flag, _, value = ("-p=--" if token == "-p--" else token).partition("=")
        literal = token[:1] == "-" and token[:2] not in ("--", "-p") and token != "-h"
        if value == "--" and (flag == "-p" or flag[:2] == "--" and flag != "--"):
            joined += [flag, "--"]
        elif joined and joined[-1] == "--map" and literal:
            joined[-1] = f"--map={token}"
        else:
            joined.append(token)
    return joined


def _dumps(value: object) -> str:
    """What json.dumps(value, indent=2) writes, for the values a payload holds.

    Those are dicts with str keys, lists, tuples, str, int, bool and None;
    anything else, a float or a non-str key included, raises TypeError.
    Strings go through _json.encode_basestring_ascii, the C escaper that
    json.dumps itself calls, so the output is the same byte for byte without
    importing json, whose modules compile regexes at import.  Each container
    is one join of its items.  A list of strings, such as a row of entry
    texts, is quoted in one map pass; the escaper raises TypeError at the
    first item that is not a str, and the list is then written item by item.
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
        if isinstance(value, (list, tuple)):
            try:
                items = list(map(quote, value))
            except TypeError:
                items = [write(item, inner) for item in value]
            brackets = "[]"
        elif isinstance(value, dict):  # quote raises TypeError on a non-str key
            items = [f"{quote(key)}: {write(item, inner)}" for key, item in value.items()]
            brackets = "{}"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not items:
            return brackets
        # the brackets go on the end items, so the join is the one copy of the whole
        items[0] = brackets[0] + inner + items[0]
        items[-1] += pad + brackets[1]
        return ("," + inner).join(items)

    return write(value, "\n")


def _end(code: int, out: str = "", err: str = "") -> int:
    """Write out to stdout and err to stderr, each as a line when not empty,
    flush both and return the exit code, under the module docstring's rule.

    A stream whose write or flush raises OSError becomes None, so nothing
    writes or flushes it again, what it still buffers included; one that is
    None already is skipped.  When stdout raises anything but
    BrokenPipeError, the code becomes 3 and err the line "error: cannot
    write output: <the OSError>".
    """
    for name in ("stdout", "stderr"):
        stream, text = getattr(sys, name), out if name == "stdout" else err
        if stream is None:
            continue
        try:
            if text:
                print(text, file=stream)
            stream.flush()
        except OSError as exc:
            setattr(sys, name, None)
            if name == "stdout" and not isinstance(exc, BrokenPipeError):
                code, err = EXIT_INTERNAL, f"error: cannot write output: {exc}"
    return code


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
        return _end(EXIT_USAGE, err=f"error: {exc}")
    except NotPerfect as exc:
        return _end(EXIT_NEGATIVE, err=f"error: {exc}")
    except InternalError as exc:
        return _end(EXIT_INTERNAL, err=f"error: internal error: {exc}")
    if args.format == "json":
        lines = [_dumps({"schema": SCHEMA_VERSION, "p": args.p, **payload})]
    return _end(EXIT_OK if ok else EXIT_NEGATIVE, out="\n".join(lines))


def run() -> None:
    """The command-line entry (python -m perfiso, the perfiso script): main,
    then an exit without interpreter teardown.

    First a stream closed at start-up becomes os.devnull: argparse writes
    usage meant for a closed stderr to stdout, and help meant for a closed
    stdout to stderr.  Then neither stream buffers by line or writes
    through, so a byte reaches its descriptor only when _end flushes it:
    argparse's help and usage text too, which argparse writes itself and,
    when the stream refuses it, drops (3.11 and later) or raises from
    parse_args (3.10).  So _end sees every refusal.  main's returns end
    through _end, and so does argparse's exit (SystemExit, after help or a
    usage error), with argparse's code.  The process then ends with
    os._exit, so it skips what the interpreter would do next: clear every
    module, collect garbage and free memory, which takes longer than a
    small command itself.  No check of perfiso runs then, but atexit
    handlers that other tools register do not run either.  Under python -i
    (or PYTHONINSPECT) run ends with SystemExit instead, and the
    interpreter finishes as usual.  Any other exception from main passes
    through untouched.
    """
    for name in ("stdout", "stderr"):
        setattr(sys, name, getattr(sys, name) or open(os.devnull, "w"))
        getattr(sys, name).reconfigure(line_buffering=False, write_through=False)
    try:
        code = main()
    except SystemExit as exc:
        code = _end(exc.code)
    if sys.flags.inspect:
        raise SystemExit(code)
    os._exit(code)
