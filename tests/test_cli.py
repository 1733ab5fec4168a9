"""CLI behaviour: exit codes, JSON schema, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perfiso
from perfiso import FAILS_SEPARATION, MODES, Verdict, characters, cli, cyclotomic, isometry, pigroup
from perfiso.cli import build_parser, main
from oracles import RANDOM_SIGNED

SRC = str(Path(perfiso.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = ("chartab", "mu", "check", "enumerate", "decompose", "verify")
MAP_COMMANDS = ("mu", "check", "decompose")
REPORT_COMMANDS = ("enumerate", "verify")


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv), argparse's own exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


# ---------------------------------------------------------------------------
# chartab at p = 2, where the oracle sweep's chartab cases are strict xfails


def test_chartab_p2_text(capsys):
    code, out, err = run_cli(capsys, "chartab", "-p", "2")
    assert code == 0
    assert out == "1 1\n1 -1\n"
    assert err == ""


def test_chartab_p2_json_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, "chartab", "-p", "2", "--format", "json")
    assert code == 0
    expected = (
        "{\n"
        '  "schema": 1,\n'
        '  "p": 2,\n'
        '  "entries": [\n'
        "    [\n"
        '      "1",\n'
        '      "1"\n'
        "    ],\n"
        "    [\n"
        '      "1",\n'
        '      "-1"\n'
        "    ]\n"
        "  ]\n"
        "}\n"
    )
    assert out == expected


# ---------------------------------------------------------------------------
# mu


def _triple(x):
    return tuple(3 * c for c in x)


@pytest.mark.parametrize(
    "literal, inject, entry",
    (
        # k -> 1 + 2k: row 1 is nonzero only at n = 3, so row 2 derives one
        # entry, at (2, 3 * 2 mod 5) = (2, 1)
        ("+1,+3,+0,+2,+4", {2: _triple, 3: _triple, 4: _triple}, "(2, 1)"),
        # the same entry, 5*z^2, plus 6: its coefficient 0 is p + 1, the
        # least value out of bound, and every other coefficient is within it
        ("+1,+3,+0,+2,+4", {2: lambda x: (x[0] + 6, *x[1:])}, "(2, 1)"),
        # a random signed map, whose row 1 has no zero entry: only the images
        # for m = 3 are tripled, so the first entry out of bound comes after
        # the whole of row 2, at n = 5, (3, 5 * 3 mod 7) = (3, 1), the first
        # image of row 3 with a coefficient of magnitude 3
        ("-5,+6,+4,+0,+3,-1,-2", {3: _triple}, "(3, 1)"),
    ),
    ids=("affine", "affine_p_plus_1", "dense"),
)
def test_mu_derived_entry_out_of_bound_exits_3(capsys, monkeypatch, literal, inject, entry):
    # the injection replaces the derived images of the rows in inject, each a
    # normalized coefficient tuple, coefficient by coefficient
    real = isometry._galois_images

    def injected(p, m, entries):
        images = real(p, m, entries)
        return [inject[m](x) for x in images] if m in inject else images

    monkeypatch.setattr(isometry, "_galois_images", injected)
    p = str(literal.count(",") + 1)
    code, out, err = run_cli(capsys, "mu", "-p", p, f"--map={literal}")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == f"error: internal error: kernel entry {entry} exceeds the coefficient bound p\n"


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_mu_renders_each_nonzero_entry_once(capsys, spy, fmt):
    # an affine map's kernel has one nonzero entry per row: mu renders those
    # p entries, and fills every other column with "0", rendering no zero
    p = 23
    calls = spy(cyclotomic, "_render")
    literal = ",".join(f"+{(1 + 2 * k) % p}" for k in range(p))
    code, out, _ = run_cli(capsys, "mu", "-p", str(p), f"--map={literal}", "--format", fmt)
    assert code == 0 and out
    assert len(calls) == p
    assert sum(1 for (x,) in calls if not any(x)) == 0


_AFFINE_23 = "--map=" + ",".join(f"+{(1 + 2 * k) % 23}" for k in range(23))


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize(
    "argv, expected",
    (
        (("chartab",), 0),
        (("mu", _AFFINE_23), 0),
        (("check", _AFFINE_23), 0),
        (("mu", f"--map={RANDOM_SIGNED[23]}"), 0),
        (("check", f"--map={RANDOM_SIGNED[23]}"), 1),
    ),
    ids=("chartab", "affine-mu", "affine-check", "random_signed-mu", "random_signed-check"),
)
def test_mu_and_check_build_no_ring_value(capsys, spy, argv, expected, fmt):
    # kernel entries and chartab's powers of zeta travel as normalized
    # coefficient tuples, from the count or the Galois action to the renderer
    # or the divisibility test, and mu's zero columns show the renderer's
    # zero text, written as "0": CycInt's one constructor never runs
    assert cyclotomic._render((0,) * 23) == "0"
    calls = spy(cyclotomic.CycInt, "__init__")
    code, out, _ = run_cli(capsys, *argv, "-p", "23", "--format", fmt)
    assert code == expected and out
    assert calls == []


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize(
    "literal", ("+1,+3,+5,+7,+9,+0,+2,+4,+6,+8,+10", "+1,+5,+3,+7,+9,+0,+2,+4,+6,+8,+10")
)
def test_mu_and_chartab_build_no_table(capsys, spy, literal, fmt):
    # mu renders the kernel row by row, counting rows 0 and 1 once each, and
    # chartab renders the p powers of zeta: neither builds a p x p table
    kernels, tables = spy(isometry, "kernel_table"), spy(characters, "char_table")
    rows = spy(isometry, "_counted_row")
    for argv in (("mu", f"--map={literal}"), ("chartab",)):
        code, out, _ = run_cli(capsys, *argv, "-p", "11", "--format", fmt)
        assert code == 0 and out
    assert kernels == tables == []
    assert [m for _, m in rows] == [0, 1]


# ---------------------------------------------------------------------------
# check


def test_check_wrong_arity_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", "-p", "5", "--map", "+0,+1")
    assert code == 2
    assert "expected 5" in err


def test_check_checker_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(isometry, "is_perfect_via_spaces", lambda iso: Verdict(FAILS_SEPARATION, (1, 0)))
    code, out, err = run_cli(capsys, "check", "-p", "3", "--map", "+0,+1,+2")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == "error: internal error: checkers disagree (perfect vs fails_separation)\n"


@pytest.mark.parametrize(
    "literal, expected",
    (("+1,+3,+5,+7,+9,+0,+2,+4,+6,+8,+10", 0), ("+1,+5,+3,+7,+9,+0,+2,+4,+6,+8,+10", 1)),
)
def test_check_builds_no_kernel_and_counts_two_rows(capsys, spy, literal, expected):
    # is_perfect counts rows 0 and 1, and the cross-check reads the rule off
    # the map, counting no row; only mu builds the whole kernel
    kernels, transforms = spy(isometry, "kernel_table"), spy(isometry, "forward_transform")
    rows = spy(isometry, "_counted_row")
    code, out, _ = run_cli(capsys, "check", "-p", "11", f"--map={literal}")
    assert code == expected and out.startswith("verdict: ")
    assert kernels == transforms == []
    assert [m for _, m in rows] == [0, 1]


def test_check_of_mixed_signs_counts_row_0_only(capsys, spy):
    # a mixed-sign map fails integrality at (0, 0), which the row-major scan
    # reaches before any entry of row 1, so row 1 is never counted
    rows = spy(isometry, "_counted_row")
    code, out, _ = run_cli(capsys, "check", "-p", "11", "--map=-1,+3,+5,+7,+9,+0,+2,+4,+6,+8,+10")
    assert code == 1 and out.startswith("verdict: fails_integrality\nwitness: (0, 0)\n")
    assert [m for _, m in rows] == [0]


def _signed_literal(image, signs):
    return ",".join(f"{'+' if s > 0 else '-'}{i}" for i, s in zip(image, signs))


AFFINE_53 = [(1 + 2 * k) % 53 for k in range(53)]


@pytest.mark.parametrize(
    "literal, witness, counted",
    (
        # the first sign flipped: entry (0, 0), the sum of the signs, is 51,
        # and it fails integrality before any other entry is counted
        (_signed_literal(AFFINE_53, [-1] + [1] * 52), "(0, 0)", 1),
        # the images of 0 and 1 swapped: row 0 passes, all 53 entries of it
        # counted, and row 1 fails at its second entry
        (_signed_literal([AFFINE_53[1], AFFINE_53[0], *AFFINE_53[2:]], [1] * 53), "(1, 1)", 55),
        # the affine map k -> 1 + 2k itself: both rows, whole
        (_signed_literal(AFFINE_53, [1] * 53), None, 106),
    ),
    ids=("sign_flipped", "swapped", "affine"),
)
def test_check_counts_no_entry_after_its_witness(capsys, monkeypatch, literal, witness, counted):
    # each kernel entry is counted only when is_perfect asks for it, and the
    # scan stops at its witness; the cross-check counts none
    sums = []
    real = isometry._zeta_sums

    def counting_sums(*args):
        for total in real(*args):
            sums.append(total)
            yield total

    monkeypatch.setattr(isometry, "_zeta_sums", counting_sums)
    code, out, _ = run_cli(capsys, "check", "-p", "53", f"--map={literal}")
    assert code == (1 if witness else 0)
    assert (f"witness: {witness}\n" in out) == bool(witness)
    assert len(sums) == counted


def test_check_row_count_defect_exits_3(capsys, monkeypatch):
    # k -> 1 + 2k: row 1 is nonzero only at n = 3, where it is 5*zeta; a count
    # that adds 1 to it breaks is_perfect, and the cross-check counts no row
    real_row = isometry._counted_row

    def corrupted_row(iso, m):
        row = real_row(iso, m)
        if m != 1:
            return row
        ((n, entry),) = row
        coeffs = list(entry)
        coeffs[0] += 1
        return [(n, tuple(coeffs))]

    monkeypatch.setattr(isometry, "_counted_row", corrupted_row)
    code, out, err = run_cli(capsys, "check", "-p", "5", "--map=+1,+3,+0,+2,+4")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == "error: internal error: checkers disagree (fails_integrality vs perfect)\n"


@pytest.mark.parametrize("command", MAP_COMMANDS)
@pytest.mark.parametrize("fmt", ("text", "json"))
def test_negative_map_literal_as_separate_argument(capsys, command, fmt):
    joined = run_cli(capsys, command, "-p", "3", "--map=-0,-1,-2", "--format", fmt)
    separate = run_cli(capsys, command, "-p", "3", "--map", "-0,-1,-2", "--format", fmt)
    assert joined == separate
    assert joined[0] == 0 and joined[1] and joined[2] == ""


@pytest.mark.parametrize("command", MAP_COMMANDS)
@pytest.mark.parametrize("literal", ("-x,-1,-2", "-0,-1"))
def test_malformed_negative_literal_as_separate_argument(capsys, command, literal):
    # the literal parser, not argparse, judges a separate literal
    joined = run_cli(capsys, command, "-p", "3", f"--map={literal}")
    separate = run_cli(capsys, command, "-p", "3", "--map", literal)
    assert joined == separate
    code, out, err = joined
    assert code == 2 and out == ""
    assert err.startswith("error: literal has") or err.startswith("error: bad literal entry")


@pytest.mark.parametrize("argv", (("--map", "-p", "3"), ("-p", "3", "--map", "--format", "json")))
def test_map_before_an_option_still_lacks_its_argument(capsys, argv):
    code, out, err = run_cli(capsys, "check", *argv)
    assert (code, out) == (2, "")
    assert "argument --map: expected one argument" in err


def test_check_accepts_leading_zero_indices(capsys):
    code, out, _ = run_cli(capsys, "check", "-p", "3", "--map=+0,+01,+2", "--format", "json")
    assert code == 0
    assert '"map": "+0,+1,+2"' in out


@pytest.mark.parametrize("digits", ("0" * 5000 + "2", "9" * 5000), ids=("zeros", "nines"))
def test_check_long_literal_indices(capsys, digits):
    # more digits than int() reads by default (4300): leading zeros are
    # stripped, and an index longer than p - 1 is out of range unread
    code, out, err = run_cli(capsys, "check", "-p", "3", f"--map=+0,+1,+{digits}", "--format", "json")
    if digits.startswith("0"):
        assert (code, err) == (0, "")
        assert '"map": "+0,+1,+2"' in out
    else:
        assert (code, out) == (2, "")
        assert err == f"error: index {digits} out of range for p=3\n"


# ---------------------------------------------------------------------------
# enumerate / verify


def test_enumerate_modes_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "enumerate", "-p", "5", "--format", "json")
    code2, out2, _ = run_cli(
        capsys, "enumerate", "-p", "5", "--mode", "exhaustive", "--format", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("p", ("103", "100000000000000000039"))
def test_p_above_cli_bound_exits_2_before_any_work(capsys, monkeypatch, p):
    # both are prime; the bound must reject them before the primality test,
    # whose trial division grows with sqrt(p) and takes minutes at 10^20
    def no_work(n):
        raise AssertionError(f"primality of {n} tested")

    # the name require_prime reads, in the package root, where both are defined
    monkeypatch.setattr(perfiso, "is_prime", no_work)
    for command in COMMANDS:
        extra = ("--map=+0",) if command in MAP_COMMANDS else ()
        code, out, err = run_cli(capsys, command, "-p", p, *extra)
        assert code == 2
        assert out == ""
        assert "p <= 101" in err
    # the check is live: an in-bound call does test primality
    with pytest.raises(AssertionError, match="primality of 5 tested"):
        main(["chartab", "-p", "5"])


@pytest.mark.parametrize("p", ("4", "9"))
@pytest.mark.parametrize("command", COMMANDS)
def test_non_prime_p_exits_2(capsys, command, p):
    # mu, check and decompose test p before the literal, whose two entries fit neither p
    extra = ("--map=+0,+1",) if command in MAP_COMMANDS else ()
    assert run_cli(capsys, command, "-p", p, *extra) == (2, "", f"error: p must be prime, got {p}\n")


def test_report_lines_are_made_only_for_text(capsys, spy):
    # the element lines are formatted only when main writes them, so a JSON
    # call formats none of the 2p(p-1) = 84 at p = 7
    calls = spy(cli, "_coords_text")
    for fmt, expected in (("json", 0), ("text", 84)):
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", "-p", "7", "--format", fmt)
        assert code == 0 and out
        assert len(calls) == expected


def test_report_elements_are_made_only_for_json(capsys, spy):
    # the JSON element dicts are built only for --format json, so a text
    # call builds none of the 2p(p-1) = 84 at p = 7
    calls = spy(cli, "_coords_json")
    for fmt, expected in (("json", 84), ("text", 0)):
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", "-p", "7", "--format", fmt)
        assert code == 0 and out
        assert len(calls) == expected


def test_report_commands_build_no_affine_coords(capsys, spy):
    # a report holds its count of identity forms, not its elements, so a
    # passing enumerate or verify builds none of the 2p(p-1) = 20,200
    # coordinate records at p = 101, in either format
    calls = spy(pigroup.AffineCoords, "__new__")
    # the count is live: decompose builds the one record it prints
    code, out, _ = run_cli(capsys, "decompose", "-p", "5", "--map", "+1,+3,+0,+2,+4")
    assert code == 0 and out == "(+1, a=1, u=2)\n"
    assert calls == [(1, 1, 2)]
    calls.clear()
    for command in ("enumerate", "verify"):
        for fmt in ("text", "json"):
            code, out, _ = run_cli(capsys, command, "-p", "101", "--format", fmt)
            assert code == 0 and out
            assert calls == [], (command, fmt, len(calls))


def test_seed_flag_accepted_everywhere(capsys):
    code, out, _ = run_cli(capsys, "chartab", "-p", "2", "--seed", "7")
    assert code == 0
    assert out == "1 1\n1 -1\n"


# ---------------------------------------------------------------------------
# decompose


def test_decompose_non_perfect_exits_1(capsys):
    code, out, err = run_cli(capsys, "decompose", "-p", "5", "--map", "+0,+2,+1,+3,+4")
    assert code == 1
    assert out == ""
    assert "not an affine map" in err


@pytest.mark.parametrize("command", MAP_COMMANDS)
def test_map_parse_error_exits_2(capsys, command):
    code, out, err = run_cli(capsys, command, "-p", "5", "--map", "0,1,2,3,4")
    assert code == 2
    assert out == ""
    assert "signed index" in err


@pytest.mark.parametrize("command", MAP_COMMANDS)
@pytest.mark.parametrize("digit", ("\u0662", "\uff12"))  # two: Arabic-Indic, fullwidth
@pytest.mark.parametrize("sign", ("+", "-"))
@pytest.mark.parametrize("joined", (True, False), ids=("joined", "separate"))
def test_non_ascii_digits_exit_2(capsys, command, digit, sign, joined):
    literal = f"{sign}{digit},{sign}0,{sign}1"
    argv = [command, "-p", "3", *([f"--map={literal}"] if joined else ["--map", literal])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad literal entry {sign + digit!r}; expected a signed index like +2\n"


@pytest.mark.parametrize("command", MAP_COMMANDS)
@pytest.mark.parametrize("entry", ("+", "-", "++1", "+\uff11", "+\u00b2", "+\u0663", "+1a", ""))
def test_malformed_literal_entries_exit_2(capsys, command, entry):
    # a sign, then ASCII digits only: fullwidth one, superscript two and
    # Arabic-Indic three are digits to str.isdigit, not to the parser
    code, out, err = run_cli(capsys, command, "-p", "3", f"--map={entry},+0,+1")
    assert (code, out) == (2, "")
    assert err == f"error: bad literal entry {entry!r}; expected a signed index like +2\n"


# ---------------------------------------------------------------------------
# argparse-level behaviour


def test_unknown_command_exits_2(capsys):
    assert run_cli(capsys, "frobnicate", "-p", "3")[0] == 2


def _child_env() -> dict:
    # a child imports the same perfiso as this test, also when only
    # pytest's own pythonpath setting put it on sys.path.  It inherits no
    # other PYTHON* variable, so it runs with the interpreter's default
    # buffering whatever the runner exports (PYTHONUNBUFFERED among them)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return env


def _as_child(argv, *options, env=(), preexec=None):
    """(exit code, stdout, stderr) of python [options] -m perfiso argv in a
    fresh process, with env added to _child_env() and preexec run in the
    child just before perfiso starts."""
    proc = subprocess.run(
        [sys.executable, *options, "-m", "perfiso", *argv],
        capture_output=True,
        text=True,
        env={**_child_env(), "COLUMNS": "80", **dict(env)},
        preexec_fn=preexec,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


# the stream tests run each child as the interpreter buffers by default,
# and again with every stream unbuffered
BUFFERING = pytest.mark.parametrize(
    "buffering", ({}, {"PYTHONUNBUFFERED": "1"}), ids=("buffered", "unbuffered")
)


def test_module_entry_point_runs():
    assert _as_child(["chartab", "-p", "2"]) == (0, "1 1\n1 -1\n", "")


IDENTITY_101 = ",".join(f"+{k}" for k in range(101))


@BUFFERING
@pytest.mark.parametrize(
    "argv, code",
    (
        (["chartab", "-p", "101"], 0),
        (["mu", "-p", "101", f"--map={IDENTITY_101}", "--format", "json"], 0),
        (["check", "-p", "5", "--map", "+0,+2,+1,+3,+4"], 1),
    ),
    ids=("chartab", "mu-json", "check-negative"),
)
def test_closed_stdout_keeps_the_exit_code_and_stderr_empty(argv, code, buffering):
    # the reader is gone before the child writes: the verdict still sets the
    # exit code, and no traceback or "Exception ignored" line is printed
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfiso", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**_child_env(), **buffering},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (code, b"")


# ---------------------------------------------------------------------------
# the process exit: every call ends through _end, then without interpreter teardown


@pytest.mark.parametrize(
    "argv, code",
    (
        (["chartab", "-p", "5"], 0),
        (["check", "-p", "5", "--map", "+1,+0,+3,+2,+4"], 1),
        (["check", "-p", "5", "--map", "-1,+3,+0,+2,+4"], 1),
        (["chartab", "-p", "103"], 2),
        (["check", "-p", "3"], 2),
        (["--help"], 0),
        (["mu", "-p", "101", "--format", "json", f"--map={RANDOM_SIGNED[101]}"], 0),
    ),
    ids=(
        "chartab", "check-negative", "check-separate-map", "bound", "usage", "help", "mu-json-p101",
    ),
)
def test_child_exit_matches_main(capsys, monkeypatch, argv, code):
    # run() ends the child with os._exit after flushing: the output, all of
    # it through a pipe (megabytes for mu), and the exit code are main's own
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the same width
    expected = run_cli(capsys, *argv)
    assert expected[0] == code
    assert _as_child(argv) == expected


def test_child_with_stdout_closed_at_start_up(capsys, monkeypatch):
    # >&-: sys.stdout is None, and run() skips it rather than fail on it
    monkeypatch.setattr(sys, "stdout", None)
    expected = main(["chartab", "-p", "3"]), capsys.readouterr().err
    assert expected == (0, "")
    assert _as_child(["chartab", "-p", "3"], preexec=lambda: os.close(1)) == (0, "", "")


class _Stream:
    """A stand-in for sys.stdout or sys.stderr that logs its reconfigures and flushes."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def reconfigure(self, **settings):
        self.log.append((f"reconfigure {self.name}", settings))

    def write(self, text):
        return len(text)

    def flush(self):
        self.log.append(f"flush {self.name}")


class _Exited(Exception):
    pass


def _patch_exit(monkeypatch, log, ends):
    """main returns ends, or raises it when it is an exception; os._exit logs
    its argument and raises _Exited."""

    def fake_main():
        log.append("main")
        if isinstance(ends, BaseException):
            raise ends
        return ends

    def fake_exit(status):
        log.append(("os._exit", status))
        raise _Exited

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(os, "_exit", fake_exit)


RECONFIGURED = {"line_buffering": False, "write_through": False}


def _patch_streams(monkeypatch, log):
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", log))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", log))


def test_run_ends_with_os_exit_and_mains_code(monkeypatch):
    # main's returns have flushed through _end already: run flushes nothing
    log = []
    _patch_exit(monkeypatch, log, 3)
    _patch_streams(monkeypatch, log)
    with pytest.raises(_Exited):
        cli.run()
    assert log == [
        ("reconfigure stdout", RECONFIGURED),
        ("reconfigure stderr", RECONFIGURED),
        "main",
        ("os._exit", 3),
    ]


@pytest.mark.parametrize("code", (0, 2), ids=("help", "usage"))
def test_run_ends_argparses_exit_through_the_flush_step(monkeypatch, code):
    # argparse has written its help or usage text itself; _end flushes it,
    # and argparse's code is the exit code
    log = []
    _patch_exit(monkeypatch, log, SystemExit(code))
    _patch_streams(monkeypatch, log)
    with pytest.raises(_Exited):
        cli.run()
    assert log[2:] == ["main", "flush stdout", "flush stderr", ("os._exit", code)]


@pytest.mark.parametrize("closed", ("stdout", "stderr"))
def test_run_gives_a_stream_closed_at_start_up_a_sink(monkeypatch, closed):
    # argparse writes usage meant for a closed stderr to stdout, and help
    # meant for a closed stdout to stderr; os.devnull takes it instead
    log = []
    _patch_exit(monkeypatch, log, 0)
    _patch_streams(monkeypatch, log)
    monkeypatch.setattr(sys, closed, None)
    with pytest.raises(_Exited):
        cli.run()
    sink = getattr(sys, closed)
    sink.close()
    assert (sink.name, sink.line_buffering, sink.write_through) == (os.devnull, False, False)
    other = "stderr" if closed == "stdout" else "stdout"
    assert log == [(f"reconfigure {other}", RECONFIGURED), "main", ("os._exit", 0)]


def test_run_falls_back_to_system_exit_under_inspect(monkeypatch):
    # python -i and PYTHONINSPECT open a prompt once the module is done
    log = []
    _patch_exit(monkeypatch, log, 2)
    _patch_streams(monkeypatch, log)
    monkeypatch.setattr(sys, "flags", SimpleNamespace(inspect=1))
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == 2
    assert log[2:] == ["main"]


def test_run_lets_mains_exceptions_through(monkeypatch):
    raised, log = KeyboardInterrupt(), []
    _patch_exit(monkeypatch, log, raised)
    _patch_streams(monkeypatch, log)
    with pytest.raises(KeyboardInterrupt) as info:
        cli.run()
    assert info.value is raised
    assert log[2:] == ["main"]


class _RefusingStream:
    """A stream whose every write raises error, like a descriptor opened read-only."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


@pytest.mark.parametrize(
    "stderr", (None, _RefusingStream(OSError(9, "Bad file descriptor"))), ids=("none", "refusing")
)
def test_error_line_never_reaches_stdout(capsys, monkeypatch, stderr):
    # with stderr closed, print(file=None) would write the line to stdout
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["chartab", "-p", "4"]) == 2
    assert capsys.readouterr().out == ""


def test_refused_stdout_exits_3_and_closes_it(capsys, monkeypatch):
    # the output is lost, so the verdict cannot stand; stdout is closed from then on
    monkeypatch.setattr(sys, "stdout", _RefusingStream(OSError(28, "No space left on device")))
    assert main(["chartab", "-p", "3"]) == 3
    assert sys.stdout is None
    assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "argv, code",
    ((["chartab", "-p", "3"], 0), (["check", "-p", "5", "--map", "+0,+2,+1,+3,+4"], 1)),
    ids=("chartab", "check-negative"),
)
def test_closed_pipe_keeps_the_commands_code(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "stdout", _RefusingStream(BrokenPipeError(32, "Broken pipe")))
    assert main(argv) == code
    assert sys.stdout is None
    assert capsys.readouterr().err == ""


def _fd_on(fd, path, flags):
    """A child's preexec_fn that reopens its fd on path."""

    def reopen():
        new = os.open(path, flags)
        os.dup2(new, fd)
        os.close(new)

    return reopen


FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@BUFFERING
@pytest.mark.parametrize(
    "preexec",
    (
        lambda: os.close(2),
        _fd_on(2, os.devnull, os.O_RDONLY),  # a write fails with EBADF
        pytest.param(_fd_on(2, "/dev/full", os.O_WRONLY), marks=FULL),  # with ENOSPC
    ),
    ids=("closed", "read-only", "full"),
)
@pytest.mark.parametrize(
    "argv, code",
    (
        (["chartab", "-p", "4"], 2),
        (["decompose", "-p", "5", "--map=+1,+0,+3,+2,+4"], 1),
        (["chartab", "-p", "x"], 2),
        (["chartab"], 2),
    ),
    ids=("bad-p", "not-affine", "usage-bad-int", "usage-missing-p"),
)
def test_child_error_with_stderr_unusable(preexec, argv, code, buffering):
    # the error line is dropped: stdout stays empty and the exit code is the
    # command's, also when the refused line is still in stderr's buffer; a
    # usage error keeps argparse's 2 also where argparse raises the refusal
    assert _as_child(argv, env=buffering, preexec=preexec)[:2] == (code, "")


REFUSED_OUTPUT = pytest.mark.parametrize(
    "argv",
    (["chartab", "-p", "3"], ["verify", "-p", "7", "--format", "json"], ["-h"]),
    ids=("chartab", "verify-json", "help"),
)


@BUFFERING
@pytest.mark.parametrize(
    "preexec",
    (
        _fd_on(1, os.devnull, os.O_RDONLY),  # a write fails with EBADF
        pytest.param(_fd_on(1, "/dev/full", os.O_WRONLY), marks=FULL),  # with ENOSPC
    ),
    ids=("read-only", "full"),
)
@REFUSED_OUTPUT
def test_child_with_stdout_refused_exits_3(preexec, argv, buffering):
    # the output, argparse's help included, is lost: one error line, no
    # traceback, no "Exception ignored" line, under either buffering
    code, _, err = _as_child(argv, env=buffering, preexec=preexec)
    assert code == 3
    assert re.fullmatch(r"error: cannot write output: \[Errno \d+\] [^\n]+\n", err)


@FULL
@BUFFERING
@REFUSED_OUTPUT
def test_child_with_both_streams_full_exits_3(argv, buffering):
    def both_full():
        _fd_on(1, "/dev/full", os.O_WRONLY)()
        _fd_on(2, "/dev/full", os.O_WRONLY)()

    assert _as_child(argv, env=buffering, preexec=both_full)[0] == 3


# ---------------------------------------------------------------------------
# plain calls, parsed without argparse


def _reference(argv):
    """The namespace of build_parser(), or the exit code of its usage error."""
    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def _benchmark_shapes():
    # every shape perfbench's Op.argv() makes: <cmd> -p N [--format json] [--mode M] [--map=LIT]
    for command in COMMANDS:
        modes = [[]] + [["--mode", m] for m in MODES] if command in REPORT_COMMANDS else [[]]
        maps = [["--map=+0,+1,+2"], ["--map=-0,-1,-2"]] if command in MAP_COMMANDS else [[]]
        for fmt in ([], ["--format", "json"]):
            for mode in modes:
                for literal in maps:
                    yield [command, "-p", "3", *fmt, *mode, *literal]


# with the benchmark's shapes, every option of the table and both value forms
OPTION_CALLS = [
    ["verify", "-p", "3", "--seed", "7"],
    ["chartab", "-p", "3", "--format=json"],
    ["enumerate", "-p", "3", "--mode=exhaustive"],
]


def _readme_calls():
    """Each "$ perfiso" example of README.md: its argv, its pipe ("head" or
    "tail" and a line count, or None) and the text it shows, every line up
    to the next blank line or the end of the block."""
    examples = re.findall(
        r"^\$ perfiso ([^|#\n]*)(?:\| (head|tail) -(\d+))?.*\n((?:(?!```).+\n)*)",
        README.read_text(),
        flags=re.M,
    )
    assert len(examples) == len(COMMANDS)
    return [
        (shlex.split(call), (tool, int(count)) if tool else None, shown)
        for call, tool, count, shown in examples
    ]


@pytest.mark.parametrize(
    "argv, pipe, shown",
    [pytest.param(*call, id=" ".join(call[0])) for call in _readme_calls()],
)
def test_readme_examples_print_what_they_show(capsys, argv, pipe, shown):
    _, out, _ = run_cli(capsys, *argv)
    lines = out.splitlines(keepends=True)
    if pipe:
        tool, count = pipe
        lines = lines[:count] if tool == "head" else lines[-count:]
    assert "".join(lines) == shown


@pytest.mark.parametrize(
    "argv",
    [*_benchmark_shapes(), *OPTION_CALLS, *(argv for argv, _, _ in _readme_calls())],
    ids=" ".join,
)
def test_plain_calls_take_the_table_parser(argv):
    # guards against the plain path silently never being taken
    joined = cli._join_map_literals(argv)
    plain = cli._parse_plain(joined)
    assert plain is not None
    assert vars(plain) == _reference(joined)


def test_readme_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    exec(compile(block, str(README), "exec"), {})


EDITS = ("--", "-h", "--form", "-p3", "-p=3", "+3", "07", " 3", "1_0", "\u0663", "-3")


@st.composite
def cli_argvs(draw):
    """Mostly well-formed calls, in any option order and either value form, some edited."""

    def pick(*choices):
        # about one value in eight is an edit token
        drawn = draw(st.sampled_from((*choices, None)))
        return draw(st.sampled_from(EDITS)) if drawn is None else drawn

    values = {
        "-p": ("2", "3", "5", "101", "103", "4", "0"),
        "--format": ("text", "json", "xml"),
        "--seed": ("0", "7", "12345678901234567890"),
        "--map": ("+0,+1,+2", "-0,-1,-2", "+1,+3,+0,+2,+4", "", "--"),
        "--mode": (*MODES, "positive"),
    }
    command = draw(st.sampled_from(COMMANDS))
    names = ["-p"]
    if draw(st.booleans()):
        names.append("--format")
    if draw(st.booleans()):
        names.append("--seed")
    if command in MAP_COMMANDS:
        names.append("--map")
    if command in REPORT_COMMANDS and draw(st.booleans()):
        names.append("--mode")
    pairs = [(name, pick(*values[name])) for name in names]
    argv = [command]
    for name, value in draw(st.permutations(pairs)):
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(("replace", "insert", "repeat", "extra", "drop")))
        at = draw(st.integers(0, len(argv)))
        if edit == "replace" and at < len(argv):
            argv[at] = draw(st.sampled_from(EDITS))
        elif edit == "insert":
            argv.insert(at, draw(st.sampled_from(EDITS)))
        elif edit == "repeat":  # an option again, its value drawn afresh
            name = draw(st.sampled_from(names))
            argv += [name, pick(*values[name])]
        elif edit == "extra":
            argv.insert(at, "extra")
        elif edit == "drop" and len(argv) > 1:
            del argv[max(at, 1) - 1]
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
@example(["chartab", "-p=--"])
@example(["chartab", "-p", "x", "-p", "3"])  # argparse refuses the first value
def test_table_parser_agrees_with_argparse(argv):
    # wherever the table parser answers, argparse accepts the same argv and
    # builds the same namespace; everywhere else argparse alone answers.
    # Wherever argparse accepts, each value has its option's kind
    joined = cli._join_map_literals(argv)
    reference = _reference(joined)
    if isinstance(reference, dict):
        assert type(reference["p"]) is int and type(reference["seed"]) is int
        assert reference["format"] in ("text", "json")
        assert reference.get("mode", MODES[0]) in MODES
    plain = cli._parse_plain(joined)
    if plain is not None:
        assert vars(plain) == reference


LONG_NUMBER = "9" * 5000


@pytest.mark.parametrize(
    "argv",
    (
        ["-h"],
        ["check", "-h"],
        ["frobnicate", "-p", "3"],
        ["check", "-p", "3"],
        ["check", "--map", "-p", "3"],
        ["check", "-p", "3", "--map", "--format"],
        # more digits than an int option takes (640)
        ["chartab", "-p", LONG_NUMBER],
        ["verify", "-p", "3", "--seed", LONG_NUMBER],
    ),
    ids=lambda argv: " ".join(argv).replace(LONG_NUMBER, "9*5000"),
)
def test_help_and_usage_errors_are_argparse_own(capsys, argv):
    assert cli._parse_plain(argv) is None
    with pytest.raises(SystemExit) as via_main:
        main(argv)
    from_main = via_main.value.code, *capsys.readouterr()
    with pytest.raises(SystemExit) as via_parser:
        build_parser().parse_args(argv)
    assert from_main == (via_parser.value.code, *capsys.readouterr())


# what argparse writes at COLUMNS=80, for every help and one usage error per
# option kind; its wording changes between Python minor versions
_HELP_OPTIONS = """
options:
  -h, --help            show this help message and exit
  -p P                  prime order of the group
  --format {text,json}  output format
  --seed SEED           accepted on every command for script compatibility; no
                        command uses it
"""
_MODE_USAGE = "[--mode {exhaustive,positive_then_negate}]"
_MODE_HELP = "  --mode {exhaustive,positive_then_negate}\n                        enumeration mode\n"
_USAGE = {
    "chartab": "usage: perfiso chartab [-h] -p P [--format {text,json}] [--seed SEED]\n",
    "mu": "usage: perfiso mu [-h] -p P [--format {text,json}] [--seed SEED] --map MAP\n",
    "check": "usage: perfiso check [-h] -p P [--format {text,json}] [--seed SEED] --map MAP\n",
    "enumerate": (
        "usage: perfiso enumerate [-h] -p P [--format {text,json}] [--seed SEED]\n"
        f"                         {_MODE_USAGE}\n"
    ),
    "decompose": (
        "usage: perfiso decompose [-h] -p P [--format {text,json}] [--seed SEED] --map\n"
        "                         MAP\n"
    ),
    "verify": (
        "usage: perfiso verify [-h] -p P [--format {text,json}] [--seed SEED]\n"
        f"                      {_MODE_USAGE}\n"
    ),
}
_TOP_USAGE = "usage: perfiso [-h] {chartab,mu,check,enumerate,decompose,verify} ...\n"
HELP_AND_USAGE_PINS = {
    ("-h",): (
        0,
        _TOP_USAGE
        + """
Exact tools for perfect self-isometries of the prime-order cyclic block.

positional arguments:
  {chartab,mu,check,enumerate,decompose,verify}
    chartab             print the character table
    mu                  print the pairing kernel of an isometry
    check               test an isometry for perfectness
    enumerate           enumerate all perfect isometries
    decompose           affine coordinates of a perfect isometry
    verify              enumerate and verify the group structure

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    ("chartab", "-h"): (0, _USAGE["chartab"] + _HELP_OPTIONS, ""),
    ("mu", "-h"): (
        0,
        _USAGE["mu"] + _HELP_OPTIONS + '  --map MAP             isometry literal, e.g. "+2,+0,+1"\n',
        "",
    ),
    ("check", "-h"): (
        0,
        _USAGE["check"] + _HELP_OPTIONS + '  --map MAP             isometry literal, e.g. "+0,+1,+2"\n',
        "",
    ),
    ("enumerate", "-h"): (0, _USAGE["enumerate"] + _HELP_OPTIONS + _MODE_HELP, ""),
    ("decompose", "-h"): (
        0,
        _USAGE["decompose"]
        + _HELP_OPTIONS
        + '  --map MAP             isometry literal, e.g. "+1,+3,+0,+2,+4"\n',
        "",
    ),
    ("verify", "-h"): (0, _USAGE["verify"] + _HELP_OPTIONS + _MODE_HELP, ""),
    ("check", "--map", "+0,+1,+2"): (
        2,
        "",
        _USAGE["check"] + "perfiso check: error: the following arguments are required: -p\n",
    ),
    ("chartab", "-p", "3", "--format", "xml"): (
        2,
        "",
        _USAGE["chartab"]
        + "perfiso chartab: error: argument --format: invalid choice: 'xml'"
        " (choose from 'text', 'json')\n",
    ),
    ("verify", "-p", "3", "--mode", "bad"): (
        2,
        "",
        _USAGE["verify"]
        + "perfiso verify: error: argument --mode: invalid choice: 'bad'"
        " (choose from 'exhaustive', 'positive_then_negate')\n",
    ),
    ("enumerate", "-p", "3", "--seed", "q"): (
        2,
        "",
        _USAGE["enumerate"] + "perfiso enumerate: error: argument --seed: invalid int value: 'q'\n",
    ),
    # --map is an option of other commands, not of chartab
    ("chartab", "-p", "3", "--map=+0,+1,+2"): (
        2,
        "",
        _TOP_USAGE + "perfiso: error: unrecognized arguments: --map=+0,+1,+2\n",
    ),
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="pinned as CPython 3.11's argparse words it"
)
@pytest.mark.parametrize("argv", HELP_AND_USAGE_PINS, ids=" ".join)
def test_help_and_usage_output_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == HELP_AND_USAGE_PINS[argv]


def test_usage_lines_are_the_same_on_every_interpreter(monkeypatch):
    # cli builds each command's usage line from its table, so no argparse
    # version or terminal width wraps it (at 40 columns argparse's own line
    # for decompose takes four); the rest of the help text is pinned under
    # 3.11 alone, above
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    assert list(commands.choices) == list(_USAGE)
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for name, parser in commands.choices.items():
            assert parser.format_usage() == _USAGE[name], (name, columns)


# an int option's value is an optional ASCII sign and ASCII digits, read by
# one function on both parser paths; no version gate, so every interpreter
# of the CI matrix runs these
NOT_INTS = ("\u0663", "\uff13", "1_1", " 3", "3 ")  # Arabic-Indic and fullwidth 3


def _int_shapes():
    for value in NOT_INTS:
        for flag, shape, options in (
            ("-p", "-p V", ["-p", value]),  # plain
            ("-p", "-pV", [f"-p{value}"]),  # argparse only
            ("--seed", "--seed=V", ["-p", "3", f"--seed={value}"]),  # plain
            ("--seed", "--se V", ["-p", "3", "--se", value]),  # argparse only
        ):
            argv = ["chartab", *options]
            yield pytest.param(flag, value, argv, id=shape.replace("V", ascii(value)))


@pytest.mark.parametrize("flag, value, argv", _int_shapes())
def test_int_options_take_ascii_digits_only(capsys, flag, value, argv):
    message = f"perfiso chartab: error: argument {flag}: invalid int value: {value!r}\n"
    assert run_cli(capsys, *argv) == (2, "", _USAGE["chartab"] + message)


JOINED_DASHES = {
    ("chartab", "-p=--"): "-p",
    ("chartab", "-p--"): "-p",
    ("chartab", "-p", "3", "--format=--"): "--format",
    ("chartab", "-p", "3", "--form=--"): "--format",
    ("verify", "-p", "3", "--mode=--"): "--mode",
    ("chartab", "-p", "3", "--seed=--"): "--seed",
    ("mu", "-p", "3", "--map=--"): "--map",
}


@pytest.mark.parametrize("argv", JOINED_DASHES, ids=" ".join)
def test_joined_double_dash_value_is_a_usage_error(capsys, argv):
    # argparse before 3.13 reads a joined "--" as an empty list, and 3.13 as
    # "--"; cli hands it on as a token of its own, which every version refuses
    message = f"perfiso {argv[0]}: error: argument {JOINED_DASHES[argv]}: expected one argument\n"
    assert run_cli(capsys, *argv) == (2, "", _USAGE[argv[0]] + message)


@pytest.mark.parametrize("argv", [["-h=--"], ["check", "-p", "5", "-h=--"]], ids=" ".join)
def test_joined_double_dash_stays_on_a_short_flag_other_than_p(capsys, argv):
    # only "-p" and long flags have a joined "--" split off; argparse reads
    # "-h=--" whole and refuses it, where "-h" and "--" apart would print help
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (2, "")


def test_signed_int_values_keep_their_meaning(capsys):
    plus = run_cli(capsys, "chartab", "-p", "+3")
    assert plus == run_cli(capsys, "chartab", "-p", "3")
    for seed in (["--seed", "-1"], ["--seed=-1"]):
        code, out, err = run_cli(capsys, "chartab", "-p", "3", *seed)
        assert (code, err) == (0, "") and out


def _digits(n):
    return "1" + "0" * (n - 1)


def _not_an_int(flag, value):
    return _USAGE["chartab"] + f"perfiso chartab: error: argument {flag}: invalid int value: {value!r}\n"


@pytest.mark.parametrize(
    "argv, code, err",
    (
        (["chartab", "-p", _digits(640)], 2, f"error: p={_digits(640)} is out of range; the bound is p <= 101\n"),
        (["chartab", "-p", _digits(641)], 2, _not_an_int("-p", _digits(641))),
        (["chartab", "-p", _digits(5000)], 2, _not_an_int("-p", _digits(5000))),
        (["chartab", "-p", "0" * 5000 + "3"], 0, ""),
        (["chartab", "-p", "3", "--seed", _digits(640)], 0, ""),
        (["chartab", "-p", "3", "--seed", _digits(641)], 2, _not_an_int("--seed", _digits(641))),
        (["chartab", "-p", "3", "--seed", _digits(5000)], 2, _not_an_int("--seed", _digits(5000))),
    ),
    ids=("p-640", "p-641", "p-5000", "p-zeros-5000", "seed-640", "seed-641", "seed-5000"),
)
def test_int_options_mean_the_same_under_every_int_string_limit(argv, code, err):
    # more than 640 digits, leading zeros stripped, is a usage error: 640 is
    # the lowest int-string limit an interpreter takes, so the default limit
    # and the lowest one give an argv the same answer
    default = _as_child(argv)
    assert (default[0], default[2]) == (code, err)
    assert _as_child(argv, "-X", "int_max_str_digits=640") == default


PLAIN_CALLS = [
    ["chartab", "-p", "3"],
    ["mu", "-p", "3", "--map=+0,+1,+2"],
    ["check", "-p", "3", "--map", "-0,-1,-2"],
    ["enumerate", "-p", "3", "--mode", "exhaustive"],
    ["decompose", "-p", "5", "--map=+1,+3,+0,+2,+4"],
    ["verify", "-p", "3", "--seed", "7"],
]
JSON_CALLS = [[*call, "--format", "json"] for call in PLAIN_CALLS]


def _fresh_stdout(code):
    """What code prints in a fresh interpreter that imports perfiso from SRC.

    The interpreter starts without site, which on some hosts imports
    modules of its own.
    """
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{code}"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.stderr == ""
    return proc.stdout


def _fresh(code):
    """The last line code prints in a fresh interpreter (_fresh_stdout)."""
    return _fresh_stdout(code).splitlines()[-1]


# every module of the package that sys.modules holds
PERFISO_LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'perfiso')"
# enumerate and verify read their answer off pigroup's search, and build a
# map, with isometry, only to name a failure
COMMAND_LAYERS = {
    "chartab": ("cyclotomic",),
    "mu": ("cyclotomic", "isometry"),
    "check": ("cyclotomic", "isometry"),
    "decompose": ("cyclotomic", "isometry", "pigroup"),
    "enumerate": ("pigroup",),
    "verify": ("pigroup",),
}


# the stdlib modules no call loads, each an import every child would pay for:
# - argparse, with the gettext and locale its messages load, about 7 ms;
#   plain calls never reach it
# - typing (with the re, enum and functools machinery it loads) and
#   __future__, once loaded only for annotations and NamedTuple; without
#   site, nothing else loads them
# - functools, with the collections it loads: no command keeps a cache, as
#   each derived kernel row builds its own Galois gather
# - json's modules, which compile regexes at import; _dumps needs only the C
#   module _json, which a JSON call loads, so the check is live
NOT_LOADED = (
    "argparse", "gettext", "locale", "typing", "__future__", "functools", "collections",
    "json", "json.encoder", "json.decoder", "json.scanner", "_json",
)


@pytest.mark.parametrize("argv", PLAIN_CALLS + JSON_CALLS, ids=" ".join)
def test_each_command_loads_only_its_layers(argv):
    # neither the package nor cli imports a layer at module level, and
    # neither parsing nor main's exception handling loads one when nothing
    # is raised: a call loads the layers its command calls, whose import is
    # most of what perfiso adds to a child
    layers = [f"perfiso.{layer}" for layer in COMMAND_LAYERS[argv[0]]]
    found = _fresh(
        f"from perfiso.cli import main\ncode = main({argv!r})\n"
        f"print(code, {PERFISO_LOADED}, [m for m in {NOT_LOADED!r} if m in sys.modules])"
    )
    stdlib = ["_json"] if "json" in argv else []
    assert found == f"0 {sorted(['perfiso', 'perfiso.cli', *layers])} {stdlib}"


@pytest.fixture(scope="module")
def loaded_in_turn():
    """Which of NOT_LOADED one fresh interpreter holds after the plain calls,
    and after the JSON calls that follow them, as sets.

    The test above starts each call from a clean interpreter; here every
    call runs in turn in one, as a script that calls main does, so no call
    loads one of these because of what an earlier call left behind.
    """
    found = _fresh(
        "from perfiso.cli import main\n"
        f"loaded = lambda: ','.join(m for m in {NOT_LOADED!r} if m in sys.modules)\n"
        f"codes = [main(argv) for argv in {PLAIN_CALLS!r}]\nplain = loaded()\n"
        f"codes += [main(argv) for argv in {JSON_CALLS!r}]\n"
        "print(codes, plain, loaded(), sep='|')"
    )
    codes, plain, after = found.split("|")
    assert codes == str([0] * 12)
    return set(filter(None, plain.split(","))), set(filter(None, after.split(",")))


def test_plain_calls_import_no_argparse(loaded_in_turn):
    assert loaded_in_turn[1] & {"argparse", "gettext", "locale"} == set()


def test_calls_import_no_typing(loaded_in_turn):
    assert loaded_in_turn[1] & {"typing", "__future__"} == set()


def test_calls_import_no_functools(loaded_in_turn):
    assert loaded_in_turn[1] & {"functools", "collections"} == set()


def test_json_calls_import_no_json(loaded_in_turn):
    modules = {"json", "json.encoder", "json.decoder", "json.scanner", "_json"}
    assert loaded_in_turn[1] & modules == {"_json"}


def test_text_calls_import_no_json_module(loaded_in_turn):
    assert loaded_in_turn[0] & {"json", "_json"} == set()


@pytest.mark.parametrize("forms", ([], [(0, 1, 3, 2, 4)]), ids=("no_form", "non_affine_form"))
def test_failing_verify_loads_isometry_to_name_the_failures(monkeypatch, capsys, forms):
    # a report builds maps, and so imports isometry, only to name a failure:
    # with no normal form each affine map and negation are missing, and a
    # non-affine form adds non-affine maps.  A fresh child writes what an
    # in-process call writes, test_verify_structure_failure_diagnostics's
    # "! ..." lines included
    monkeypatch.setattr(pigroup, "_normal_forms", lambda p: list(forms))
    assert main(["verify", "-p", "5"]) == 1
    expected = capsys.readouterr().out
    assert "  ! negation not enumerated: -0,-1,-2,-3,-4\n" in expected
    found = _fresh_stdout(
        f"from perfiso import cli, pigroup\npigroup._normal_forms = lambda p: {forms!r}\n"
        "loaded = [m for m in ('perfiso.cyclotomic', 'perfiso.isometry') if m in sys.modules]\n"
        "code = cli.main(['verify', '-p', '5'])\n"
        f"print(code, loaded, {PERFISO_LOADED})\n"
    )
    # isometry's ring values load cyclotomic
    loaded = ["perfiso", "perfiso.cli", "perfiso.cyclotomic", "perfiso.isometry", "perfiso.pigroup"]
    assert found == expected + f"1 [] {loaded}\n"


def test_parser_loads_no_layer():
    # what the benchmark's set-up child runs
    found = _fresh(f"import perfiso.cli as c; c.build_parser()\nprint({PERFISO_LOADED})")
    assert found == "['perfiso', 'perfiso.cli']"


def test_mode_choices_are_pigroup_modes():
    # cli reads the modes from the package root, which defines and exports
    # them, so that parsing loads no layer; pigroup reads the same objects;
    # test_table_parser_agrees_with_argparse covers the table parser
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    for name in REPORT_COMMANDS:
        (mode,) = [action for action in commands.choices[name]._actions if action.dest == "mode"]
        assert (mode.choices, mode.default) == (perfiso.MODES, perfiso.POSITIVE_THEN_NEGATE)
    assert pigroup.MODES is perfiso.MODES


# ---------------------------------------------------------------------------
# the package loads its modules on first use


def test_import_perfiso_loads_no_layer():
    # nor does a probe for a private name, as tools make
    found = _fresh(f"import perfiso\nhasattr(perfiso, '__wrapped__')\nprint({PERFISO_LOADED})")
    assert found == "['perfiso']"


def test_star_import_binds_every_public_name():
    found = _fresh(
        "from perfiso import *\nimport perfiso\n"
        "print(len(perfiso.__all__), [n for n in perfiso.__all__ if globals().get(n) is not getattr(perfiso, n)])"
    )
    assert found == "39 []"


def test_dir_lists_every_public_name():
    found = _fresh(
        "import perfiso\nlisted = dir(perfiso)\n"
        "print(sorted({*perfiso.__all__, 'cyclotomic', 'characters', 'isometry', 'pigroup'} - set(listed)))"
    )
    assert found == "[]"


@pytest.mark.parametrize(
    "name, layer", (("CycInt", "cyclotomic"), ("recompose", "pigroup"), ("PERFECT", "isometry"))
)
def test_layer_name_resolves_on_first_access(name, layer):
    # the first read of a layer's name binds every layer's names, and gets this one
    found = _fresh(
        f"import perfiso\nvalue = perfiso.{name}\n"
        f"from perfiso.{layer} import {name}\nprint(value is {name})"
    )
    assert found == "True"


def test_unknown_name_raises_attribute_error():
    # before and after the first access loads the layers
    found = _fresh(
        "import perfiso\nerrors = []\n"
        "for name in ('no_such_name', '__all__', 'no_such_name', '_LAYER'):\n"
        "    try:\n        getattr(perfiso, name)\n"
        "    except AttributeError as exc:\n        errors.append(str(exc))\n"
        "print(errors)"
    )
    missing = "module 'perfiso' has no attribute"
    assert found == f"{[f'{missing} {name!r}' for name in ('no_such_name', 'no_such_name', '_LAYER')]}"


@pytest.mark.parametrize(
    "module, loads",
    (
        ("cyclotomic", ()),
        ("characters", ("cyclotomic",)),
        ("isometry", ("cyclotomic",)),
        ("pigroup", ()),
        ("cli", ()),
    ),
)
def test_from_perfiso_import_a_module_first(module, loads):
    # `from . import` inside the package's __getattr__ would recurse here
    found = _fresh(f"from perfiso import {module}\nprint({module}.__name__, {PERFISO_LOADED})")
    expected = sorted(["perfiso", *(f"perfiso.{name}" for name in (module, *loads))])
    assert found == f"perfiso.{module} {expected}"


# ---------------------------------------------------------------------------
# the JSON writer

# every code point, surrogates included, and the escapes json.dumps writes
JSON_STRINGS = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"', "\\", '\\"', "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "\u00e9", "\u2028", "\U0001f600", "\udfff"]
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | JSON_STRINGS,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(JSON_STRINGS, children),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example("\ud800")
@example({"": [[], {}, ()], "\ud800": [[[{}]]], "n": [-1, 2**64, True, None]})
# a list of strings is quoted in one pass; a non-string item, first or later,
# sends the list item by item
@example(["a", 1, None, ["b"], {"c": "d"}])
@example([1, "a"])
@example(("x", "y"))
def test_dumps_is_json_dumps_indent_2(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    (1.5, b"1", {1}, {1: 2}, [0, [1.0]], {"a": {None: 1}}, {"a": (b"",)}, ["a", 1.5], ["a", b"1"]),
    ids=repr,
)
def test_dumps_refuses_what_it_does_not_write(value):
    # json.dumps writes floats, and turns the key 1 into "1"; _dumps refuses
    # both rather than differ
    with pytest.raises(TypeError):
        cli._dumps(value)
