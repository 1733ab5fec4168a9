"""CLI behaviour: golden outputs, exit codes, JSON schema, determinism."""

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
from test_golden import RANDOM_SIGNED

SRC = str(Path(perfiso.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# chartab


def test_chartab_p2_text(capsys):
    code, out, err = run_cli(capsys, "chartab", "-p", "2")
    assert code == 0
    assert out == "1 1\n1 -1\n"
    assert err == ""


def test_chartab_p3_text(capsys):
    code, out, _ = run_cli(capsys, "chartab", "-p", "3")
    assert code == 0
    assert out == "1 1 1\n1 z z^2\n1 z^2 z\n"


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


def test_chartab_p3_json_entry(capsys):
    code, out, _ = run_cli(capsys, "chartab", "-p", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["entries"][1][1] == "z"
    assert payload["entries"][2][2] == "z"


def test_chartab_rejects_non_prime(capsys):
    code, out, err = run_cli(capsys, "chartab", "-p", "4")
    assert code == 2
    assert out == ""
    assert "p must be prime" in err


# ---------------------------------------------------------------------------
# mu


def test_mu_identity_p2(capsys):
    code, out, _ = run_cli(capsys, "mu", "-p", "2", "--map", "+0,+1")
    assert code == 0
    assert out == "2 0\n0 2\n"


def test_mu_identity_p3(capsys):
    code, out, _ = run_cli(capsys, "mu", "-p", "3", "--map", "+0,+1,+2")
    assert code == 0
    assert out == "3 0 0\n0 0 3\n0 3 0\n"


def test_mu_shift_scales_rows(capsys):
    code, out, _ = run_cli(capsys, "mu", "-p", "5", "--map", "+1,+2,+3,+4,+0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "5 0 0 0 0"
    assert lines[1].split()[4] == "5*z"
    assert lines[2].split()[3] == "5*z^2"


def test_mu_json_includes_map(capsys):
    code, out, _ = run_cli(capsys, "mu", "-p", "2", "--map", "+0,+1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema": 1,
        "p": 2,
        "map": "+0,+1",
        "entries": [["2", "0"], ["0", "2"]],
    }


@pytest.mark.parametrize(
    "literal, scale, entry",
    (
        # k -> 1 + 2k: row 1 is nonzero only at n = 3, so row 2 derives one
        # entry, at (2, 3 * 2 mod 5) = (2, 1)
        ("+1,+3,+0,+2,+4", {2: 3, 3: 3, 4: 3}, "(2, 1)"),
        # a random signed map, whose row 1 has no zero entry: only the images
        # for m = 3 are scaled, so the first entry out of bound comes after
        # the whole of row 2, at n = 5, (3, 5 * 3 mod 7) = (3, 1)
        ("-5,+6,+4,+0,+3,-1,-2", {3: 5}, "(3, 1)"),
    ),
    ids=("affine", "dense"),
)
def test_mu_derived_entry_out_of_bound_exits_3(capsys, monkeypatch, literal, scale, entry):
    real = cyclotomic.CycInt.galois
    monkeypatch.setattr(cyclotomic.CycInt, "galois", lambda self, m: real(self, m) * scale.get(m, 1))
    p = str(literal.count(",") + 1)
    code, out, err = run_cli(capsys, "mu", "-p", p, f"--map={literal}")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == f"error: internal error: kernel entry {entry} exceeds the coefficient bound 2p\n"


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize(
    "literal", ("+1,+3,+5,+7,+9,+0,+2,+4,+6,+8,+10", "+1,+5,+3,+7,+9,+0,+2,+4,+6,+8,+10")
)
def test_mu_and_chartab_build_no_table(capsys, monkeypatch, literal, fmt):
    # mu renders the kernel row by row, counting rows 0 and 1 once each, and
    # chartab renders the p powers of zeta: neither builds a p x p table
    built, rows = [], []
    real_kernel, real_table = isometry.kernel_table, characters.char_table
    real_row = isometry._counted_row

    def counting_kernel(iso):
        built.append("kernel_table")
        return real_kernel(iso)

    def counting_table(p):
        built.append("char_table")
        return real_table(p)

    def counting_row(iso, m):
        rows.append(m)
        return real_row(iso, m)

    monkeypatch.setattr(isometry, "kernel_table", counting_kernel)
    monkeypatch.setattr(characters, "char_table", counting_table)
    monkeypatch.setattr(isometry, "_counted_row", counting_row)
    for argv in (("mu", f"--map={literal}"), ("chartab",)):
        code, out, _ = run_cli(capsys, *argv, "-p", "11", "--format", fmt)
        assert code == 0 and out
    assert built == []
    assert rows == [0, 1]


# ---------------------------------------------------------------------------
# check


def test_check_identity_perfect(capsys):
    code, out, _ = run_cli(capsys, "check", "-p", "3", "--map", "+0,+1,+2")
    assert code == 0
    assert out == "verdict: perfect\ncross_check: perfect\n"


def test_check_swap_fails_with_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "-p", "5", "--map", "+0,+2,+1,+3,+4")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "verdict: fails_integrality"
    assert lines[1].startswith("witness: (")
    assert lines[2] == "cross_check: fails_integrality"


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
def test_check_builds_no_kernel_and_counts_two_rows(capsys, monkeypatch, literal, expected):
    # is_perfect counts rows 0 and 1, and the cross-check reads the rule off
    # the map, counting no row; only mu builds the whole kernel
    built, rows = [], []
    real_kernel, real_raw = isometry.kernel_table, isometry.forward_transform_raw
    real_row = isometry._counted_row

    def counting_kernel(iso):
        built.append("kernel_table")
        return real_kernel(iso)

    def counting_raw(kt, beta):
        built.append("forward_transform_raw")
        return real_raw(kt, beta)

    def counting_row(iso, m):
        rows.append(m)
        return real_row(iso, m)

    monkeypatch.setattr(isometry, "kernel_table", counting_kernel)
    monkeypatch.setattr(isometry, "forward_transform_raw", counting_raw)
    monkeypatch.setattr(isometry, "_counted_row", counting_row)
    code, out, _ = run_cli(capsys, "check", "-p", "11", f"--map={literal}")
    assert code == expected and out.startswith("verdict: ")
    assert built == []
    assert rows == [0, 1]


def test_check_row_count_defect_exits_3(capsys, monkeypatch):
    # k -> 1 + 2k: row 1 is nonzero only at n = 3, where it is 5*zeta; a count
    # that adds 1 to it breaks is_perfect, and the cross-check counts no row
    real_row = isometry._counted_row

    def corrupted_row(iso, m):
        row = real_row(iso, m)
        if m != 1:
            return row
        (n,) = (n for n, entry in enumerate(row) if entry)
        coeffs = list(row[n].coeffs)
        coeffs[0] += 1
        return row[:n] + (cyclotomic.CycInt(iso.p, coeffs),) + row[n + 1:]

    monkeypatch.setattr(isometry, "_counted_row", corrupted_row)
    code, out, err = run_cli(capsys, "check", "-p", "5", "--map=+1,+3,+0,+2,+4")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == "error: internal error: checkers disagree (fails_integrality vs perfect)\n"


@pytest.mark.parametrize("command", ("mu", "check", "decompose"))
@pytest.mark.parametrize("fmt", ("text", "json"))
def test_negative_map_literal_as_separate_argument(capsys, command, fmt):
    joined = run_cli(capsys, command, "-p", "3", "--map=-0,-1,-2", "--format", fmt)
    separate = run_cli(capsys, command, "-p", "3", "--map", "-0,-1,-2", "--format", fmt)
    assert joined == separate
    assert joined[0] == 0 and joined[1] and joined[2] == ""


@pytest.mark.parametrize("command", ("mu", "check", "decompose"))
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
    with pytest.raises(SystemExit) as info:
        main(["check", *argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --map: expected one argument" in captured.err


def test_check_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "check", "-p", "5", "--map", "+0,+2,+1,+3,+4", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["verdict"]["status"] == "fails_integrality"
    assert payload["agree"] is True
    assert payload["verdict"]["witness"] is not None


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


def test_enumerate_p3_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-p", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["order"] == 12
    assert payload["elements"][0] == {"eps": -1, "a": 0, "u": 1}
    assert payload["elements"][-1] == {"eps": 1, "a": 2, "u": 2}
    assert payload["checks"] == {
        "homogeneous_sign": True,
        "affine_completeness": True,
        "semidirect_law": None,
        "negid_central": None,
        "order_formula": True,
    }


def test_enumerate_modes_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "enumerate", "-p", "5", "--format", "json")
    code2, out2, _ = run_cli(
        capsys, "enumerate", "-p", "5", "--mode", "exhaustive", "--format", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_enumerate_deterministic_across_runs(capsys):
    _, out1, _ = run_cli(capsys, "enumerate", "-p", "3")
    _, out2, _ = run_cli(capsys, "enumerate", "-p", "3")
    assert out1 == out2


def test_enumerate_p7_exhaustive(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "-p", "7", "--mode", "exhaustive", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 84
    assert len(payload["elements"]) == 84


def test_verify_at_the_cli_bound(capsys):
    # enumerate and verify share the bound of every other command
    code, out, err = run_cli(capsys, "verify", "-p", str(cli.MAX_P), "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["order"] == 2 * 101 * 100 == 20200
    assert payload["checks"] == dict.fromkeys(perfiso.CHECK_KEYS, True)
    assert "failures" not in payload


@pytest.mark.parametrize("p", ("103", "100000000000000000039"))
def test_p_above_cli_bound_exits_2_before_any_work(capsys, monkeypatch, p):
    # both are prime; the bound must reject them before the primality test,
    # whose trial division grows with sqrt(p) and takes minutes at 10^20
    def no_work(n):
        raise AssertionError(f"primality of {n} tested")

    monkeypatch.setattr(cyclotomic, "is_prime", no_work)
    for command in ("chartab", "mu", "check", "enumerate", "decompose", "verify"):
        extra = ("--map=+0",) if command in ("mu", "check", "decompose") else ()
        code, out, err = run_cli(capsys, command, "-p", p, *extra)
        assert code == 2
        assert out == ""
        assert "p <= 101" in err


@pytest.mark.parametrize("command,p", (("enumerate", "9"), ("verify", "4")))
def test_report_commands_reject_non_prime(capsys, command, p):
    code, out, err = run_cli(capsys, command, "-p", p)
    assert code == 2
    assert out == ""
    assert "p must be prime" in err


def test_verify_p2_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "-p", "2")
    assert code == 0
    expected = (
        "p: 2\n"
        "order: 4\n"
        "elements:\n"
        "  (-1, a=0, u=1)\n"
        "  (-1, a=1, u=1)\n"
        "  (+1, a=0, u=1)\n"
        "  (+1, a=1, u=1)\n"
        "checks:\n"
        "  homogeneous_sign: pass\n"
        "  affine_completeness: pass\n"
        "  semidirect_law: pass\n"
        "  negid_central: pass\n"
        "  order_formula: pass\n"
    )
    assert out == expected


def test_verify_p7_json_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "-p", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 84
    assert all(payload["checks"][k] is True for k in payload["checks"])
    assert "failures" not in payload


def test_seed_flag_accepted_everywhere(capsys):
    code, out, _ = run_cli(capsys, "chartab", "-p", "2", "--seed", "7")
    assert code == 0
    assert out == "1 1\n1 -1\n"


# ---------------------------------------------------------------------------
# decompose


def test_decompose_affine_map(capsys):
    code, out, _ = run_cli(capsys, "decompose", "-p", "5", "--map", "+1,+3,+0,+2,+4")
    assert code == 0
    assert out == "(+1, a=1, u=2)\n"


def test_decompose_identity(capsys):
    code, out, _ = run_cli(capsys, "decompose", "-p", "3", "--map", "+0,+1,+2")
    assert code == 0
    assert out == "(+1, a=0, u=1)\n"


def test_decompose_json(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "-p", "5", "--map", "+1,+3,+0,+2,+4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "schema": 1,
        "p": 5,
        "map": "+1,+3,+0,+2,+4",
        "eps": 1,
        "a": 1,
        "u": 2,
    }


def test_decompose_non_perfect_exits_1(capsys):
    code, out, err = run_cli(capsys, "decompose", "-p", "5", "--map", "+0,+2,+1,+3,+4")
    assert code == 1
    assert out == ""
    assert "not an affine map" in err


@pytest.mark.parametrize("command", ("mu", "check", "decompose"))
def test_map_parse_error_exits_2(capsys, command):
    code, out, err = run_cli(capsys, command, "-p", "5", "--map", "0,1,2,3,4")
    assert code == 2
    assert out == ""
    assert "signed index" in err


@pytest.mark.parametrize("command", ("mu", "check", "decompose"))
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


@pytest.mark.parametrize("command", ("mu", "check", "decompose"))
@pytest.mark.parametrize("entry", ("+", "-", "++1", "+\uff11", "+\u00b2", "+\u0663", "+1a", ""))
def test_malformed_literal_entries_exit_2(capsys, command, entry):
    # a sign, then ASCII digits only: fullwidth one, superscript two and
    # Arabic-Indic three are digits to str.isdigit, not to the parser
    code, out, err = run_cli(capsys, command, "-p", "3", f"--map={entry},+0,+1")
    assert (code, out) == (2, "")
    assert err == f"error: bad literal entry {entry!r}; expected a signed index like +2\n"


# ---------------------------------------------------------------------------
# argparse-level behaviour


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "-p", "3"])
    assert info.value.code == 2


def _child_env() -> dict:
    # a child imports the same perfiso as this test, also when only
    # pytest's own pythonpath setting put it on sys.path
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "perfiso", "chartab", "-p", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 1\n1 -1\n"


IDENTITY_101 = ",".join(f"+{k}" for k in range(101))


@pytest.mark.parametrize(
    "argv, code",
    (
        (["chartab", "-p", "101"], 0),
        (["mu", "-p", "101", f"--map={IDENTITY_101}", "--format", "json"], 0),
        (["check", "-p", "5", "--map", "+0,+2,+1,+3,+4"], 1),
    ),
    ids=("chartab", "mu-json", "check-negative"),
)
def test_closed_stdout_keeps_the_exit_code_and_stderr_empty(argv, code):
    # the reader is gone before the child writes: the verdict still sets the
    # exit code, and no traceback or "Exception ignored" line is printed
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfiso", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (code, b"")


# ---------------------------------------------------------------------------
# the process exit: run() flushes, then ends without interpreter teardown


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse's own exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _as_child(argv):
    """(exit code, stdout, stderr) of python -m perfiso argv in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfiso", *argv],
        capture_output=True,
        text=True,
        env={**_child_env(), "COLUMNS": "80"},
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    (
        (["chartab", "-p", "5"], 0),
        (["check", "-p", "5", "--map", "+1,+0,+3,+2,+4"], 1),
        (["chartab", "-p", "103"], 2),
        (["check", "-p", "3"], 2),
        (["--help"], 0),
        (["mu", "-p", "101", "--format", "json", f"--map={RANDOM_SIGNED[101]}"], 0),
    ),
    ids=("chartab", "check-negative", "bound", "usage", "help", "mu-json-p101"),
)
def test_child_exit_matches_main(capsys, monkeypatch, argv, code):
    # run() ends the child with os._exit after flushing: the output, all of
    # it through a pipe (megabytes for mu), and the exit code are main's own
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the same width
    expected = _in_process(capsys, argv)
    assert expected[0] == code
    assert _as_child(argv) == expected


def test_child_with_stdout_closed_at_start_up(capsys, monkeypatch):
    # >&-: sys.stdout is None, and run() skips it rather than fail on it
    monkeypatch.setattr(sys, "stdout", None)
    expected = main(["chartab", "-p", "3"]), capsys.readouterr().err
    proc = subprocess.run(
        [sys.executable, "-m", "perfiso", "chartab", "-p", "3"],
        stderr=subprocess.PIPE,
        env=_child_env(),
        preexec_fn=lambda: os.close(1),
        timeout=60,
    )
    assert expected == (0, "")
    assert (proc.returncode, proc.stderr) == (0, b"")


class _Stream:
    """A stand-in for sys.stdout or sys.stderr that logs its flushes."""

    def __init__(self, name, log, error=None):
        self.name, self.log, self.error = name, log, error

    def write(self, text):
        return len(text)

    def flush(self):
        self.log.append(f"flush {self.name}")
        if self.error:
            raise self.error


class _Exited(Exception):
    pass


def _patch_exit(monkeypatch, log, code=3):
    """main returns code; os._exit logs its argument and raises _Exited."""

    def fake_main():
        log.append("main")
        return code

    def fake_exit(status):
        log.append(("os._exit", status))
        raise _Exited

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(os, "_exit", fake_exit)


def test_run_exits_with_mains_code_after_both_flushes(monkeypatch):
    log = []
    _patch_exit(monkeypatch, log)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", log))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", log))
    with pytest.raises(_Exited):
        cli.run()
    assert log == ["main", "flush stdout", "flush stderr", ("os._exit", 3)]


def test_run_skips_a_stream_that_is_none(monkeypatch):
    log = []
    _patch_exit(monkeypatch, log, code=0)
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", log))
    with pytest.raises(_Exited):
        cli.run()
    assert log == ["main", "flush stderr", ("os._exit", 0)]


@pytest.mark.parametrize("failing", ("stdout", "stderr"))
def test_run_falls_back_to_system_exit_when_a_flush_fails(monkeypatch, failing):
    # the interpreter's own teardown then reports the stream as it always did
    log = []
    _patch_exit(monkeypatch, log, code=1)
    for name in ("stdout", "stderr"):
        error = BrokenPipeError() if name == failing else None
        monkeypatch.setattr(sys, name, _Stream(name, log, error))
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == 1
    assert ("os._exit", 1) not in log


def test_run_falls_back_to_system_exit_under_inspect(monkeypatch):
    # python -i and PYTHONINSPECT open a prompt once the module is done
    log = []
    _patch_exit(monkeypatch, log, code=2)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", log))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", log))
    monkeypatch.setattr(sys, "flags", SimpleNamespace(inspect=1))
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == 2
    assert log == ["main", "flush stdout", "flush stderr"]


@pytest.mark.parametrize("raised", (SystemExit(2), KeyboardInterrupt()), ids=repr)
def test_run_lets_mains_exceptions_through(monkeypatch, raised):
    log = []

    def fake_main():
        raise raised

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(os, "_exit", lambda status: log.append(status))
    with pytest.raises(type(raised)) as info:
        cli.run()
    assert info.value is raised
    assert log == []


class _RefusingStream:
    """A stderr whose descriptor refuses writes, like fd 2 opened read-only."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")

    def flush(self):
        pass


@pytest.mark.parametrize("stderr", (None, _RefusingStream()), ids=("none", "refusing"))
def test_error_line_never_reaches_stdout(capsys, monkeypatch, stderr):
    # with stderr closed, print(file=None) would write the line to stdout
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["chartab", "-p", "4"]) == 2
    assert capsys.readouterr().out == ""


def _refuse_writes_on_fd_2():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(fd, 2)
    os.close(fd)


@pytest.mark.parametrize(
    "preexec",
    (lambda: os.close(2), _refuse_writes_on_fd_2),
    ids=("closed", "read-only"),
)
@pytest.mark.parametrize(
    "argv, code",
    (
        (["chartab", "-p", "4"], 2),
        (["decompose", "-p", "5", "--map=+1,+0,+3,+2,+4"], 1),
    ),
    ids=("bad-p", "not-affine"),
)
def test_child_error_with_stderr_unusable(preexec, argv, code):
    # the error line is dropped: stdout stays empty and the exit code is the command's
    proc = subprocess.run(
        [sys.executable, "-m", "perfiso", *argv],
        stdout=subprocess.PIPE,
        env=_child_env(),
        preexec_fn=preexec,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, b"")


# ---------------------------------------------------------------------------
# plain calls, parsed without argparse

COMMANDS = ("chartab", "mu", "check", "enumerate", "decompose", "verify")
MAP_COMMANDS = ("mu", "check", "decompose")
REPORT_COMMANDS = ("enumerate", "verify")


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


def _readme_calls():
    calls = re.findall(r"^\$ perfiso ([^|#\n]*)", README.read_text(), flags=re.M)
    assert len(calls) == len(COMMANDS)
    return [shlex.split(call) for call in calls]


@pytest.mark.parametrize("argv", [*_benchmark_shapes(), *_readme_calls()], ids=" ".join)
def test_plain_calls_take_the_table_parser(argv):
    # guards against the plain path silently never being taken
    joined = cli._join_map_literals(argv)
    plain = cli._parse_plain(joined)
    assert plain is not None
    assert vars(plain) == _reference(joined)


EDITS = ("--", "-h", "--form", "-p3", "-p=3", "+3", "07", " 3", "1_0", "\u0663", "-3")


@st.composite
def cli_argvs(draw):
    """Mostly well-formed calls, in any option order and either value form, some edited."""

    def pick(*choices):
        # about one value in eight is an edit token
        drawn = draw(st.sampled_from((*choices, None)))
        return draw(st.sampled_from(EDITS)) if drawn is None else drawn

    command = draw(st.sampled_from(COMMANDS))
    pairs = [("-p", pick("2", "3", "5", "101", "103", "4", "0"))]
    if draw(st.booleans()):
        pairs.append(("--format", pick("text", "json", "xml")))
    if draw(st.booleans()):
        pairs.append(("--seed", pick("0", "7", "12345678901234567890")))
    if command in MAP_COMMANDS:
        pairs.append(("--map", pick("+0,+1,+2", "-0,-1,-2", "+1,+3,+0,+2,+4", "", "--")))
    if command in REPORT_COMMANDS and draw(st.booleans()):
        pairs.append(("--mode", pick(*MODES, "positive")))
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
        elif edit == "repeat":
            name, value = draw(st.sampled_from(pairs))
            argv += [name, value]
        elif edit == "extra":
            argv.insert(at, "extra")
        elif edit == "drop" and len(argv) > 1:
            del argv[max(at, 1) - 1]
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
def test_table_parser_agrees_with_argparse(argv):
    # wherever the table parser answers, argparse accepts the same argv and
    # builds the same namespace; everywhere else argparse alone answers
    joined = cli._join_map_literals(argv)
    plain = cli._parse_plain(joined)
    if plain is not None:
        assert vars(plain) == _reference(joined)


@pytest.mark.parametrize(
    "argv",
    (
        ["-h"],
        ["check", "-h"],
        ["frobnicate", "-p", "3"],
        ["check", "-p", "3"],
        ["check", "--map", "-p", "3"],
        ["check", "-p", "3", "--map", "--format"],
    ),
    ids=" ".join,
)
def test_help_and_usage_errors_are_argparse_own(capsys, argv):
    assert cli._parse_plain(argv) is None
    with pytest.raises(SystemExit) as via_main:
        main(argv)
    from_main = via_main.value.code, *capsys.readouterr()
    with pytest.raises(SystemExit) as via_parser:
        build_parser().parse_args(argv)
    assert from_main == (via_parser.value.code, *capsys.readouterr())


PLAIN_CALLS = [
    ["chartab", "-p", "3"],
    ["mu", "-p", "3", "--map=+0,+1,+2"],
    ["check", "-p", "3", "--map", "-0,-1,-2"],
    ["enumerate", "-p", "3", "--mode", "exhaustive"],
    ["decompose", "-p", "5", "--map=+1,+3,+0,+2,+4"],
    ["verify", "-p", "3", "--seed", "7"],
]
JSON_CALLS = [[*call, "--format", "json"] for call in PLAIN_CALLS]


def _fresh(code):
    """The last line code prints in a fresh interpreter that imports perfiso from SRC.

    The interpreter starts without site, which on some hosts imports
    modules of its own.
    """
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{code}"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert proc.stderr == ""
    return proc.stdout.splitlines()[-1]


def _loaded_after(calls, modules):
    """The exit codes of main on calls in a fresh interpreter, and which of modules it loaded."""
    return _fresh(
        "from perfiso.cli import main\n"
        f"codes = [main(argv) for argv in {calls!r}]\n"
        f"print(codes, sorted({set(modules)!r} & set(sys.modules)))\n"
    )


# every module of the package that sys.modules holds
PERFISO_LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'perfiso')"
COMMAND_LAYERS = {
    "chartab": ("cyclotomic",),
    "mu": ("cyclotomic", "isometry"),
    "check": ("cyclotomic", "isometry"),
    "decompose": ("cyclotomic", "isometry", "pigroup"),
    "enumerate": ("cyclotomic", "isometry", "pigroup"),
    "verify": ("cyclotomic", "isometry", "pigroup"),
}


@pytest.mark.parametrize("argv", PLAIN_CALLS + JSON_CALLS, ids=" ".join)
def test_each_command_loads_only_its_layers(argv):
    # neither the package nor cli imports a layer at module level, and
    # neither parsing nor main's exception handling loads one when nothing
    # is raised: a call loads the layers its command calls, whose import is
    # most of what perfiso adds to a child
    layers = [f"perfiso.{layer}" for layer in COMMAND_LAYERS[argv[0]]]
    found = _fresh(
        f"from perfiso.cli import main\ncode = main({argv!r})\nprint(code, {PERFISO_LOADED})"
    )
    assert found == f"0 {sorted(['perfiso', 'perfiso.cli', *layers])}"


def test_parser_loads_no_layer():
    # what the benchmark's set-up child runs
    found = _fresh(f"import perfiso.cli as c; c.build_parser()\nprint({PERFISO_LOADED})")
    assert found == "['perfiso', 'perfiso.cli']"


def test_mode_choices_are_pigroup_modes():
    # cli holds its own copy of pigroup's modes, so that parsing loads no
    # layer; test_table_parser_agrees_with_argparse covers the table parser
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    for name in REPORT_COMMANDS:
        (mode,) = [action for action in commands.choices[name]._actions if action.dest == "mode"]
        assert (mode.choices, mode.default) == (pigroup.MODES, pigroup.POSITIVE_THEN_NEGATE)


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
        ("pigroup", ("cyclotomic", "isometry")),
        ("cli", ()),
    ),
)
def test_from_perfiso_import_a_module_first(module, loads):
    # `from . import` inside the package's __getattr__ would recurse here
    found = _fresh(f"from perfiso import {module}\nprint({module}.__name__, {PERFISO_LOADED})")
    expected = sorted(["perfiso", *(f"perfiso.{name}" for name in (module, *loads))])
    assert found == f"perfiso.{module} {expected}"


def test_plain_calls_import_no_argparse():
    # argparse, and gettext and locale that its messages load, cost every
    # child about 7 ms
    found = _loaded_after(PLAIN_CALLS + JSON_CALLS, {"argparse", "gettext", "locale"})
    assert found == f"{[0] * 12} []"


def test_calls_import_no_typing():
    # typing (with the re, enum and functools machinery it loads) and
    # __future__ were loaded only for annotations and NamedTuple; without
    # site, nothing else loads them
    found = _loaded_after(PLAIN_CALLS + JSON_CALLS, {"typing", "__future__"})
    assert found == f"{[0] * 12} []"


def test_json_calls_import_no_json():
    # json's modules compile regexes at import, a cost every JSON child
    # would pay; _dumps needs only the C module _json, loaded here so the
    # check is live
    modules = {"json", "json.encoder", "json.decoder", "json.scanner", "_json"}
    assert _loaded_after(JSON_CALLS, modules) == "[0, 0, 0, 0, 0, 0] ['_json']"


def test_text_calls_import_no_json_module():
    modules = {"json", "_json"}
    assert _loaded_after(PLAIN_CALLS, modules) == "[0, 0, 0, 0, 0, 0] []"


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
def test_dumps_is_json_dumps_indent_2(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    (1.5, b"1", {1}, {1: 2}, [0, [1.0]], {"a": {None: 1}}, {"a": (b"",)}),
    ids=repr,
)
def test_dumps_refuses_what_it_does_not_write(value):
    # json.dumps writes floats, and turns the key 1 into "1"; _dumps refuses
    # both rather than differ
    with pytest.raises(TypeError):
        cli._dumps(value)
