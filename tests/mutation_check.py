"""Check that the tests catch each of a fixed list of one-line mutations.

Usage: python tests/mutation_check.py

The script copies src/, tests/ and perfbench/, with README.md and
pyproject.toml, which the tests read, into a temporary directory.  Each
entry of MUTATIONS names a source file, one of its lines (compared with the
indentation stripped), the line's replacement and the test files that must
catch it.  Where a line occurs more than once, the entry names it with the
line that follows it, joined by a newline, and its replacement has as many
lines.  First every entry's lines must occur exactly once in their file;
if they do not, the script exits 2 before it runs any test, so an entry
whose line was edited away fails loudly.  Then the named test files must
pass on the unmutated copy.  Then, one entry at a time, the script
replaces the line, runs

    python -m pytest -q -x -p no:cacheprovider <test files>

on the copy, requires a test failure (pytest's exit code 1), and restores
the file.  Each run is stopped after TIMEOUT seconds (120): a mutant that
makes the code loop for ever is reported as "ERROR (timed out)" and counted
as not caught.  It exits 1 if a mutation survives or a run errors or times
out, else 0.  A surviving mutation that changes behaviour is a missing test.

Only the standard library is imported here; the runs need pytest and
hypothesis, as tier-1 does.  pytest does not collect this file (its name
does not start with test_), so it is not part of tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
TIMEOUT = 120  # seconds per pytest run

# (source file, line, replacement, test files that must catch it)
MUTATIONS = (
    # the search's cut keeps a prefix whose maps are all injective or constant;
    # without the "constant" half it cuts the identity's own prefix
    (
        "src/perfiso/pigroup.py",
        "if size != 1 and size != d + 1:",
        "if size != d + 1:",
        ("tests/test_pigroup.py",),
    ),
    # the cross-check's witness row m goes with the shift c = -1/m, not 1/m
    (
        "src/perfiso/isometry.py",
        "c = -pow(m, -1, p)",
        "c = pow(m, -1, p)",
        ("tests/test_isometry.py",),
    ),
    # the exactness bound p on every counted and derived kernel entry: a
    # derived coefficient of exactly p + 1 must still be refused
    (
        "src/perfiso/isometry.py",
        "c, bound = entry.coeffs, entry.p",
        "c, bound = entry.coeffs, entry.p + 1",
        ("tests/test_isometry.py", "tests/test_cli.py"),
    ),
    # sigma_m reads position j of an image from coefficient j/m, not j*m
    (
        "src/perfiso/cyclotomic.py",
        "inv = pow(m, -1, p)",
        "inv = m",
        ("tests/test_cyclotomic.py", "tests/test_isometry.py"),
    ),
    # the normal form subtracts the last coefficient from every entry
    (
        "src/perfiso/cyclotomic.py",
        "return tuple([x - last for x in coeffs] if last else coeffs)",
        "return tuple([x + last for x in coeffs] if last else coeffs)",
        ("tests/test_cyclotomic.py",),
    ),
    # an element equals an int only when it has no coefficient past the constant
    (
        "src/perfiso/cyclotomic.py",
        "return self._coeffs[0] == other and not any(self._coeffs[1:])",
        "return self._coeffs[0] == other",
        ("tests/test_cyclotomic.py",),
    ),
    # trial division must reach d * d == n, or the square of a prime passes
    (
        "src/perfiso/__init__.py",
        "while d * d <= n:",
        "while d * d < n:",
        ("tests/test_cyclotomic.py",),
    ),
    # 1 is not prime
    (
        "src/perfiso/__init__.py",
        "return n > 1",
        "return n > 0",
        ("tests/test_cyclotomic.py",),
    ),
    # a separate value that starts with "-" goes to argparse, not the plain parser
    (
        "src/perfiso/cli.py",
        'if value is None or value[:1] == "-":',
        "if value is None:",
        ("tests/test_cli.py",),
    ),
    # an int option's value is ASCII: int() alone also reads "\u0663" and "\uff13"
    (
        "src/perfiso/cli.py",
        "if not (digits.isascii() and digits.isdigit()) or len(significant) > 640:",
        "if not digits.isdigit() or len(significant) > 640:",
        ("tests/test_cli.py",),
    ),
    # an int option takes at most 640 digits, leading zeros stripped, so its
    # value means the same under every int-string limit
    (
        "src/perfiso/cli.py",
        "if not (digits.isascii() and digits.isdigit()) or len(significant) > 640:",
        "if not (digits.isascii() and digits.isdigit()) or False:",
        ("tests/test_cli.py",),
    ),
    # a joined "--" value goes to argparse as a token of its own
    (
        "src/perfiso/cli.py",
        'if value == "--" and (flag == "-p" or flag[:2] == "--" and flag != "--"):',
        "if False:",
        ("tests/test_cli.py",),
    ),
    # only "-p" and long flags lose a joined "--": "-h=--" stays whole, a usage error
    (
        "src/perfiso/cli.py",
        'if value == "--" and (flag == "-p" or flag[:2] == "--" and flag != "--"):',
        'if value == "--" and (flag == "-p" or flag[:2] == "--" or flag != "--"):',
        ("tests/test_cli.py",),
    ),
    # a required option is two parts of the usage line, which wraps between them
    (
        "src/perfiso/cli.py",
        'parts += [f"[{flag} {metavar}]"] if default is not None else [flag, metavar]',
        'parts += [f"[{flag} {metavar}]"] if default is not None else [f"{flag} {metavar}"]',
        ("tests/test_cli.py",),
    ),
    # the indicator of g^j reads j mod p, as character reads its index
    (
        "src/perfiso/characters.py",
        "values[j % p] = CycInt.one(p)",
        "values[j] = CycInt.one(p)",
        ("tests/test_characters.py",),
    ),
    # recompose refuses u = 0 with its own message, before SignedIsometry sees a non-permutation
    (
        "src/perfiso/pigroup.py",
        "if not 0 < u < p:",
        "if not 0 <= u < p:",
        ("tests/test_pigroup.py",),
    ),
    # negation is the eps = -1 coordinate of the identity; eps = 1 builds the identity
    (
        "src/perfiso/pigroup.py",
        "return recompose(p, AffineCoords(-1, 0, 1))",
        "return recompose(p, AffineCoords(1, 0, 1))",
        ("tests/test_pigroup.py",),
    ),
    # the search tests every placed value against all p - 1 units c; the c = -1
    # cut alone decides every value, so a dropped c shows only in the mask count
    (
        "src/perfiso/pigroup.py",
        "level = [((), [0] * (p - 1), 0)]",
        "level = [((), [0] * (p - 2), 0)]",
        ("tests/test_pigroup.py",),
    ),
    (
        "src/perfiso/pigroup.py",
        "steps = [c * d % p for c in (-1, *range(1, p - 1))]",
        "steps = [c * d % p for c in (-1, *range(1, p - 2))]",
        ("tests/test_pigroup.py",),
    ),
    # the first read of a layer's name gets the name, once _export has bound it
    (
        "src/perfiso/__init__.py",
        "return globals()[name]",
        "pass",
        ("tests/test_cli.py",),
    ),
    # a repeated option goes to argparse, which also judges the first value
    (
        "src/perfiso/cli.py",
        "if name in values:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    # usage= is the table's line; with None argparse wraps at the terminal width
    (
        "src/perfiso/cli.py",
        'return "\\n".join([*lines, line]).removeprefix("usage: ")',
        "return None",
        ("tests/test_cli.py",),
    ),
    # a stream that refuses output is closed from then on, under any buffering:
    # nothing flushes the refused text again, and the exit code is the command's
    (
        "src/perfiso/cli.py",
        "setattr(sys, name, None)",
        "pass",
        ("tests/test_cli.py",),
    ),
    # a closed pipe keeps the command's code; any other refused stdout exits 3
    (
        "src/perfiso/cli.py",
        'if name == "stdout" and not isinstance(exc, BrokenPipeError):',
        'if name == "stdout" and isinstance(exc, BrokenPipeError):',
        ("tests/test_cli.py",),
    ),
    # argparse's exit, after help or a usage error, ends through _end
    (
        "src/perfiso/cli.py",
        "code = _end(exc.code)",
        "pass",
        ("tests/test_cli.py",),
    ),
    # argparse's help reaches its descriptor only in _end's flush, also under
    # PYTHONUNBUFFERED, so _end sees a stdout that refuses it
    (
        "src/perfiso/cli.py",
        "getattr(sys, name).reconfigure(line_buffering=False, write_through=False)",
        "pass",
        ("tests/test_cli.py",),
    ),
    # a stream closed at start-up is a sink: argparse writes no usage to stdout
    (
        "src/perfiso/cli.py",
        'setattr(sys, name, getattr(sys, name) or open(os.devnull, "w"))',
        "pass",
        ("tests/test_cli.py",),
    ),
    # json.encoder has the same C escaper, so the output is unchanged, but
    # importing it loads json's modules in every JSON child
    (
        "src/perfiso/cli.py",
        "from _json import encode_basestring_ascii as quote  # only here: text runs do not pay for it",
        "from json.encoder import encode_basestring_ascii as quote",
        ("tests/test_cli.py",),
    ),
    # each constructor checks p itself: four coefficients fit p = 4
    (
        "src/perfiso/cyclotomic.py",
        "p = require_prime(p)\nc = [_as_int(x) for x in coeffs]",
        "pass\nc = [_as_int(x) for x in coeffs]",
        ("tests/test_cyclotomic.py",),
    ),
    # a p <= 0 would make an empty table
    (
        "src/perfiso/characters.py",
        "p = require_prime(p)\npowers = [zeta_pow(p, k) for k in range(p)]",
        "pass\npowers = [zeta_pow(p, k) for k in range(p)]",
        ("tests/test_characters.py",),
    ),
    # p is checked before u is read mod p, which would divide by p = 0
    (
        "src/perfiso/pigroup.py",
        "p = require_prime(p)\nreturn recompose(p, AffineCoords(1, 0, u % p))",
        "pass\nreturn recompose(p, AffineCoords(1, 0, u % p))",
        ("tests/test_pigroup.py",),
    ),
    # eps is a sign; SignedIsometry would word a bad one differently
    (
        "src/perfiso/pigroup.py",
        "if eps not in (1, -1):",
        "if False:",
        ("tests/test_pigroup.py",),
    ),
    # JSON key order and mu's entry text: the oracle sweep alone compares each
    # object's keys in order, and each mu entry with its count, rendered
    (
        "src/perfiso/cli.py",
        'return True, {"map": iso.as_literal(), "entries": grid}, map(" ".join, grid)',
        'return True, {"entries": grid, "map": iso.as_literal()}, map(" ".join, grid)',
        ("tests/test_oracle_sweep.py",),
    ),
    (
        "src/perfiso/cli.py",
        'return {"eps": c[0], "a": c[1], "u": c[2]}',
        'return {"a": c[1], "eps": c[0], "u": c[2]}',
        ("tests/test_oracle_sweep.py",),
    ),
    (
        "src/perfiso/cli.py",
        "texts[n] = symbolic_str(entry)",
        'texts[n] = symbolic_str(entry).replace("z^", "z^0")',
        ("tests/test_oracle_sweep.py",),
    ),
    (
        "src/perfiso/cli.py",
        '"verdict": {"status": direct.status, "witness": direct.witness},',
        '"verdict": {"witness": direct.witness, "status": direct.status},',
        ("tests/test_oracle_sweep.py",),
    ),
    # is_perfect's witness is (row, column): the sweep's split-scaling maps are
    # the ones whose first failing entry lies off the diagonal
    (
        "src/perfiso/isometry.py",
        "return Verdict(FAILS_INTEGRALITY, (m, n))",
        "return Verdict(FAILS_INTEGRALITY, (n, m))",
        ("tests/test_oracle_sweep.py",),
    ),
)


def _find(text: str, line: str) -> list[int]:
    """The indices at which the lines of text equal the lines of line, in
    order, indentation stripped."""
    wanted = line.split("\n")
    found = [source.strip() for source in text.splitlines()]
    return [i for i in range(len(found)) if found[i : i + len(wanted)] == wanted]


def _mutate(text: str, line: str, replacement: str) -> str:
    lines = text.splitlines(keepends=True)
    (start,) = _find(text, line)
    for i, new in enumerate(replacement.split("\n"), start):
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        lines[i] = indent + new + "\n"
    return "".join(lines)


def _pytest(copy: Path, files: tuple) -> tuple[int | None, float]:
    """pytest's exit code on files in the copy, None if it timed out, and the seconds taken."""
    path = os.pathsep.join(filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH"))))
    env = {
        **os.environ,
        "PYTHONPATH": path,
        "PYTHONDONTWRITEBYTECODE": "1",  # a restored file must not meet a stale .pyc
    }
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *files],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def _outcome(code: int | None) -> str:
    return "timed out" if code is None else f"pytest exit {code}"


def main() -> int:
    missing = []
    for path, line, _, _ in MUTATIONS:
        found = len(_find((ROOT / path).read_text(), line))
        if found != 1:
            missing.append(f"{path}: {line!r} occurs {found} times, expected once")
    if missing:
        print("mutation_check: stale entries\n" + "\n".join(missing), file=sys.stderr)
        return 2

    failed = 0
    with tempfile.TemporaryDirectory(prefix="perfiso-mutation-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)

        files = tuple(dict.fromkeys(f for *_, tests in MUTATIONS for f in tests))
        code, seconds = _pytest(copy, files)
        print(f"unmutated  {_outcome(code)}  {seconds:5.1f} s  {' '.join(files)}")
        if code != 0:
            print("mutation_check: the tests fail without a mutation", file=sys.stderr)
            return 1

        for path, line, replacement, tests in MUTATIONS:
            target = copy / path
            original = target.read_text()
            target.write_text(_mutate(original, line, replacement))
            try:
                code, seconds = _pytest(copy, tests)
            finally:
                target.write_text(original)
            verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR ({_outcome(code)})")
            failed += code != 1
            print(f"{verdict:<8}  {seconds:5.1f} s  {path}: {line!r} -> {replacement!r}")

    print(f"{len(MUTATIONS) - failed} of {len(MUTATIONS)} mutations caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
