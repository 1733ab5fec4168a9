"""Every command at every prime up to MAX_P, against the benchmark's oracle.

perfbench/oracle.py derives each command's expected output from closed
forms, and recounts a failing check's witness from the kernel's definition,
without importing perfiso; perfbench/workloads.py draws the maps.  Both are
read from the checkout that holds this file, also when the suite runs from
another directory.

At each prime, in text and JSON: chartab, enumerate and verify; mu, check
and decompose of an affine map; check of a random signed map (+0,-1 at
p = 2); and, for p > 3, check of an affine map with two images swapped.

The oracle's zeta_name writes zeta as "z" at every p, but at p = 2 zeta is
-1, and chartab rightly prints "-1" (test_cli's test_chartab_p2_text).  So
chartab -p 2 is a strict xfail: once the oracle is mended it passes, which
fails the suite until the mark is removed.

The oracle reads chartab and mu text with splitlines, and check text as a
set of lines, so it would accept a missing final newline or lines out of
order.  At each prime the text of those calls must therefore also be their
JSON twin's lines, in order, each ending in a newline.
"""

import dataclasses
import json
import sys
from pathlib import Path
from random import Random

import pytest

from perfiso import is_prime
from perfiso.cli import MAX_P, main

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)  # workloads imports oracle by its bare name
try:
    import oracle
    from workloads import Op, affine, random_signed, swapped_affine
finally:
    sys.path.remove(PERFBENCH)

PRIMES = [p for p in range(2, MAX_P + 1) if is_prime(p)]
ZETA_AT_P2 = pytest.mark.xfail(strict=True, reason="the oracle writes zeta as 'z' at p = 2, where zeta = -1")


def _param(op, kind=None, marks=()):
    name = f"{op.command}-{kind}" if kind else op.command
    return pytest.param(op, id=f"{name}-p{op.p}-{op.fmt}", marks=marks)


def _sweep():
    for p in PRIMES:
        rng = Random(f"sweep:{p}")
        maps = {"affine": affine(rng, p), "signed": random_signed(rng, p) if p > 2 else ((0, 1), (1, -1))}
        if p > 3:
            maps["swapped"] = swapped_affine(rng, p)
        for fmt in ("text", "json"):
            yield _param(Op("chartab", p, fmt), marks=ZETA_AT_P2 if p == 2 else ())
            yield from (_param(Op(command, p, fmt)) for command in ("enumerate", "verify"))
            calls = [(command, "affine") for command in ("mu", "check", "decompose")]
            calls += [("check", kind) for kind in ("signed", "swapped") if kind in maps]
            for command, kind in calls:
                image, signs = maps[kind]
                yield _param(Op(command, p, fmt, image=image, signs=signs), kind)


@pytest.mark.parametrize("op", _sweep())
def test_command_output_matches_the_oracle(capsys, op):
    code = main(op.argv())
    out, err = capsys.readouterr()
    assert (oracle.failure(op, code, out), err) == (None, "")


def _laid_out(command, doc):
    """The text twin of a JSON document: grid rows joined by spaces, or check's lines in order."""
    if command != "check":
        return "".join(" ".join(row) + "\n" for row in doc["entries"])
    lines = []
    for key, witness_key in (("verdict", "witness"), ("cross_check", "cross_check_witness")):
        lines.append(f"{key}: {doc[key]['status']}\n")
        if doc[key]["witness"] is not None:
            lines.append(f"{witness_key}: ({doc[key]['witness'][0]}, {doc[key]['witness'][1]})\n")
    return "".join(lines)


@pytest.mark.parametrize("p", PRIMES, ids="p{}".format)
def test_text_is_its_json_twin_laid_out(capsys, p):
    ops = [param.values[0] for param in _sweep()]
    ops = [op for op in ops if op.p == p and op.fmt == "json" and op.command in ("chartab", "mu", "check")]
    for op in ops:
        code = main(op.argv())
        doc = json.loads(capsys.readouterr().out)
        text_code = main(dataclasses.replace(op, fmt="text").argv())
        assert (text_code, *capsys.readouterr()) == (code, _laid_out(op.command, doc), "")


def _counted(image, signs, m, n):
    """Kernel entry (m, n) in the normal form parse_entry gives: each count less the last."""
    counts = oracle.kernel_counts(image, signs, m, n)
    return tuple(c - counts[-1] for c in counts)


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("p", (5, 7, 11))
def test_dense_mu_is_the_kernel_counted_from_its_definition(capsys, p, fmt):
    # every entry of a random signed map's kernel is read back and compared
    # with the oracle's own count; no perfiso code makes the expected grid
    image, signs = random_signed(Random(f"dense:{p}"), p)
    code = main(Op("mu", p, fmt, image=image, signs=signs).argv())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    grid = json.loads(out)["entries"] if fmt == "json" else [line.split(" ") for line in out.splitlines()]
    expected = [[_counted(image, signs, m, n) for n in range(p)] for m in range(p)]
    assert [[oracle.parse_entry(entry, p) for entry in row] for row in grid] == expected
