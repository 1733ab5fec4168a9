"""Smoke test of the benchmark itself at p = 3, one case per workload.

Every operation must pass the oracle as produced, and fail it once its
output is tampered with: a chartab or mu line replaced, a verdict or a check
flipped, a coordinate changed, an exit code flipped. The tampered copies
count toward the error rate exactly as a wrong program output would.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

import oracle
from workloads import EXHAUSTIVE, POSITIVE, Op, affine, random_signed, swapped_affine


def _ops(rng: random.Random) -> dict[str, list[Op]]:
    reports = [
        Op(cmd, 3, fmt, mode=mode)
        for cmd in ("enumerate", "verify")
        for mode in (EXHAUSTIVE, POSITIVE)
        for fmt in ("text", "json")
    ]
    maps = []
    for fmt in ("text", "json"):
        maps.append(Op("chartab", 3, fmt))
        for command, pair in (
            ("mu", affine(rng, 3)),
            ("check", affine(rng, 3, eps=1)),
            ("check", affine(rng, 3, eps=-1)),
            ("check", random_signed(rng, 3)),
            ("check", swapped_affine(rng, 3)),
            ("decompose", affine(rng, 3)),
        ):
            maps.append(Op(command, 3, fmt, image=pair[0], signs=pair[1]))
    return {
        "classify": reports,
        "certify": maps,
        "scripted": maps[::2] + reports[::2],
    }


def _swap_first(text: str, pairs: list[tuple[str, str]]) -> str:
    for old, new in pairs:
        if re.search(old, text):
            return re.sub(old, new, text, count=1)
    raise AssertionError(f"nothing to tamper with in {text!r}")


def tamper(op: Op, code: int, out: str) -> list[tuple[int, str]]:
    """Wrong variants of a correct output, as (exit code, stdout) pairs."""
    lines = out.splitlines(keepends=True)
    variants = [(1 - code if code in (0, 1) else 0, out)]
    if op.command in ("chartab", "mu"):
        if op.fmt == "text":
            altered = "".join(lines[:-1] + [lines[0]])
        else:
            altered = _swap_first(out, [(r'"z"', '"z^2"'), (r'"3"', '"0"'), (r'"0"', '"3"')])
        variants.append((code, altered))
    elif op.command == "check":
        flips = [("fails_integrality", "fails_separation"), ("fails_separation", "fails_integrality"), ("perfect", "fails_separation")]
        variants.append((code, _swap_first(out, flips)))
    elif op.command == "decompose":
        variants.append((code, _swap_first(out, [(r"a=\d", "a=9"), (r'"a": \d', '"a": 9')])))
    else:
        variants.append((code, _swap_first(out, [(r": pass", ": FAIL"), (r": true", ": false")])))
    return variants


def main(run_op) -> int:
    """``run_op(op)`` runs one op and returns a result whose ``error`` is the
    oracle's finding; tampered copies get their ``error`` the same way."""
    ok = True
    for workload, ops in _ops(random.Random(0)).items():
        results = [run_op(op) for op in ops]
        for res in results:
            if res.error:
                ok = False
                print(f"{workload}: untampered {res.op.argv()} failed: {res.error}")
        tampered = [
            replace(res, code=code, stdout=out, error=oracle.failure(res.op, code, out))
            for res in results
            for code, out in tamper(res.op, res.code, res.stdout)
        ]
        for res in tampered:
            if not res.error:
                ok = False
                print(f"{workload}: oracle accepted a tampered output of {res.op.argv()}")
        runs = results + tampered
        failed = sum(1 for r in runs if r.error)
        ok = ok and failed == len(tampered)
        print(
            f"{workload}: {len(ops)} ops at p=3, {len(tampered)} tampered copies, "
            f"error_rate {failed}/{len(runs)} = {failed / len(runs):.3f}"
        )
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
