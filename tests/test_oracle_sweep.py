"""Every command's output, byte for byte, against expectations that import no perfiso code.

perfbench/oracle.py derives each command's expected output from closed
forms without importing perfiso, and perfbench/workloads.py draws the maps;
both are read from the checkout that holds this file.  The sweep runs, at
each prime up to 101 and in text and JSON, chartab, enumerate and verify,
and mu, check and decompose of an affine map, a random signed map (+0,-1 at
p = 2) and, for p > 3, an affine map with two images swapped; then come the
calls whose stdout was once pinned by sha256 (_pins).

Beyond the oracle, JSON must be exactly json.dumps(..., indent=2) of
_document(op), whose keys come in order and whose scalars have their types
(the oracle compares with ==, which takes True for 1).  Its mu entries are
rendered by oracles.symbolic_str_scan, and a failing check names the first
failing entry in each checker's scan order, where the oracle takes any.
decompose must refuse a map that is not affine with exit 1, no stdout and
the reason on stderr.  The oracle reads text grids with splitlines and check
text as a set of lines, so at each prime the text of chartab, mu and check
must also be its JSON twin laid out, line by line.

The oracle's zeta_name writes zeta as "z" at every p, but at p = 2 zeta is
-1, and chartab rightly prints "-1".  So the sweep's chartab -p 2 is a strict
xfail, which fails the suite once the oracle is mended, until the mark is
removed.  Meanwhile test_cli's two byte literals hold that output.
"""

import dataclasses
import functools
import json
import sys
from pathlib import Path
from random import Random

import pytest

from perfiso.cli import main
from oracles import PRIMES_TO_101, RANDOM_SIGNED, symbolic_str_scan

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)  # workloads imports oracle by its bare name
try:
    import oracle
    from workloads import Op, affine, random_signed, swapped_affine
finally:
    sys.path.remove(PERFBENCH)

ZETA_AT_P2 = pytest.mark.xfail(strict=True, reason="the oracle writes zeta as 'z' at p = 2, where zeta = -1")
FORMATS = ("text", "json")
MODES = ("positive_then_negate", "exhaustive")
MAP_COMMANDS = ("mu", "check", "decompose")
# the sweep's mu of a map that is not affine runs only up to here: its
# expected grid counts p^3 terms, and _pins() has such maps at 23, 53, 101
DENSE_MU_P = 13
STRUCTURAL = ("semidirect_law", "negid_central")
# p -> (perfect affine map k -> 1 + 2k, its negation, a non-perfect map); the
# non-perfect map fails separation at p = 2, has one sign flipped at p = 3,
# where every permutation is affine, and at p >= 5 is the affine map with the
# images of 1 and 2 swapped, which fails integrality
MAPS = {
    2: ("+1,+0", "-1,-0", "+0,-1"),
    3: ("+1,+0,+2", "-1,-0,-2", "+1,+0,-2"),
    5: ("+1,+3,+0,+2,+4", "-1,-3,-0,-2,-4", "+1,+0,+3,+2,+4"),
    7: ("+1,+3,+5,+0,+2,+4,+6", "-1,-3,-5,-0,-2,-4,-6", "+1,+5,+3,+0,+2,+4,+6"),
}


def _sweep():
    for p in PRIMES_TO_101:
        rng = Random(f"sweep:{p}")
        maps = {"affine": affine(rng, p), "signed": random_signed(rng, p) if p > 2 else ((0, 1), (1, -1))}
        if p > 3:
            maps["swapped"] = swapped_affine(rng, p)
        calls = [(command, None) for command in ("chartab", "enumerate", "verify")]
        calls += [(command, kind) for command in MAP_COMMANDS for kind in maps]
        for command, kind in calls:
            if command == "mu" and kind != "affine" and p > DENSE_MU_P:
                continue
            image, signs = maps.get(kind, (None, None))
            for fmt in FORMATS:
                name = f"{command}-{kind}" if kind else command
                marks = ZETA_AT_P2 if (command, p) == ("chartab", 2) else ()
                op = Op(command, p, fmt, image=image, signs=signs)
                yield pytest.param(op, id=f"{name}-p{p}-{fmt}", marks=marks)


def _pinned(command, p, mode=None, literal=None):
    """The text and JSON call of one command whose stdout was once pinned."""
    image = signs = None
    if literal is not None:
        terms = literal.split(",")
        image, signs = tuple(int(t[1:]) for t in terms), tuple(-1 if t[0] == "-" else 1 for t in terms)
    return [Op(command, p, fmt, mode, image, signs) for fmt in FORMATS]


def _scale_maps(p):
    """Affine k -> 1 + 2k, its negation, it with the images of 1 and 2 swapped, a random map."""
    image = [(1 + 2 * k) % p for k in range(p)]
    swapped = list(image)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    return (
        ",".join(f"+{i}" for i in image),
        ",".join(f"-{i}" for i in image),
        ",".join(f"+{i}" for i in swapped),
        RANDOM_SIGNED[p],
    )


def _pins():
    """All six commands at p = 2, 3, 5, 7 in both modes, on MAPS, and calls at 13, 23, 53 and 101."""
    for p in (*MAPS, 13):
        for command in ("enumerate", "verify"):
            for mode in MODES:
                yield from _pinned(command, p, mode)
    for mode in MODES:
        yield from _pinned("verify", 53, mode)
    for command, p in (("enumerate", 53), ("enumerate", 101), ("verify", 101)):
        yield from _pinned(command, p)
    for p in (3, 5, 7, 23, 53, 101):
        yield from _pinned("chartab", p)
    for p, maps in {**MAPS, 23: _scale_maps(23), 53: _scale_maps(53)}.items():
        for command in MAP_COMMANDS:
            for literal in maps:
                yield from _pinned(command, p, literal=literal)
    affine_map, _, _, random_map = maps = _scale_maps(101)
    for command, literals in (("check", maps), ("mu", (affine_map, random_map)), ("decompose", (affine_map,))):
        for literal in literals:
            yield from _pinned(command, 101, literal=literal)


def _cases():
    sweep = list(_sweep())
    made = {tuple(param.values[0].argv()) for param in sweep}
    pins = [op for op in _pins() if tuple(op.argv()) not in made]
    return sweep + [pytest.param(op, id=" ".join(op.argv())) for op in pins]


CASES = _cases()


def _document(op):
    """The JSON document op must print, its keys in order and each scalar of its type."""
    p = op.p
    doc = {"schema": 1, "p": p}
    if op.image is not None:
        doc["map"] = oracle.literal(op.image, op.signs)
    if op.command == "chartab":
        doc["entries"] = [[oracle.zeta_name(a * b % p) for b in range(p)] for a in range(p)]
    elif op.command == "mu":
        doc["entries"] = _mu_grid(op.image, op.signs)
    elif op.command == "check":
        doc.update(_verdicts(op), agree=True)
    elif op.command == "decompose":
        doc.update(zip(("eps", "a", "u"), oracle.affine_coords(op.image, op.signs)))
    else:
        elements = [{"eps": e, "a": a, "u": u} for e in (-1, 1) for a in range(p) for u in range(1, p)]
        checks = dict.fromkeys(oracle.CHECK_KEYS, True)
        if op.command == "enumerate":
            checks.update(dict.fromkeys(STRUCTURAL))
        doc.update(order=2 * p * (p - 1), elements=elements, checks=checks)
    return doc


@functools.lru_cache(maxsize=1)  # a map's JSON call follows its text call
def _mu_grid(image, signs):
    """mu's entries: for k -> eps*(a + u*k), (m, n) is eps*p*zeta^(a*m) where
    u*m + n = 0 (mod p), else 0; any other map's are counted by definition."""
    p = len(image)
    coords = oracle.affine_coords(image, signs)
    if coords is None:
        return [[symbolic_str_scan(_entry(image, signs, m, n)) for n in range(p)] for m in range(p)]
    eps, a, u = coords
    grid = [[symbolic_str_scan((0,) * p)] * p for _ in range(p)]
    for m in range(p):
        counts = [0] * p
        counts[a * m % p] = eps * p
        grid[m][-u * m % p] = symbolic_str_scan(tuple(c - counts[-1] for c in counts))
    return grid


def _entry(image, signs, m, n):
    """Kernel entry (m, n) counted from its definition, each count less the last."""
    counts = oracle.kernel_counts(image, signs, m, n)
    return tuple(c - counts[-1] for c in counts)


def _first_failure(op, scan, separation):
    """The first cell of scan whose entry p does not divide, else of separation whose entry is not 0."""
    cell = next((cell for cell in scan if any(c % op.p for c in _entry(op.image, op.signs, *cell))), None)
    if cell is not None:
        return {"status": "fails_integrality", "witness": list(cell)}
    cell = next(cell for cell in separation if any(_entry(op.image, op.signs, *cell)))
    return {"status": "fails_separation", "witness": list(cell)}


def _verdicts(op):
    """check's verdicts: on a map that is not perfect the verdict reads rows, separation too;
    the cross-check reads columns 0, -1, -2, ... each top to bottom, and separation on column 0."""
    if oracle.affine_coords(op.image, op.signs) is not None:
        return dict.fromkeys(("verdict", "cross_check"), {"status": "perfect", "witness": None})
    p = op.p
    rows = [(m, n) for m in range(p) for n in range(p)]
    columns = [(m, -j % p) for j in range(p) for m in range(p)]
    return {
        "verdict": _first_failure(op, rows, [(m, n) for m, n in rows if (m == 0) != (n == 0)]),
        "cross_check": _first_failure(op, columns, [(m, 0) for m in range(1, p)]),
    }


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


@pytest.mark.parametrize("op", CASES)
def test_command_output_matches_the_oracle(capsys, op):
    code = main(op.argv())
    out, err = capsys.readouterr()
    if op.command == "decompose" and oracle.affine_coords(op.image, op.signs) is None:
        reason = "mixed sign profile" if len(set(op.signs)) > 1 else "not an affine map"
        assert (code, out, err) == (1, "", f"error: {reason}: {oracle.literal(op.image, op.signs)}\n")
        return
    assert err == ""
    if op.command == "mu":  # the oracle reads mu of an affine map only
        assert code == 0
    else:
        assert oracle.failure(op, code, out) is None
    if op.fmt == "json":
        assert out == json.dumps(_document(op), indent=2) + "\n"
    elif op.command == "mu":
        assert out == _laid_out("mu", _document(op))


@pytest.mark.parametrize("p", PRIMES_TO_101, ids="p{}".format)
def test_text_is_its_json_twin_laid_out(capsys, p):
    ops = [param.values[0] for param in CASES]
    ops = [op for op in ops if op.p == p and op.fmt == "json" and op.command in ("chartab", "mu", "check")]
    for op in ops:
        code = main(op.argv())
        doc = json.loads(capsys.readouterr().out)
        text_code = main(dataclasses.replace(op, fmt="text").argv())
        assert (text_code, *capsys.readouterr()) == (code, _laid_out(op.command, doc), "")
