"""Expected outputs of perfiso commands, derived without importing perfiso.

Each check works only from the integers the benchmark generated (the prime,
the image permutation and the signs) and from closed forms:

  * chartab entry (a, b) renders as zeta^(a*b mod p): "1", "z" or "z^k";
  * the kernel of the affine map k -> eps*(a + u*k) has entry (m, n) equal
    to eps*p*zeta^(a*m) when u*m + n = 0 (mod p) and 0 otherwise;
  * a map is perfect exactly when its signs agree and its image is affine;
  * enumerate/verify report the 2p(p-1) affine coordinates, sorted, with
    every check passing.

A failing check's witness is confirmed by recounting that one kernel entry
from the definition: entry (m, n) is the sum over k of
sign[k] * zeta^(image[k]*m + k*n).
"""

from __future__ import annotations

import json
import re

CHECK_KEYS = (
    "homogeneous_sign",
    "affine_completeness",
    "semidirect_law",
    "negid_central",
    "order_formula",
)
FAILING = ("fails_integrality", "fails_separation")

_TERM = re.compile(r"(?:(-?\d+)\*|(-?))z(?:\^(\d+))?")
_INT = re.compile(r"-?\d+")
_CHECK_LINE = re.compile(r"(verdict|witness|cross_check|cross_check_witness): (.*)")
_PAIR = re.compile(r"\((\d+), (\d+)\)")


def literal(image: tuple[int, ...], signs: tuple[int, ...]) -> str:
    return ",".join(f"{'+' if s > 0 else '-'}{i}" for i, s in zip(image, signs))


def affine_coords(image, signs) -> tuple[int, int, int] | None:
    """(eps, a, u) when the map is k -> eps*(a + u*k) mod p, else None."""
    p = len(image)
    if any(s != signs[0] for s in signs):
        return None
    a, u = image[0], (image[1] - image[0]) % p
    if any(image[k] != (a + u * k) % p for k in range(p)):
        return None
    return signs[0], a, u


def zeta_name(k: int) -> str:
    return "1" if k == 0 else ("z" if k == 1 else f"z^{k}")


def _normalized(vec: list[int]) -> tuple[int, ...]:
    last = vec[-1]
    return tuple(c - last for c in vec)


def parse_entry(text: str, p: int) -> tuple[int, ...]:
    """Normalized coefficient vector of one rendered ring element."""
    vec = [0] * p
    if text.startswith("(") and text.endswith(")"):
        vec = [int(c) for c in text[1:-1].split(",")]
        if len(vec) != p:
            raise ValueError(f"entry {text!r} has {len(vec)} coefficients")
    elif _INT.fullmatch(text):
        vec[0] = int(text)
    else:
        m = _TERM.fullmatch(text)
        if not m:
            raise ValueError(f"unreadable entry {text!r}")
        k = int(m[3]) if m[3] else 1
        if k >= p:
            raise ValueError(f"exponent out of range in {text!r}")
        vec[k] = int(m[1]) if m[1] else (-1 if m[2] else 1)
    return _normalized(vec)


def kernel_counts(image, signs, m: int, n: int) -> list[int]:
    """Coefficients of kernel entry (m, n) before normalization."""
    p = len(image)
    counts = [0] * p
    for k in range(p):
        counts[(image[k] * m + k * n) % p] += signs[k]
    return counts


def _grid(op, code: int, out: str) -> list[list[str]]:
    if code != 0:
        raise ValueError(f"exit code {code}, expected 0")
    if op.fmt == "json":
        doc = json.loads(out)
        head = {"schema": 1, "p": op.p}
        if op.image is not None:
            head["map"] = literal(op.image, op.signs)
        if {k: doc.get(k) for k in head} != head or set(doc) != {*head, "entries"}:
            raise ValueError("json header mismatch")
        grid = doc["entries"]
    else:
        grid = [line.split(" ") for line in out.splitlines()]
    if len(grid) != op.p or any(len(row) != op.p for row in grid):
        raise ValueError("grid is not p x p")
    return grid


def _check_chartab(op, code, out) -> None:
    grid = _grid(op, code, out)
    p = op.p
    for a in range(p):
        for b in range(p):
            if grid[a][b] != zeta_name(a * b % p):
                raise ValueError(f"entry ({a}, {b}) is {grid[a][b]!r}")


def _check_mu(op, code, out) -> None:
    coords = affine_coords(op.image, op.signs)
    if coords is None:
        raise ValueError("mu expectations need an affine map")
    eps, a, u = coords
    grid = _grid(op, code, out)
    p = op.p
    zero = (0,) * p
    for m in range(p):
        for n in range(p):
            want = zero
            if (u * m + n) % p == 0:
                vec = [0] * p
                vec[a * m % p] = eps * p
                want = _normalized(vec)
            if parse_entry(grid[m][n], p) != want:
                raise ValueError(f"entry ({m}, {n}) is {grid[m][n]!r}")


def _confirm_witness(op, status: str, witness) -> None:
    p = op.p
    if witness is None or len(witness) != 2 or not all(0 <= w < p for w in witness):
        raise ValueError(f"bad witness {witness!r} for {status}")
    m, n = witness
    counts = kernel_counts(op.image, op.signs, m, n)
    if status == "fails_integrality":
        ok = any((c - counts[-1]) % p for c in counts)
    else:
        ok = any(c != counts[-1] for c in counts) and ((m == 0) != (n == 0))
    if not ok:
        raise ValueError(f"witness ({m}, {n}) does not {status.replace('_', ' ')}")


def _check_check(op, code, out) -> None:
    if op.fmt == "json":
        doc = json.loads(out)
        head = {"schema": 1, "p": op.p, "map": literal(op.image, op.signs), "agree": True}
        if {k: doc.get(k) for k in head} != head:
            raise ValueError("json header mismatch")
        verdicts = [
            (doc["verdict"]["status"], doc["verdict"]["witness"]),
            (doc["cross_check"]["status"], doc["cross_check"]["witness"]),
        ]
    else:
        fields = {}
        for line in out.splitlines():
            m = _CHECK_LINE.fullmatch(line)
            if not m or m[1] in fields:
                raise ValueError(f"unexpected line {line!r}")
            fields[m[1]] = m[2]
        verdicts = []
        for key in ("verdict", "cross_check"):
            w = fields.get(key + "_witness" if key == "cross_check" else "witness")
            pair = _PAIR.fullmatch(w) if w is not None else None
            if w is not None and not pair:
                raise ValueError(f"unreadable witness {w!r}")
            verdicts.append((fields.get(key), [int(pair[1]), int(pair[2])] if pair else None))
    perfect = affine_coords(op.image, op.signs) is not None
    if code != (0 if perfect else 1):
        raise ValueError(f"exit code {code} for a {'perfect' if perfect else 'non-perfect'} map")
    statuses = {v[0] for v in verdicts}
    if perfect:
        if verdicts != [("perfect", None), ("perfect", None)]:
            raise ValueError(f"perfect map reported as {verdicts!r}")
        return
    if len(statuses) != 1 or not statuses <= set(FAILING):
        raise ValueError(f"non-perfect map reported as {verdicts!r}")
    for status, witness in verdicts:
        _confirm_witness(op, status, witness)


def _check_decompose(op, code, out) -> None:
    if code != 0:
        raise ValueError(f"exit code {code}, expected 0")
    coords = affine_coords(op.image, op.signs)
    if coords is None:
        raise ValueError("decompose expectations need an affine map")
    eps, a, u = coords
    if op.fmt == "json":
        want = {"schema": 1, "p": op.p, "map": literal(op.image, op.signs), "eps": eps, "a": a, "u": u}
        ok = json.loads(out) == want
    else:
        ok = out == f"({'+' if eps > 0 else '-'}1, a={a}, u={u})\n"
    if not ok:
        raise ValueError(f"expected coordinates ({eps}, {a}, {u})")


def _check_report(op, code, out) -> None:
    if code != 0:
        raise ValueError(f"exit code {code}, expected 0")
    p = op.p
    elements = [(e, a, u) for e in (-1, 1) for a in range(p) for u in range(1, p)]
    structural = op.command == "verify"
    checks = {key: True for key in CHECK_KEYS}
    if not structural:
        checks["semidirect_law"] = checks["negid_central"] = None
    if op.fmt == "json":
        want = {
            "schema": 1,
            "p": p,
            "order": 2 * p * (p - 1),
            "elements": [{"eps": e, "a": a, "u": u} for e, a, u in elements],
            "checks": checks,
        }
        ok = json.loads(out) == want
    else:
        lines = [f"p: {p}", f"order: {2 * p * (p - 1)}", "elements:"]
        lines += [f"  ({'+' if e > 0 else '-'}1, a={a}, u={u})" for e, a, u in elements]
        lines.append("checks:")
        lines += [f"  {k}: {'not_checked' if v is None else 'pass'}" for k, v in checks.items()]
        ok = out == "\n".join(lines) + "\n"
    if not ok:
        raise ValueError(f"{op.command} report differs from the affine group of order {2 * p * (p - 1)}")


_CHECKERS = {
    "chartab": _check_chartab,
    "mu": _check_mu,
    "check": _check_check,
    "decompose": _check_decompose,
    "enumerate": _check_report,
    "verify": _check_report,
}


def failure(op, code: int, out: str) -> str | None:
    """Why the output of ``op`` is wrong, or None when it is as expected."""
    try:
        _CHECKERS[op.command](op, code, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
