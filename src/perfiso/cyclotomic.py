"""Exact arithmetic in the ring of integers extended by a prime-order root of unity.

An element of Z[zeta], with zeta a primitive p-th root of unity and p prime,
is held as a length-p integer coefficient vector over the powers
1, zeta, ..., zeta^(p-1).  The single relation 1 + zeta + ... + zeta^(p-1) = 0
lets every vector be normalized so its last entry is zero, which makes the
representation unique: two elements are equal exactly when their normalized
vectors match.  Everything here is plain integer arithmetic; no floating
point enters this module.

isometry builds its kernel rows through two private primitives: _zeta_sums
counts an entry from its terms, and _galois_images maps the nonzero entries
of one row under one Galois automorphism.  Neither keeps state between
calls.
"""

from operator import index as _as_int, itemgetter

from . import require_prime

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence

__all__ = [
    "CycInt",
    "zeta_pow",
    "symbolic_str",
]


def _normal(coeffs: "Sequence[int]") -> "tuple[int, ...]":
    """The normal form of a coefficient vector: its last entry subtracted from each."""
    last = coeffs[-1]
    return tuple([x - last for x in coeffs] if last else coeffs)


class CycInt:
    """An element of Z[zeta] in normalized coefficient form (last entry zero)."""

    __slots__ = ("_p", "_coeffs")

    def __init__(self, p: int, coeffs: "Iterable[int]") -> None:
        p = require_prime(p)
        c = [_as_int(x) for x in coeffs]
        if len(c) != p:
            raise ValueError(f"expected {p} coefficients, got {len(c)}")
        self._p = p
        self._coeffs = _normal(c)

    @classmethod
    def _trusted(cls, p: int, coeffs: "Sequence[int]") -> "CycInt":
        """Build from p ints of a valid prime p, skipping validation.

        Only for ints built here from valid elements or a checked p; the
        result is still put in normal form.
        """
        x = object.__new__(cls)
        x._p = p
        x._coeffs = _normal(coeffs)
        return x

    @property
    def p(self) -> int:
        return self._p

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        p = require_prime(p)
        return cls._trusted(p, [_as_int(n)] + [0] * (p - 1))

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls.from_int(p, 0)

    @classmethod
    def one(cls, p: int) -> "CycInt":
        return cls.from_int(p, 1)

    def _coerce(self, other: object) -> "CycInt | None":
        if isinstance(other, CycInt):
            if other._p != self._p:
                raise ValueError(
                    f"mismatched root orders: p={self._p} vs p={other._p}"
                )
            return other
        if isinstance(other, int):
            return CycInt.from_int(self._p, other)
        return None

    def __add__(self, other: "int | CycInt") -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt._trusted(self._p, [a + b for a, b in zip(self._coeffs, o._coeffs)])

    __radd__ = __add__

    def __sub__(self, other: "int | CycInt") -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt._trusted(self._p, [a - b for a, b in zip(self._coeffs, o._coeffs)])

    def __rsub__(self, other: "int | CycInt") -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "CycInt":
        return CycInt._trusted(self._p, [-a for a in self._coeffs])

    def __mul__(self, other: "int | CycInt") -> "CycInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self._p
        out = [0] * p
        for i, xi in enumerate(self._coeffs):
            if not xi:
                continue
            for j, yj in enumerate(o._coeffs):
                if yj:
                    out[(i + j) % p] += xi * yj
        return CycInt._trusted(p, out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycInt):
            return self._p == other._p and self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs[0] == other and not any(self._coeffs[1:])
        return NotImplemented

    def __hash__(self) -> int:
        # an integer element equals its int, so it hashes like it
        c = self._coeffs
        return hash(c[0]) if not any(c[1:]) else hash((self._p, c))

    def __bool__(self) -> bool:
        return any(self._coeffs)

    def divide_exact_by_p(self) -> "CycInt | None":
        """Quotient by p when this element lies in p*O, else None.

        In normalized form, membership in p*O is exactly coefficientwise
        divisibility by p; all entries congruent mod p forces them all
        congruent to the (zero) last entry.
        """
        if not self.is_multiple_of_p:
            return None
        p = self._p
        return CycInt._trusted(p, [c // p for c in self._coeffs])

    @property
    def is_multiple_of_p(self) -> bool:
        # c % p for each nonzero coefficient c, with no Python-level loop
        return not any(map(self._p.__rmod__, filter(None, self._coeffs)))

    def __repr__(self) -> str:
        return f"CycInt(p={self._p}, coeffs={self._coeffs})"


def _galois_images(p: int, m: int, entries: "Iterable[CycInt]") -> "list[CycInt]":
    """The images of entries under sigma_m, the automorphism of Z[zeta]
    sending zeta to zeta^m, through one gather built for this call.

    m is read mod p and must be prime to p.  sigma_m sends zeta^k to
    zeta^(mk), so coefficient k moves to position mk mod p: position j of
    an image reads coefficient j/m (mod p), and each image is renormalized.
    sigma_m is a ring automorphism fixing Z, so it maps p*Z[zeta] onto
    itself and only zero to zero.  The entries must be elements of Z[zeta]
    for this p.
    """
    m %= p
    if not m:
        raise ValueError(f"galois exponent must be prime to p={p}")
    inv = pow(m, -1, p)
    gather = itemgetter(*[j * inv % p for j in range(p)])  # p >= 2: returns a tuple
    return [CycInt._trusted(p, gather(x._coeffs)) for x in entries]


def _zeta_sums(
    p: int, weights: "Sequence[int]", exponents: "Sequence[int]", steps: "Iterable[int]"
) -> "Iterator[CycInt]":
    """For each s in steps, the sum over k of weights[k] * zeta^(exponents[k] + k*s).

    Each sum is counted exactly: term k adds weights[k] to the coefficient
    at its power mod p, with no ring multiplication.  A sum is counted only
    when it is asked for, so a caller that stops early counts no more.  p
    must be prime and the weights ints: the sums are built unvalidated.
    """
    for step in steps:
        counts = [0] * p
        for k in range(len(weights)):
            counts[(exponents[k] + k * step) % p] += weights[k]
        yield CycInt._trusted(p, counts)


def zeta_pow(p: int, k: int) -> CycInt:
    """zeta^k as a normalized element; the exponent is reduced mod p."""
    return next(_zeta_sums(require_prime(p), (1,), (k,), (0,)))


def symbolic_str(x: CycInt) -> str:
    """Compact rendering used by the CLI, in O(p) from the normalized coefficients.

    Plain integers print bare, single roots print as "z^k" (optionally
    signed), single-term multiples as "c*z^k", and anything else falls back
    to the full normalized coefficient list.

    The normalized form is unique, so the roots of unity are read off the
    coefficients: for k < p - 1, +-zeta^k is +-e_k (one nonzero entry, +-1
    at k), and zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) is (-1, ..., -1, 0),
    its negation (1, ..., 1, 0).  For p > 2 that head has p - 1 >= 2 nonzero
    entries, so no single-term element is +-zeta^(p-1).  For p = 2 the head
    is the single entry at k = 0: zeta = -1 is (-1, 0) and prints as "-1",
    which the single-term rule gives first.

    Every scan runs in C on the coefficient tuple: with one nonzero entry,
    the sum of the entries is that entry, and its first index is its place.
    """
    c = x._coeffs
    p = len(c)
    zeros = c.count(0)
    if zeros == p:
        return "0"
    if zeros == p - 1:
        v = sum(c)
        k = c.index(v)
        if k == 0:
            return str(v)
        zk = "z" if k == 1 else f"z^{k}"
        if v in (1, -1):
            return zk if v == 1 else f"-{zk}"
        return f"{v}*{zk}"
    if c[0] in (1, -1) and c.count(c[0]) == p - 1:  # the last entry is 0
        return f"-z^{p - 1}" if c[0] == 1 else f"z^{p - 1}"
    return "(" + ",".join([str(v) for v in c]) + ")"
