"""Exact arithmetic in the ring of integers extended by a prime-order root of unity.

An element of Z[zeta], with zeta a primitive p-th root of unity and p prime,
is held as a length-p integer coefficient vector over the powers
1, zeta, ..., zeta^(p-1).  The single relation 1 + zeta + ... + zeta^(p-1) = 0
lets every vector be normalized so its last entry is zero, which makes the
representation unique: two elements are equal exactly when their normalized
vectors match.  Everything here is plain integer arithmetic; no floating
point enters this module.
"""

from functools import lru_cache
from operator import index as _as_int, itemgetter

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

__all__ = [
    "CycInt",
    "is_prime",
    "require_prime",
    "zeta_pow",
    "symbolic_str",
]


def is_prime(n: int) -> bool:
    """Trial-division primality test; every p used here is tiny."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> int:
    p = _as_int(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


class Record(tuple):
    """A tuple with named fields: the base of the package's value types.

    A record declares ``__slots__ = ()`` and a ``__new__`` whose
    parameters after ``cls`` are its fields, in order, all positional.
    That signature is the one list of fields: this base reads it into
    ``_fields``, gives each field a property, and supplies the repr and
    the arguments copy and pickle rebuild a record from.  Equality and
    the hash are the tuple's, so a record equals, and hashes like, the
    plain tuple of its fields.  A record neither joins nor repeats like a
    tuple: ``+`` and ``*`` raise TypeError, with the record on either
    side, unless a record defines them.  It is neither typing.NamedTuple,
    whose import every CLI child would pay for, nor
    collections.namedtuple, which compiles each class from source when
    its module is imported.  It lives here, in the bottom layer, because
    every command loads this module already and the records of
    characters, isometry and pigroup all derive from it: a command that
    needs only the character table loads no other layer.
    """

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = None

    def __init_subclass__(cls) -> None:
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class CycInt:
    """An element of Z[zeta] in normalized coefficient form (last entry zero)."""

    __slots__ = ("_p", "_coeffs")

    def __init__(self, p: int, coeffs: "Iterable[int]") -> None:
        p = require_prime(p)
        c = [_as_int(x) for x in coeffs]
        if len(c) != p:
            raise ValueError(f"expected {p} coefficients, got {len(c)}")
        last = c[-1]
        if last:
            c = [x - last for x in c]
        self._p = p
        self._coeffs = tuple(c)

    @classmethod
    def _trusted(cls, p: int, coeffs: "Sequence[int]") -> "CycInt":
        """Build from p ints of a valid prime p, skipping validation.

        Only for results of ring operations on valid elements; the last
        entry is still normalized to zero.
        """
        last = coeffs[-1]
        if last:
            coeffs = [x - last for x in coeffs]
        x = object.__new__(cls)
        x._p = p
        x._coeffs = tuple(coeffs)
        return x

    @property
    def p(self) -> int:
        return self._p

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        coeffs = [0] * require_prime(p)
        coeffs[0] = _as_int(n)
        return cls(p, coeffs)

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
        return (-self) + other

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
            return self == CycInt.from_int(self._p, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._p, self._coeffs))

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

    def galois(self, m: int) -> "CycInt":
        """The image under sigma_m, the automorphism of Z[zeta] sending zeta to zeta^m.

        m is read mod p and must be prime to p.  sigma_m sends zeta^k to
        zeta^(mk), so coefficient k moves to position mk mod p, and the
        result is renormalized.  It is a ring automorphism fixing Z, so it
        maps p*Z[zeta] onto itself and only zero to zero.
        """
        p = self._p
        m = _as_int(m) % p
        if not m:
            raise ValueError(f"galois exponent must be prime to p={p}")
        return CycInt._trusted(p, _galois_gather(p, m)(self._coeffs))

    def __repr__(self) -> str:
        return f"CycInt(p={self._p}, coeffs={self._coeffs})"


@lru_cache(maxsize=256)
def _galois_gather(p: int, m: int) -> itemgetter:
    """Reads position j of sigma_m's image from coefficient j/m (mod p)."""
    inv = pow(m, -1, p)
    return itemgetter(*[j * inv % p for j in range(p)])  # p >= 2: returns a tuple


def zeta_pow(p: int, k: int) -> CycInt:
    """zeta^k as a normalized element; the exponent is reduced mod p."""
    p = require_prime(p)
    coeffs = [0] * p
    coeffs[k % p] = 1
    return CycInt(p, coeffs)


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
