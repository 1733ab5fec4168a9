"""Character table of the cyclic group of prime order, and class-function helpers.

Characters are indexed 0..p-1, as are group elements (powers of the fixed
generator g); character a takes the value zeta^(a*b) at element b.  Index 0
is the trivial character and element 0 the identity.  Downstream code works
with indices wherever possible and only materializes exact ring values for
kernel evaluations and inner products.
"""

from functools import lru_cache
from operator import index

from . import Record, require_prime
from .cyclotomic import CycInt, _zeta_sums, symbolic_str, zeta_pow

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

__all__ = [
    "NonIntegralInnerProduct",
    "ClassFunction",
    "char_table",
    "character",
    "indicator",
    "generalized_character",
    "inner_product",
]


class NonIntegralInnerProduct(ArithmeticError):
    """Raised when an inner-product sum is not divisible by the group order."""


@lru_cache(maxsize=None)
def char_table(p: int) -> tuple[tuple[CycInt, ...], ...]:
    """Build (and cache) the p x p character table: row a, entry b is zeta^(a*b).

    The table holds only the p values zeta^k, so each is built once and
    entry (a, b) is the shared object for k = a*b mod p; CycInt is
    immutable, so sharing is safe.
    """
    p = require_prime(p)
    powers = [zeta_pow(p, k) for k in range(p)]
    return tuple(tuple(powers[a * b % p] for b in range(p)) for a in range(p))


class ClassFunction(Record):
    """Exact values of a class function at elements g^0 .. g^(p-1)."""

    __slots__ = ()

    def __new__(cls, p: int, values: "Iterable[CycInt]") -> "ClassFunction":
        p = require_prime(p)
        values = tuple(values)
        if len(values) != p:
            raise ValueError(f"expected {p} values, got {len(values)}")
        if any(not isinstance(v, CycInt) or v.p != p for v in values):
            raise ValueError("values must be CycInt elements with matching p")
        return tuple.__new__(cls, (p, values))


def character(p: int, a: int) -> ClassFunction:
    """The irreducible character with index a."""
    return ClassFunction(p, char_table(p)[a % p])


def indicator(p: int, j: int) -> ClassFunction:
    """The class function that is 1 at element g^j and 0 elsewhere."""
    values = [CycInt.zero(p)] * p
    values[j % p] = CycInt.one(p)
    return ClassFunction(p, tuple(values))


def generalized_character(p: int, coeffs: "Sequence[int]") -> ClassFunction:
    """Integer combination of irreducibles; coeffs[k] multiplies character k."""
    p = require_prime(p)
    if len(coeffs) != p:
        raise ValueError(f"expected {p} coefficients, got {len(coeffs)}")
    # the value at g^b is the sum of coeffs[k] * zeta^(k*b); the sums take
    # ints unchecked, so a non-integer coefficient raises TypeError here
    weights = [index(c) for c in coeffs]
    return ClassFunction(p, [CycInt(p, v) for v in _zeta_sums(p, weights, (0,) * p, range(p))])


def inner_product(x: ClassFunction, y: ClassFunction) -> CycInt:
    """(1/p) * sum over b of x(g^b) * y(g^-b), computed exactly.

    The second argument is evaluated at inverse elements, which agrees with
    complex conjugation on characters and stays total on arbitrary exact
    class functions.  Raises NonIntegralInnerProduct when the sum is not
    divisible by p.
    """
    p = x.p
    if p != y.p:
        raise ValueError(f"mismatched moduli: p={p} vs p={y.p}")
    total = CycInt.zero(p)
    for b in range(p):
        total = total + x.values[b] * y.values[(p - b) % p]
    quotient = total.divide_exact_by_p()
    if quotient is None:
        raise NonIntegralInnerProduct(
            f"inner-product sum {symbolic_str(total)} is not divisible by p={p}"
        )
    return quotient

