"""Character table of the cyclic group of prime order, and class-function helpers.

Characters are indexed 0..p-1, as are group elements (powers of the fixed
generator g); character a takes the value zeta^(a*b) at element b.  Index 0
is the trivial character and element 0 the identity.  Downstream code works
with indices wherever possible and only materializes exact ring values for
kernel evaluations and inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .cyclotomic import CycInt, require_prime, zeta_pow

__all__ = [
    "NonIntegralInnerProduct",
    "CharTable",
    "ClassFunction",
    "char_table",
    "character",
    "indicator",
    "generalized_character",
    "inner_product",
]


class NonIntegralInnerProduct(ArithmeticError):
    """Raised when an inner-product sum is not divisible by the group order."""


@dataclass(frozen=True)
class CharTable:
    """Exact p x p character table; entries[a][b] is character a at element b."""

    p: int
    entries: tuple[tuple[CycInt, ...], ...]

    def character(self, a: int) -> ClassFunction:
        """Row a as a class function."""
        return ClassFunction(self.p, self.entries[a % self.p])


@lru_cache(maxsize=None)
def char_table(p: int) -> CharTable:
    """Build (and cache) the character table: entry [a][b] equals zeta^(a*b)."""
    p = require_prime(p)
    rows = tuple(
        tuple(zeta_pow(p, a * b) for b in range(p)) for a in range(p)
    )
    return CharTable(p, rows)


@dataclass(frozen=True)
class ClassFunction:
    """Exact values of a class function at elements g^0 .. g^(p-1)."""

    p: int
    values: tuple[CycInt, ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        values = tuple(self.values)
        if len(values) != self.p:
            raise ValueError(f"expected {self.p} values, got {len(values)}")
        if any(not isinstance(v, CycInt) or v.p != self.p for v in values):
            raise ValueError("values must be CycInt elements with matching p")
        object.__setattr__(self, "values", values)

    def _require_same_p(self, other: ClassFunction) -> None:
        if self.p != other.p:
            raise ValueError(f"mismatched moduli: p={self.p} vs p={other.p}")

    def __add__(self, other: ClassFunction) -> ClassFunction:
        self._require_same_p(other)
        return ClassFunction(
            self.p, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: ClassFunction) -> ClassFunction:
        self._require_same_p(other)
        return ClassFunction(
            self.p, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __neg__(self) -> ClassFunction:
        return ClassFunction(self.p, tuple(-v for v in self.values))

    def __rmul__(self, scalar: int) -> ClassFunction:
        return ClassFunction(self.p, tuple(scalar * v for v in self.values))


def character(p: int, a: int) -> ClassFunction:
    """The irreducible character with index a."""
    return char_table(p).character(a)


def indicator(p: int, j: int) -> ClassFunction:
    """The class function that is 1 at element g^j and 0 elsewhere."""
    p = require_prime(p)
    values = [CycInt.zero(p)] * p
    values[j % p] = CycInt.one(p)
    return ClassFunction(p, tuple(values))


def generalized_character(p: int, coeffs: Sequence[int]) -> ClassFunction:
    """Integer combination of irreducibles; coeffs[k] multiplies character k."""
    p = require_prime(p)
    if len(coeffs) != p:
        raise ValueError(f"expected {p} coefficients, got {len(coeffs)}")
    values = []
    for b in range(p):
        acc = [0] * p
        for k, c in enumerate(coeffs):
            acc[(k * b) % p] += c
        values.append(CycInt(p, acc))
    return ClassFunction(p, tuple(values))


def inner_product(x: ClassFunction, y: ClassFunction) -> CycInt:
    """(1/p) * sum over b of x(g^b) * y(g^-b), computed exactly.

    The second argument is evaluated at inverse elements, which agrees with
    complex conjugation on characters and stays total on arbitrary exact
    class functions.  Raises NonIntegralInnerProduct when the sum is not
    divisible by p.
    """
    x._require_same_p(y)
    p = x.p
    total = CycInt.zero(p)
    for b in range(p):
        total = total + x.values[b] * y.values[(p - b) % p]
    quotient = total.divide_exact_by_p()
    if quotient is None:
        raise NonIntegralInnerProduct(
            f"inner-product sum {total} is not divisible by p={p}"
        )
    return quotient

