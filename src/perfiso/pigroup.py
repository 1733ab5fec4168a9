"""The group of perfect self-isometries: generators, enumeration, structure.

Perfect isometries of the prime-order cyclic block form a group under
composition.  This module provides its three generator families

  * shifts        - all-positive maps k -> a + k   (character multiplication),
  * unit scalings - all-positive maps k -> u * k   (automorphism twists),
  * global negation,

exhaustive enumeration of the whole group from scratch, the affine
coordinates (eps, a, u) of each element, and computational checks of the
group structure on the enumerated set (closure under inverses, the affine
composition law, the presence of negation).  decompose reads coordinates off
the closed form k -> eps * (a + u*k); recompose, which builds every
generator, writes it.

Enumeration: a depth-first search over the images of 0..p-1 that cuts a
branch as soon as some map k -> image[k] + c*k leaves the two shapes a
perfect candidate can have (iter_perfect proves the rule exact).  The rule
is invariant under the value maps w -> u*w + a, so the search visits only
the permutations with prefix (0, 1) and maps its hits through all p(p-1)
of them (_perfect_images proves this complete).  It tests 17 values at
p = 7, 68 at p = 13, 1,328 at p = 53 and 4,952 at p = 101, and reaches one
leaf, the identity, at each.  Both modes run the same search:

  * ``exhaustive`` assumes nothing about signs; the proof shows that mixed
    signs never pass, so no sign branch is needed.
  * ``positive_then_negate`` decides the all-positive candidates and
    adjoins their negations (negating an isometry negates its kernel, which
    changes neither divisibility nor the zero pattern).

Both produce identical reports.  When the set holds every affine map, the
structure checks of ``verify`` read the composition law off the affine
coordinates and compose no maps (_report proves this exact).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .cyclotomic import require_prime
from .isometry import ALL_POSITIVE, MIXED, SignedIsometry

__all__ = [
    "EXHAUSTIVE",
    "POSITIVE_THEN_NEGATE",
    "MODES",
    "CHECK_KEYS",
    "NotPerfect",
    "AffineCoords",
    "PIGroupReport",
    "gen_linear",
    "gen_aut",
    "gen_negid",
    "recompose",
    "decompose",
    "iter_perfect",
    "enumerate_perfect",
    "verify_structure",
]

EXHAUSTIVE = "exhaustive"
POSITIVE_THEN_NEGATE = "positive_then_negate"
MODES = (EXHAUSTIVE, POSITIVE_THEN_NEGATE)

CHECK_HOMOGENEOUS = "homogeneous_sign"
CHECK_AFFINE = "affine_completeness"
CHECK_SEMIDIRECT = "semidirect_law"
CHECK_NEGID = "negid_central"
CHECK_ORDER = "order_formula"
CHECK_KEYS = (
    CHECK_HOMOGENEOUS,
    CHECK_AFFINE,
    CHECK_SEMIDIRECT,
    CHECK_NEGID,
    CHECK_ORDER,
)


class NotPerfect(Exception):
    """The isometry is not of the affine perfect form."""


class AffineCoords(NamedTuple):
    """Coordinates (eps, a, u) of the isometry k -> eps * (a + u*k)."""

    eps: int
    a: int
    u: int


class PIGroupReport(NamedTuple):
    """Enumeration outcome plus named check results.

    ``checks`` always carries the five keys in CHECK_KEYS; a value of None
    means the check was not evaluated by the producing operation (plain
    enumeration leaves the two structural checks to verify_structure).
    """

    p: int
    order: int
    elements: list[AffineCoords]
    checks: dict[str, bool | None]
    failures: list[str]

    def all_pass(self) -> bool:
        """True when no evaluated check failed."""
        return all(v is not False for v in self.checks.values())

    def to_json_dict(self) -> dict:
        out: dict = {
            "p": self.p,
            "order": self.order,
            "elements": [{"eps": c.eps, "a": c.a, "u": c.u} for c in self.elements],
            "checks": {key: self.checks[key] for key in CHECK_KEYS},
        }
        if self.failures:
            out["failures"] = list(self.failures)
        return out


def gen_linear(p: int, a: int) -> SignedIsometry:
    """All-positive shift k -> (a + k) mod p (multiplication by character a)."""
    return recompose(p, AffineCoords(1, a, 1))


def gen_aut(p: int, u: int) -> SignedIsometry:
    """All-positive unit scaling k -> (u * k) mod p.

    This is the isometry induced by the automorphism g -> g^(u^-1): twisting
    character k by g -> g^u gives character k * u^-1, and this map undoes it.
    """
    p = require_prime(p)
    if u % p == 0:
        raise ValueError(f"u must be a unit mod {p}, got {u}")
    return recompose(p, AffineCoords(1, 0, u % p))


def gen_negid(p: int) -> SignedIsometry:
    """Negation of the identity: identity permutation, all signs -1."""
    return -SignedIsometry.identity(p)


def recompose(p: int, coords: AffineCoords) -> SignedIsometry:
    """The signed isometry k -> eps * (a + u*k), for eps in {1, -1}, a in
    0..p-1 and u in 1..p-1: the range decompose reads, so the two are inverse."""
    p = require_prime(p)
    eps, a, u = coords
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    if not 0 <= a < p:
        raise ValueError(f"shift index must lie in 0..{p - 1}, got {a}")
    if not 0 < u < p:
        raise ValueError(f"u must lie in 1..{p - 1}, got {u}")
    return SignedIsometry(p, [(a + u * k) % p for k in range(p)], (eps,) * p)


def decompose(iso: SignedIsometry) -> AffineCoords:
    """Unique affine coordinates of a perfect isometry.

    The sign profile fixes eps, the image of index 0 fixes a, and the step
    from index 0 to index 1 fixes u (nonzero, as the image is a
    permutation).  The image is then compared in full with k -> a + u*k;
    any mismatch means the input was not a perfect isometry and raises
    NotPerfect.
    """
    profile = iso.sign_profile()
    if profile == MIXED:
        raise NotPerfect(f"mixed sign profile: {iso.as_literal()}")
    eps = 1 if profile == ALL_POSITIVE else -1
    p = iso.p
    a = iso.image[0]
    u = (iso.image[1] - a) % p
    if iso.image != tuple((a + u * k) % p for k in range(p)):
        raise NotPerfect(f"not an affine map: {iso.as_literal()}")
    return AffineCoords(eps, a, u)


def _perfect_images(p: int) -> list[tuple[int, ...]]:
    """Every permutation whose maps k -> image[k] + c*k (mod p), c = 1..p-1,
    are each injective or constant, in lexicographic order.

    Lemma: for a unit u and any a, a permutation passes this rule exactly
    when its value-affine image k -> u*image[k] + a (mod p) does.  Indeed
    u*image[k] + a + c*k = u*(image[k] + (c/u)*k) + a; the value map
    w -> u*w + a is a bijection, so it keeps "injective" and "constant";
    and as c runs over the units, so does c/u.  Every permutation x has
    exactly one value-affine image with prefix (0, 1), its normal form
    (x - x[0]) / (x[1] - x[0]) (x[1] != x[0] as x is a permutation), and x
    is the image of that form under u = x[1] - x[0], a = x[0].  So the
    passing permutations are exactly the images, under all p(p-1) pairs
    (u, a), of the passing permutations with prefix (0, 1).  Distinct pairs
    give distinct images (a is the image of 0, u + a that of 1), and
    distinct normal forms give disjoint orbits, so the result has no
    duplicates.  The lemma is a fact about the rule, not the classification:
    the search below still decides every permutation with prefix (0, 1).

    A depth-first search fills image[0], image[1], ... with image[0] = 0,
    image[1] = 1 and later values in increasing order.  For each c it keeps
    the bitmask of the values image[k] + c*k over the placed k.  A map on
    d + 1 points is injective exactly when it takes d + 1 values and
    constant exactly when it takes one, and both properties pass to every
    restriction, so a branch is cut as soon as some c has neither.  Every
    placed value, the forced prefix and a forced last value included, is
    tested against every c.
    """
    bits = [1 << w for w in range(p)] * 2
    steps = [[c * d % p for c in range(1, p)] for d in range(p)]
    image: list[int] = []

    def extend(masks: list[int], used: int) -> Iterator[tuple[int, ...]]:
        d = len(image)
        if d == p:
            yield tuple(image)
            return
        for v in (d,) if d < 2 else range(p):
            if used >> v & 1:
                continue
            grown = []
            for mask, step in zip(masks, steps[d]):
                mask |= bits[v + step]
                size = mask.bit_count()
                if size != 1 and size != d + 1:
                    break
                grown.append(mask)
            else:
                image.append(v)
                yield from extend(grown, used | bits[v])
                image.pop()

    return sorted(
        tuple((u * x + a) % p for x in form)
        for form in extend([0] * (p - 1), 0)
        for u in range(1, p)
        for a in range(p)
    )


def iter_perfect(p: int, mode: str = POSITIVE_THEN_NEGATE) -> Iterator[SignedIsometry]:
    """Yield every perfect signed isometry: each all-positive hit, in
    lexicographic order of its image, followed by its negation.

    Both modes run this one search, and it decides perfectness exactly.
    Kernel entry (m, n) is E(m, n) = sum_k sign[k] * zeta^(image[k]*m + k*n).

    Mixed signs never pass.  For odd p, E(0, 0) = sum_k sign[k] is a
    rational integer, so integrality asks p | E(0, 0).  Its absolute value
    is at most p and, as a sum of an odd number of terms +-1, it is odd, so
    it is +-p and all signs are equal.  For
    p = 2, a mixed map has E(0, 1) = sign[0] - sign[1] = +-2, a nonzero
    entry pairing the identity with a non-identity element, which breaks
    separation.

    With all signs equal to eps, the candidate is perfect iff for each c in
    1..p-1 the map k -> image[k] + c*k (mod p) is injective or constant.
    Entries with m = 0 or n = 0 are eps * p at (0, 0) and a full sum of p-th
    roots of unity, hence 0, elsewhere, so they always pass.  For m, n != 0,
    image[k]*m + k*n = m * (image[k] + c*k) with c = n/m, so
    E(m, n) = eps * sum_j count_c[j] * zeta^(m*j), where count_c[j] counts
    the k mapped to j.  The Galois automorphism zeta -> zeta^m preserves
    divisibility by p.  Since 1, zeta, ..., zeta^(p-2) is a basis and
    sum_j zeta^j = 0 the only relation, sum_j a_j * zeta^j (j = 0..p-1) is
    divisible by p iff all a_j are congruent mod p.  Nonnegative counts
    summing to p are all congruent mod p iff all are 1 (a bijection,
    E = 0) or one is p (constant, E = eps * p * zeta^(m*j)).  Every c
    arises (m = 1, n = c), so the rule is an iff.

    Hence the perfect maps are exactly the all-positive and all-negative
    maps on the images that _perfect_images returns, and the search is
    complete for both modes: ``exhaustive`` loses nothing by never
    branching on signs, and ``positive_then_negate`` needs no sign pattern
    besides the two it yields.  The order is that of a lexicographic walk
    over permutations, and within each over sign patterns in
    ``itertools.product((1, -1))`` order, keeping the perfect candidates.

    Each hit and its negation are built without validation, sharing one
    all-positive and one all-negative sign tuple.  Each image is a
    permutation: a leaf of the search places every value of 0..p-1 exactly
    once (a value is placed only when its bit is clear in ``used``, and the
    leaf has depth p), and w -> u*w + a is a bijection of Z/p for a unit u,
    so it maps a permutation to a permutation.
    """
    p = require_prime(p)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    positive, negative = (1,) * p, (-1,) * p
    for image in _perfect_images(p):
        yield SignedIsometry._unchecked(p, image, positive)
        yield SignedIsometry._unchecked(p, image, negative)


def _law(p: int, cl: AffineCoords, cr: AffineCoords) -> AffineCoords:
    """Coordinates of (eps, a, u) o (eps', a', u') = (eps*eps', a + u*a', u*u')."""
    return AffineCoords(cl.eps * cr.eps, (cl.a + cl.u * cr.a) % p, (cl.u * cr.u) % p)


def _report(p: int, mode: str, structure: bool) -> PIGroupReport:
    """Enumerate, decompose every element and run the basic checks; with
    ``structure``, also the semidirect and negation checks.  Each failure
    adds a line naming the offending element or pair.

    Completeness is a count.  decompose returns only eps in {1, -1}, a in
    0..p-1 and u in 1..p-1 (u != 0 as the image is a permutation): one of
    exactly 2p(p-1) coordinates.  Each element recomposes from its
    coordinates and recompose is injective, so a fact about the set C of
    coordinates is a fact about the maps.  When every element decomposes,
    the set therefore holds every affine map exactly when C has 2p(p-1)
    distinct values.  Only when one is missing are all coordinates walked,
    to name it.

    The map with coordinates (eps, a, u) after the map with coordinates
    (eps', a', u') sends k to eps*(a + u*(eps'*(a' + u'*k))) =
    eps*eps'*((a + u*a') + u*u'*k), the map with coordinates _law(c, c'),
    and the inverse of (eps, a, u) is (eps, -a/u, 1/u).  When
    affine_completeness holds, C is the whole affine group, which holds
    both, so the semidirect verdict passes with no map composed or
    inverted.  Otherwise the inverse loop runs on the maps, and then the
    law on every ordered pair of coordinates: lhs o rhs lies in the set
    exactly when _law(coord(lhs), coord(rhs)) is in C, and decompose then
    reads exactly those coordinates off it, so membership is the whole
    law.  The law needs coordinates; when some element is non-affine it is
    skipped and fails.

    Inverses and the law are the whole semidirect verdict.  The law says
    that the coordinates of the enumerated maps multiply as in
    (C_p x| Aut(C_p)) x {+-1}, so the conjugation relation on the set is one
    of its instances, (1, 0, u) o (1, a, 1) o (1, 0, u^-1) = (1, u*a, 1),
    and the shifts (1, a, 1) meet the scalings (1, 0, u) only in (1, 0, 1).
    The same two facts about gen_linear and gen_aut read nothing of the
    enumerated set, so their answer depends on p alone; the tests check them.
    So do the facts that gen_negid is an involution other than the identity
    and that it commutes with every signed map (both composites keep the
    image and negate every sign).  What the set can fail is holding
    negation, which makes {+-1} a factor of the group: that is the whole
    negation verdict.
    """
    found = list(iter_perfect(p, mode))
    failures: list[str] = []
    coords: list[AffineCoords] = []
    rejected = []
    for iso in found:
        try:
            coords.append(decompose(iso))
        except NotPerfect:
            rejected.append(iso)
            failures.append(f"non-affine perfect isometry: {iso.as_literal()}")
    # decompose rejects every mixed map, so only the rejected can be mixed
    mixed = [iso for iso in rejected if iso.sign_profile() == MIXED]
    failures.extend(f"mixed-sign perfect isometry: {iso.as_literal()}" for iso in mixed)

    order = 2 * p * (p - 1)
    members = set(coords)
    affine = not rejected and len(members) == order
    if not rejected and not affine:
        every = (AffineCoords(e, a, u) for e in (-1, 1) for a in range(p) for u in range(1, p))
        missing = sorted(recompose(p, c).as_literal() for c in every if c not in members)
        failures.extend(f"affine isometry not enumerated: {literal}" for literal in missing)

    semidirect = negid_central = None
    if structure:
        semidirect = True
        if not affine:
            found_set = set(found)
            for iso in found:
                if iso.invert() not in found_set:
                    semidirect = False
                    failures.append(f"inverse escapes the set: {iso.as_literal()}")
            if rejected:
                # the law needs coordinates; the negation check does not, so it still runs
                semidirect = False
                failures.append("composition law skipped: some element is non-affine")
            else:
                escapes = [
                    f"composition escapes the set: {lhs.as_literal()} o {rhs.as_literal()}"
                    for lhs, cl in zip(found, coords)
                    for rhs, cr in zip(found, coords)
                    if _law(p, cl, cr) not in members
                ]
                semidirect = semidirect and not escapes
                failures.extend(escapes)
        negid = gen_negid(p)
        negid_central = negid in found
        if not negid_central:
            failures.append(f"negation not enumerated: {negid.as_literal()}")

    checks: dict[str, bool | None] = {
        CHECK_HOMOGENEOUS: not mixed,
        CHECK_AFFINE: affine,
        CHECK_SEMIDIRECT: semidirect,
        CHECK_NEGID: negid_central,
        CHECK_ORDER: len(found) == order,
    }
    return PIGroupReport(p, len(found), sorted(coords), checks, failures)


def enumerate_perfect(p: int, mode: str = POSITIVE_THEN_NEGATE) -> PIGroupReport:
    """Enumerate the whole group and report order, elements and basic checks."""
    return _report(p, mode, structure=False)


def verify_structure(p: int, mode: str = POSITIVE_THEN_NEGATE) -> PIGroupReport:
    """Enumerate and additionally verify the group structure of the result."""
    return _report(p, mode, structure=True)
