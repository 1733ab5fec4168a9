"""The group of perfect self-isometries: generators, enumeration, structure.

Perfect isometries of the prime-order cyclic block form a group under
composition.  This module provides its three generator families

  * shifts        - all-positive maps k -> a + k   (character multiplication),
  * unit scalings - all-positive maps k -> u * k   (automorphism twists),
  * global negation,

exhaustive enumeration of the whole group from scratch, the affine
coordinates (eps, a, u) of each element, and checks of the group structure
(the affine composition law, the presence of negation).  decompose reads
coordinates off the closed form k -> eps * (a + u*k); recompose writes it,
and builds every generator: gen_linear, gen_aut and gen_negid each return
one recompose call, so recompose alone validates coordinates.  A command
reaches them only when a check fails, where gen_negid names a missing
negation; gen_linear and gen_aut stay as the paper's generator families
(shifts by linear characters, Aut(C_p) scalings), from which the
group-structure tests are built.

Enumeration: a search over the images of 0..p-1, one depth at a time,
that cuts a prefix as soon as some map k -> image[k] + c*k leaves the two
shapes a perfect candidate can have (iter_perfect proves the rule exact).
The rule is invariant under the value maps w -> u*w + a, so the search
(_normal_forms) visits only the permutations with prefix (0, 1), the
normal forms, and _orbit maps its hits through all p(p-1) of them
(_orbit proves this complete).  It tests 17 values at p = 7, 68 at
p = 13, 1,328 at p = 53 and 4,952 at p = 101, and finds one form, the
identity, at each.  Both modes (MODES, defined in the package root, so
that cli reads --mode's choices without loading this layer) run the same
search:

  * ``exhaustive`` assumes nothing about signs; the proof shows that mixed
    signs never pass, so no sign branch is needed.
  * ``positive_then_negate`` decides the all-positive candidates and
    adjoins their negations (negating an isometry negates its kernel, which
    changes neither divisibility nor the zero pattern).

Both yield the same list, so enumerate_perfect and verify_structure take
no mode.  They read every check off the normal forms, not off the maps of
their orbit: the orbit of the identity is every affine map, once each,
and no map in the orbit of another form is affine (_orbit proves both).
A report holds how many times the identity is a normal form, not its
2p(p-1) elements: they are every (eps, a, u) once per identity form, and
PIGroupReport.elements lists them from that count.  When the checks pass,
no map and no AffineCoords is built and isometry is not imported
(_report): enumerate and verify load this module alone of the four layers.
"""

from operator import sub

from . import MODES, POSITIVE_THEN_NEGATE, NotPerfect, Record, require_prime

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

    from .isometry import SignedIsometry  # imported only where a map is built

__all__ = [
    "CHECK_KEYS",
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


class AffineCoords(Record):
    """Coordinates (eps, a, u) of the isometry k -> eps * (a + u*k)."""

    __slots__ = ()

    def __new__(cls, eps: int, a: int, u: int) -> "AffineCoords":
        return tuple.__new__(cls, (eps, a, u))


class PIGroupReport(Record):
    """Enumeration outcome plus named check results.

    The enumerated set holds every affine map (eps, a, u) once per identity
    normal form and no other affine map (_report proves this), so a report
    holds ``identity_forms``, how many times the identity is a normal form,
    and ``elements()`` lists the coordinates from it; ``order`` counts the
    maps of every form.

    ``checks`` always carries the five keys of CHECK_KEYS, in that order,
    which the CLI writes them in; a value of None means the check was not
    evaluated by the producing operation (plain enumeration leaves the two
    structural checks to verify_structure).
    """

    __slots__ = ()

    def __new__(
        cls,
        p: int,
        order: int,
        identity_forms: int,
        checks: dict[str, bool | None],
        failures: list[str],
    ) -> "PIGroupReport":
        return tuple.__new__(cls, (p, order, identity_forms, checks, failures))

    def elements(self) -> "Iterator[tuple[int, int, int]]":
        """Each coordinate (eps, a, u) as a plain tuple, ``identity_forms``
        times in a row, with eps, a and u increasing: sorted."""
        p, copies = self.p, range(self.identity_forms)
        return ((e, a, u) for e in (-1, 1) for a in range(p) for u in range(1, p) for _ in copies)

    def all_pass(self) -> bool:
        """True when no evaluated check failed."""
        return all(v is not False for v in self.checks.values())


def gen_linear(p: int, a: int) -> "SignedIsometry":
    """All-positive shift k -> (a + k) mod p (multiplication by character a)."""
    return recompose(p, AffineCoords(1, a, 1))


def gen_aut(p: int, u: int) -> "SignedIsometry":
    """All-positive unit scaling k -> (u * k) mod p.

    This is the isometry induced by the automorphism g -> g^(u^-1): twisting
    character k by g -> g^u gives character k * u^-1, and this map undoes it.
    u is read mod p, and recompose validates the result, so a u divisible
    by p raises ValueError.
    """
    p = require_prime(p)
    return recompose(p, AffineCoords(1, 0, u % p))


def gen_negid(p: int) -> "SignedIsometry":
    """Negation of the identity: identity permutation, all signs -1."""
    return recompose(p, AffineCoords(-1, 0, 1))


def recompose(p: int, coords: AffineCoords) -> "SignedIsometry":
    """The signed isometry k -> eps * (a + u*k), for eps in {1, -1}, a in
    0..p-1 and u in 1..p-1: the range decompose reads, so the two are inverse."""
    from .isometry import SignedIsometry

    p = require_prime(p)
    eps, a, u = coords
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    if not 0 <= a < p:
        raise ValueError(f"shift index must lie in 0..{p - 1}, got {a}")
    if not 0 < u < p:
        raise ValueError(f"u must lie in 1..{p - 1}, got {u}")
    return SignedIsometry(p, [(a + u * k) % p for k in range(p)], (eps,) * p)


def decompose(iso: "SignedIsometry") -> AffineCoords:
    """Unique affine coordinates of a perfect isometry.

    The signs fix eps, the image of index 0 fixes a, and the step from
    index 0 to index 1 fixes u (nonzero, as the image is a permutation).
    Mixed signs raise NotPerfect, and so, after them, does an image other
    than k -> a + u*k.

    The image is that map exactly when every step image[k+1] - image[k] is
    congruent to u mod p (by induction on k from image[0] = a).  Every
    entry lies in 0..p-1, so a step lies in -(p-1)..p-1, and the only
    integers there congruent to u are u and u - p.
    """
    p = iso.p
    signs, image = iso.signs, iso.image
    eps = signs[0]
    if signs.count(eps) != p:
        raise NotPerfect(f"mixed sign profile: {iso.as_literal()}")
    a = image[0]
    u = (image[1] - a) % p
    if not set(map(sub, image[1:], image)) <= {u, u - p}:
        raise NotPerfect(f"not an affine map: {iso.as_literal()}")
    return AffineCoords(eps, a, u)


def _normal_forms(p: int) -> list[tuple[int, ...]]:
    """Every permutation with prefix (0, 1) whose maps k -> image[k] + c*k
    (mod p), c = 1..p-1, are each injective or constant, in lexicographic
    order: the normal forms of the permutations that pass this rule
    (_orbit proves that their orbit is all of them).

    The search fills image[0], image[1], ... with image[0] = 0,
    image[1] = 1 and later values in increasing order.  For each c it keeps
    the bitmask of the values image[k] + c*k over the placed k.  A map on
    d + 1 points is injective exactly when it takes d + 1 values and
    constant exactly when it takes one, and both properties pass to every
    restriction, so a prefix is cut as soon as some c has neither.  Every
    placed value, the forced prefix and a forced last value included, is
    tested against every c.  The search decides every permutation with
    prefix (0, 1); it assumes nothing about which of them pass.  The cut
    holds for any order of c, so c = -1 is tested first: the prefix makes
    k -> image[k] - k take the value 0 twice, so that map must be constant,
    and at each depth d >= 2 its mask cuts every value but image[d] = d.

    The search runs depth by depth, in one loop and one Python frame, so
    any p fits in the interpreter's recursion limit.  ``level`` lists the
    passing prefixes of length d in lexicographic order, each with its
    masks and used values; each is extended by every unused value in
    increasing order, which keeps the order, and the last level holds the
    forms.  Depths 0 and 1 offer one value each, and by the c = -1 cut
    every later depth passes at most the value d, so each prefix has at
    most one passing extension and, by induction from the empty prefix,
    each level holds at most one.  The search thus holds at most two
    prefixes and the masks of the value under test, each with at most
    p - 1 masks of p bits, and one row of p - 1 steps for the current
    depth: O(p^2) bits in all.
    """
    bits = [1 << w for w in range(p)] * 2
    level = [((), [0] * (p - 1), 0)]
    for d in range(p):
        steps = [c * d % p for c in (-1, *range(1, p - 1))]
        extended = []
        for image, masks, used in level:
            for v in (d,) if d < 2 else range(p):
                if used >> v & 1:
                    continue
                grown = []
                for mask, step in zip(masks, steps):
                    mask |= bits[v + step]
                    size = mask.bit_count()
                    if size != 1 and size != d + 1:
                        break
                    grown.append(mask)
                else:
                    extended.append(((*image, v), grown, used | bits[v]))
        level = extended
    return [image for image, _, _ in level]


def _orbit(p: int, forms: list[tuple[int, ...]]) -> "Iterator[SignedIsometry]":
    """The all-positive and all-negative maps on the images
    k -> u*form[k] + a (mod p) of permutations with prefix (0, 1) under all
    p(p-1) pairs (u, a), in lexicographic order of the image, each
    all-positive map followed by its negation.

    Lemma: for a unit u and any a, a permutation passes the rule of
    _normal_forms exactly when its value-affine image k -> u*image[k] + a
    (mod p) does.  Indeed u*image[k] + a + c*k = u*(image[k] + (c/u)*k) + a;
    the value map w -> u*w + a is a bijection, so it keeps "injective" and
    "constant"; and as c runs over the units, so does c/u.  Every
    permutation x has exactly one value-affine image with prefix (0, 1), its
    normal form (x - x[0]) / (x[1] - x[0]) (x[1] != x[0] as x is a
    permutation), and x is the image of that form under u = x[1] - x[0],
    a = x[0].  So the passing permutations are exactly the images, under all
    p(p-1) pairs (u, a), of the passing permutations with prefix (0, 1).
    Distinct pairs give distinct images (a is the image of 0, u + a that of
    1), and distinct normal forms give disjoint orbits, so the orbit of the
    list _normal_forms returns has no duplicates.  The lemma is a fact about
    the rule, not the classification.

    Two facts about the orbit let _report read every check off the forms:

      * An element k -> eps*(u*f[k] + a) of the orbit of a form f is affine
        only when f is the identity.  The affine maps k -> b + v*k (v a
        unit) form a group under composition, and the element's image is
        A after f for the affine A: w -> u*w + a, so f is A^-1 after that
        image; if the image is affine, so is f.  The only affine map with
        prefix (0, 1) is the identity (b = f[0] = 0, v = f[1] - f[0] = 1).
      * The element of the orbit of the identity for the pair (u, a) and
        the sign eps is k -> eps*(a + u*k), whose coordinates are
        (eps, a, u).  So the orbit of the identity is every affine map,
        once each.

    Each map is built without validation, sharing one all-positive and one
    all-negative sign tuple.  Each image is a permutation: a form is one (a
    form of the search places every value of 0..p-1 exactly once, as a
    value is placed only when its bit is clear in ``used`` and the form has
    length p), and w -> u*w + a is a bijection of Z/p for a unit u, so it
    maps a permutation to a permutation.
    """
    from .isometry import SignedIsometry

    positive, negative = (1,) * p, (-1,) * p
    for image in sorted(
        tuple((u * x + a) % p for x in form)
        for form in forms
        for u in range(1, p)
        for a in range(p)
    ):
        yield SignedIsometry._unchecked(p, image, positive)
        yield SignedIsometry._unchecked(p, image, negative)


def iter_perfect(p: int, mode: str = POSITIVE_THEN_NEGATE) -> "Iterator[SignedIsometry]":
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
    maps on the orbit (_orbit) of the forms that _normal_forms returns, and
    the search is complete for both modes: ``exhaustive`` loses nothing by
    never branching on signs, and ``positive_then_negate`` needs no sign
    pattern besides the two it yields.  The order is that of a
    lexicographic walk over permutations, and within each over sign
    patterns in ``itertools.product((1, -1))`` order, keeping the perfect
    candidates.

    ``mode`` is checked and otherwise unused; it stays only because the
    benchmark calls ``iter_perfect(7, mode)``, and the library never passes it.
    """
    p = require_prime(p)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    yield from _orbit(p, _normal_forms(p))


def _report(p: int, structure: bool) -> PIGroupReport:
    """Enumerate and run the basic checks; with ``structure``, also the
    semidirect and negation checks.  Each failure adds a line naming the
    offending element.

    The set is the orbit of the normal forms (iter_perfect), so each check
    is a fact about the forms, read off them by the two facts in the
    docstring of _orbit: an identity form adds every affine map (eps, a, u)
    once, with coordinates (eps, a, u), and any other form adds 2p(p-1)
    maps, none of them affine.

      * order: 2p(p-1) maps per form, so the order formula holds exactly
        when there is one form.
      * identity_forms: the number of identity forms, from which
        PIGroupReport.elements lists every coordinate once per identity
        form; with eps, a and u increasing, they come out sorted.
      * homogeneous_sign: every map is built all-positive or all-negative.
      * affine_completeness: the set is every affine map and nothing else
        exactly when the identity is a form and no other form is.
      * negid_central: negation is the affine map (-1, 0, 1), so it is in
        the set exactly when the identity is a form.  That it is an
        involution other than the identity, and that it commutes with every
        signed map (both composites keep the image and negate every sign),
        reads nothing of the set; the tests check both.
      * semidirect_law: the map (eps, a, u) after (eps', a', u') sends k to
        eps*(a + u*(eps'*(a' + u'*k))) = eps*eps'*((a + u*a') + u*u'*k),
        the map (eps*eps', a + u*a', u*u'), and the inverse of (eps, a, u)
        is (eps, -a/u, 1/u).  When every form is the identity, the set is
        the whole affine group (each map once per form) or empty, so it is
        closed under composition and inverses and its coordinates multiply
        as in (C_p x| Aut(C_p)) x {+-1}; the conjugation relation
        (1, 0, u) o (1, a, 1) o (1, 0, u^-1) = (1, u*a, 1) is one instance
        of that law, and the shifts (1, a, 1) meet the scalings (1, 0, u)
        only in (1, 0, 1) whatever the set, which the tests check.  When
        some form is not the identity, its maps have no coordinates, so the
        law fails, and that is the only way it fails.

    A map is built only to name a failure: each non-affine map, each affine
    map when there is no form at all, and negation when it is missing.  No
    AffineCoords is built: the report holds the count, not the elements.
    """
    p = require_prime(p)
    forms = _normal_forms(p)
    identity = tuple(range(p))
    copies = forms.count(identity)
    others = [form for form in forms if form != identity]
    failures = []
    if others:  # _orbit imports isometry even for no form; a passing report never calls it
        failures = [f"non-affine perfect isometry: {m.as_literal()}" for m in _orbit(p, others)]
    if not forms:
        missing = sorted(iso.as_literal() for iso in _orbit(p, [identity]))
        failures.extend(f"affine isometry not enumerated: {literal}" for literal in missing)

    semidirect = negid_central = None
    if structure:
        semidirect, negid_central = not others, copies > 0
        if others:
            failures.append("composition law skipped: some element is non-affine")
        if not copies:
            failures.append(f"negation not enumerated: {gen_negid(p).as_literal()}")

    checks: dict[str, bool | None] = {
        CHECK_HOMOGENEOUS: True,
        CHECK_AFFINE: copies > 0 and not others,
        CHECK_SEMIDIRECT: semidirect,
        CHECK_NEGID: negid_central,
        CHECK_ORDER: len(forms) == 1,
    }
    return PIGroupReport(p, len(forms) * 2 * p * (p - 1), copies, checks, failures)


def enumerate_perfect(p: int) -> PIGroupReport:
    """Enumerate the whole group and report order, identity forms and basic checks."""
    return _report(p, structure=False)


def verify_structure(p: int) -> PIGroupReport:
    """Enumerate and additionally verify the group structure of the result."""
    return _report(p, structure=True)
