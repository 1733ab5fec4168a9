"""Independent oracles and random generators shared by the test modules.

Everything here deliberately avoids the library's normalized-coefficient
arithmetic paths: multiplication expands plain integer polynomials,
divisibility solves p*y = x by exact rational division over the reduced
power basis, the perfectness of a raw candidate is decided from plain
integer count vectors, one candidate at a time, with no pruning (so is
each normal form of the classification at p = 11 and 13), forward sums
run over every element with plain integer products, the image of a
character is written down one signed power of zeta at a time, roots of
unity are recognized by the normal form of each of +-zeta^k, built on
plain integers, the dense kernel counts every entry without the Galois
action, the integrality and separation scans read every entry in
row-major order, the full-scan verdict runs those two scans over the
dense kernel, the cross-check counts each indicator column the same way
when its scan reaches it, the adjoint takes the dense forward sums of the
transposed kernel, the perfect images come from a search of the whole
permutation tree with no normal form, and the structure verdicts compose
every pair of plain image/sign tuples.  The primes up to 101 come from
trial division, not from perfiso.is_prime.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from random import Random

from perfiso import (
    FAILS_INTEGRALITY,
    FAILS_SEPARATION,
    PERFECT,
    ClassFunction,
    CycInt,
    KernelTable,
    SignedIsometry,
    Verdict,
    generalized_character,
)

PRIMES_TO_101 = tuple(n for n in range(2, 102) if all(n % d for d in range(2, n)))
# one random signed map per p, drawn once from random.Random(p): a shuffle,
# then one sign per index
RANDOM_SIGNED = {
    23: "-14,-17,+1,+8,+5,-6,+19,+10,-16,-20,-7,-4,+3,-15,+21,-11,-12,+13,+22,+18,-0,+2,+9",
    53: (
        "+9,+19,+5,+21,+49,+0,-51,-15,-34,-43,+26,+47,-17,-18,+46,+41,+27,-38,-52,+42,"
        "-12,+25,-35,-20,+24,-37,+11,-31,+4,-7,+6,-28,-14,+44,-36,+40,-3,+16,-8,+22,"
        "-10,+2,+1,-50,-23,-33,+48,+30,+45,-32,+29,+13,-39"
    ),
    101: (
        "+52,+90,-35,+3,+72,+44,-10,-91,-7,+98,+83,-49,-73,+78,+57,-39,-19,+97,-37,+66,"
        "-43,-5,+15,-18,+81,-33,+40,+21,-12,+31,+75,+53,-67,-80,+61,-2,+94,-89,-16,+48,"
        "-100,-23,+1,+22,-95,-34,-13,-29,-0,+70,+88,+47,+58,+4,+65,+93,-76,+50,-25,+17,"
        "-79,+71,-63,+86,+14,-87,-38,-96,-55,-8,+26,-54,+51,-30,-41,+60,+82,+46,-68,"
        "-85,-11,+20,-99,+32,+9,-56,+42,+92,-62,-36,-28,+77,-27,+64,+84,-6,+59,+45,-69,"
        "-24,+74"
    ),
}


def poly_mul_reduced(p: int, xs: list[int], ys: list[int]) -> tuple[int, ...]:
    """Multiply in Z[X]/(X^p - 1), then normalize with the all-ones relation."""
    raw = [0] * (2 * p)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            raw[i + j] += a * b
    folded = [raw[i] + raw[i + p] for i in range(p)]
    last = folded[-1]
    return tuple(c - last for c in folded)


def divisible_by_p_oracle(p: int, raw_coeffs: list[int]) -> bool:
    """Solve p*y = x for integer y over the basis 1, zeta, ..., zeta^(p-2).

    The raw coefficients are first rewritten in the reduced basis (the top
    power is eliminated through the all-ones relation), then each reduced
    coordinate is divided by p with exact rational arithmetic; x lies in
    p*O exactly when every quotient is an integer.
    """
    top = raw_coeffs[p - 1]
    reduced = [Fraction(c - top) for c in raw_coeffs[: p - 1]]
    return all((r / p).denominator == 1 for r in reduced)


@lru_cache(maxsize=None)
def _root_names(p: int) -> dict[tuple[int, ...], str]:
    """The normal form of each of +-zeta^k -> its name, entered k = 0 first,
    + before -; a form keeps its first name, so at p = 2 zeta is "-1"."""
    names: dict[tuple[int, ...], str] = {}
    for k in range(p):
        power = tuple(int(i == k) - int(k == p - 1) for i in range(p))
        name = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
        names.setdefault(power, name)
        names.setdefault(tuple(-c for c in power), "-" + name)
    return names


def symbolic_str_scan(coeffs: tuple[int, ...]) -> str:
    """The CLI rendering of a normal form (each coefficient less the last):
    +-zeta^k by name, else a single term as c or c*z^k, else the list."""
    name = _root_names(len(coeffs)).get(coeffs)
    if name is not None:
        return name
    nonzero = [(k, c) for k, c in enumerate(coeffs) if c]
    if not nonzero:
        return "0"
    if len(nonzero) == 1:
        k, c = nonzero[0]
        if k == 0:
            return str(c)
        return f"{c}*z" if k == 1 else f"{c}*z^{k}"
    return "(" + ",".join(str(c) for c in coeffs) + ")"


def forward_sums_dense(kt, beta) -> list[tuple[int, ...]]:
    """Normalized coefficients of sum over every n of entry (m, -n) * beta(g^n).

    Each product is expanded in Z[X]/(X^p - 1) on plain integers and the
    sum is normalized once at the end; zero values of beta are not skipped.
    """
    p = kt.p
    out = []
    for row in kt.entries:
        raw = [0] * p
        for n in range(p):
            a = row[(p - n) % p].coeffs
            b = [(j, y) for j, y in enumerate(beta.values[n].coeffs) if y]
            for i, x in enumerate(a):
                for j, y in b:
                    raw[(i + j) % p] += x * y
        last = raw[-1]
        out.append(tuple(c - last for c in raw))
    return out


def image_character(iso: SignedIsometry, k: int) -> ClassFunction:
    """The image of character k under iso: sign[k] times character image[k].

    Its value at g^b is the one signed power sign[k] * zeta^(image[k]*b),
    written down as a coefficient vector.
    """
    p, sign, a = iso.p, iso.signs[k], iso.image[k]
    return ClassFunction(
        p, tuple(CycInt(p, [sign if j == a * b % p else 0 for j in range(p)]) for b in range(p))
    )


def adjoint_transform(kt: KernelTable, alpha: ClassFunction) -> ClassFunction:
    """The kernel applied to an image-side class function, exactly.

    Output index n is the sum over every m of entry (-m, n) times
    alpha(g^m), divided by p: the dense forward sums of the transposed
    kernel.  Raises ArithmeticError when a sum is not divisible by p.
    """
    p = kt.p
    sums = forward_sums_dense(KernelTable(p, tuple(zip(*kt.entries))), alpha)
    for n, s in enumerate(sums):
        if not divisible_by_p_oracle(p, list(s)):
            raise ArithmeticError(f"adjoint sum at index {n} is not divisible by p")
    return ClassFunction(p, tuple(CycInt(p, [c // p for c in s]) for s in sums))


def _counted_entry(iso: SignedIsometry, m: int, n: int) -> CycInt:
    """Kernel entry (m, n) by its definition: sign[k] at power image[k]*m + k*n."""
    p = iso.p
    counts = [0] * p
    for k in range(p):
        counts[(iso.image[k] * m + k * n) % p] += iso.signs[k]
    return CycInt(p, counts)


def kernel_table_dense(iso: SignedIsometry) -> KernelTable:
    """The kernel with every entry counted by its definition."""
    p = iso.p
    return KernelTable(
        p, tuple(tuple(_counted_entry(iso, m, n) for n in range(p)) for m in range(p))
    )


def cross_check_dense(iso: SignedIsometry) -> Verdict:
    """The verdict of is_perfect_via_spaces, from entries counted by their definition.

    The forward sums of indicator(p, j) are column -j of the kernel.  The
    scan is the cross-check's: columns j = 0, 1, ... in turn, entries in row
    order, integrality on every column by the rational division oracle
    (zero entries are divisible), then separation on column 0.  Each entry
    is counted when the scan reaches it, and the scan returns at the first
    failing entry, which is where a scan of the whole kernel, built first,
    would stop too.
    """
    p = iso.p
    column0 = []
    for j in range(p):
        for m in range(p):
            entry = _counted_entry(iso, m, -j % p)
            if j == 0:
                column0.append(entry)
            if any(entry.coeffs) and not divisible_by_p_oracle(p, list(entry.coeffs)):
                return Verdict(FAILS_INTEGRALITY, (m, -j % p))
    for m in range(1, p):
        if any(column0[m].coeffs):
            return Verdict(FAILS_SEPARATION, (m, 0))
    return Verdict(PERFECT)


def check_integrality(kt: KernelTable) -> tuple[int, int] | None:
    """First kernel entry (row-major) not divisible by p, or None if all pass."""
    for m, row in enumerate(kt.entries):
        for n, entry in enumerate(row):
            if not divisible_by_p_oracle(kt.p, list(entry.coeffs)):
                return (m, n)
    return None


def check_separation(kt: KernelTable) -> tuple[int, int] | None:
    """First nonzero entry (row-major) pairing identity with non-identity, or None."""
    for m, row in enumerate(kt.entries):
        for n, entry in enumerate(row):
            if any(entry.coeffs) and ((m == 0) != (n == 0)):
                return (m, n)
    return None


def full_scan_verdict(iso: SignedIsometry) -> Verdict:
    """The verdict of is_perfect, from the integrality scan and then the
    separation scan of the kernel with every entry counted by its definition."""
    kt = kernel_table_dense(iso)
    witness = check_integrality(kt)
    if witness is not None:
        return Verdict(FAILS_INTEGRALITY, witness)
    witness = check_separation(kt)
    if witness is not None:
        return Verdict(FAILS_SEPARATION, witness)
    return Verdict(PERFECT)


@lru_cache(maxsize=None)
def _mult_table(p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    mt = tuple(tuple(i * m % p for i in range(p)) for m in range(p))
    mod2 = tuple(range(p)) * 2
    return mt, mod2


def candidate_is_perfect(p: int, image: tuple[int, ...], signs: tuple[int, ...]) -> bool:
    """Brute-force perfectness test for a raw (image, signs) candidate.

    Equivalent to ``is_perfect(SignedIsometry(p, image, signs)).ok`` but
    works on plain integer count vectors and stops at the first offending
    kernel entry.  For homogeneous signs the first kernel row and column
    are forced (sign * p at (0, 0), zero elsewhere: each is a geometric sum
    over a full set of roots of unity), so the scan starts at entry (1, 1);
    mixed-sign candidates are scanned in full from (0, 0).
    """
    mt, mod2 = _mult_table(p)
    homog = signs.count(signs[0]) == p
    start = 1 if homog else 0
    for m in range(start, p):
        mrow = mt[m]
        base = [mrow[i] for i in image]
        for n in range(start, p):
            krow = mt[n]
            counts = [0] * p
            for k in range(p):
                counts[mod2[base[k] + krow[k]]] += signs[k]
            last = counts[p - 1]
            nonzero = False
            for c in counts:
                d = c - last
                if d % p:
                    return False
                if d:
                    nonzero = True
            if nonzero and ((m == 0) != (n == 0)):
                return False
    return True


def perfect_candidates_walk(p: int) -> list[SignedIsometry]:
    """Every perfect signed candidate, found by testing all 2^p * p! of them.

    Permutations are walked in lexicographic order and, within each, the
    sign patterns in ``product((1, -1))`` order.
    """
    return [
        SignedIsometry(p, image, signs)
        for image in itertools.permutations(range(p))
        for signs in itertools.product((1, -1), repeat=p)
        if candidate_is_perfect(p, image, signs)
    ]


def perfect_forms_by_definition(p: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The classification at an odd prime p from the kernel's definition,
    with no pruning rule: the sign patterns whose entry (0, 0) is divisible
    by p, in ``product((1, -1))`` order, and the all-positive permutations
    with prefix (0, 1) that candidate_is_perfect passes, in lexicographic
    order.  It tests all 2^p patterns and all (p-2)! such permutations.

    With E(m, n) = sum_k sign[k] * zeta^(image[k]*m + k*n), a signed map
    is perfect when every entry is divisible by p and every entry with
    exactly one of m, n zero is zero.  Three facts carry the verdicts
    returned here to every signed map; none of them uses the rule of
    pigroup.iter_perfect ("injective or constant").

      * Value-affine invariance.  For a unit u and any a, the map with
        image k -> u*image[k] + a (mod p) and the same signs has entry
        E'(m, n) = zeta^(a*m) * sigma_u(E(m, n/u)): both are
        sum_k sign[k] * zeta^(a*m + u*image[k]*m + k*n).  zeta^(a*m) is a
        unit, and sigma_u is a ring automorphism of Z[zeta] fixing Z, so it
        maps p*Z[zeta] onto itself and only zero to zero.  So E'(m, n) is
        divisible by p, or zero, exactly when E(m, n/u) is.  As n runs over
        Z/p so does n/u, and n/u = 0 exactly when n = 0, so both maps are
        perfect or neither is.  Every permutation x is the image, under
        u = x[1] - x[0] and a = x[0], of exactly one permutation with prefix
        (0, 1), (x - x[0]) / (x[1] - x[0]), and distinct pairs (u, a) give
        distinct images (a is the image of 0, u + a that of 1).
      * Negation.  Negating every sign negates every entry, which keeps
        divisibility by p and zero entries: an all-negative map is perfect
        exactly when the all-positive map on its image is.
      * Mixed signs.  Every exponent of E(0, 0) is 0, so E(0, 0) is
        sum_k sign[k] whatever the image.  With p odd and mixed signs that
        is a sum of p terms +-1, odd, so nonzero, and at most p - 2 in
        size, so not divisible by p: the map fails integrality.  The first
        list checks this for every pattern; it holds only the two equal
        ones exactly when the fact holds at p.

    So the perfect signed maps are the all-positive and all-negative maps
    on the images of the returned permutations under all p(p-1) pairs
    (u, a), each once.
    """
    signs = [s for s in itertools.product((1, -1), repeat=p) if sum(s) % p == 0]
    ones = (1,) * p
    images = ((0, 1, *rest) for rest in itertools.permutations(range(2, p)))
    return signs, [image for image in images if candidate_is_perfect(p, image, ones)]


def perfect_images_full_search(p: int, prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """The permutations whose maps k -> image[k] + c*k (mod p), c = 1..p-1,
    are each injective or constant, in lexicographic order, found by a
    depth-first search over the permutation tree (no normal form).

    Each c keeps the bitmask of the values image[k] + c*k over the placed k,
    and a branch is cut once some c is neither injective (d + 1 values on
    d + 1 points) nor constant (one value).

    With a ``prefix``, depth d < len(prefix) tries only the value prefix[d],
    so the search covers the subtree of the permutations that start with
    it: ``(0, 1)[:p]`` gives the normal forms that pigroup._normal_forms
    finds, in its order.
    """
    bits = [1 << w for w in range(p)] * 2
    steps = [[c * d % p for c in range(1, p)] for d in range(p)]
    image: list[int] = []
    found: list[tuple[int, ...]] = []

    def extend(masks: list[int], used: int) -> None:
        d = len(image)
        if d == p:
            found.append(tuple(image))
            return
        for v in (prefix[d],) if d < len(prefix) else range(p):
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
                extend(grown, used | bits[v])
                image.pop()

    extend([0] * (p - 1), 0)
    return found


def _compose_plain(lhs, rhs):
    """lhs after rhs, on plain (image, signs) pairs: k goes through rhs first."""
    (li, ls), (ri, rs) = lhs, rhs
    return tuple(li[j] for j in ri), tuple(s * ls[j] for j, s in zip(ri, rs))


def _closed_form_coords(p: int, elem) -> tuple[int, int, int] | None:
    """(eps, a, u) when elem is k -> eps * (a + u*k), else None."""
    image, signs = elem
    eps, a, u = signs[0], image[0], (image[1] - image[0]) % p
    if signs == (eps,) * p and image == tuple((a + u * k) % p for k in range(p)):
        return eps, a, u
    return None


def structure_verdicts(p: int, found: list[SignedIsometry]) -> tuple[bool, bool]:
    """The semidirect_law and negid_central verdicts of verify, from every pair.

    semidirect_law: every inverse lies in the set, every element has affine
    coordinates, every ordered pair composes into the set with coordinates
    (eps*eps', a + u*a', u*u'), scaling by u conjugates the shift by a to the
    shift by a*u, and the two families meet only in the identity.  The last
    two conditions are on shifts and scalings built here, not on the set, so
    they hold at every prime and never change the verdict; verify leaves them
    out (the law on the set implies both for its own elements), and this
    reference keeps them.
    negid_central: negation is a non-trivial involution and lies in the set.
    It commutes with every signed map, so commuting with the elements can
    never fail and is left to the tests.  Elements are plain (image, signs)
    tuples throughout.
    """
    elems = [(iso.image, iso.signs) for iso in found]
    members = set(elems)
    ones = (1,) * p
    identity = (tuple(range(p)), ones)

    def inverse(elem):
        image, signs = elem
        back = sorted(range(p), key=image.__getitem__)
        return tuple(back), tuple(signs[k] for k in back)

    semidirect = all(inverse(e) in members for e in elems)
    coord_of = {e: _closed_form_coords(p, e) for e in elems}
    if None in coord_of.values():
        semidirect = False
    else:
        for x in elems:
            ex, ax, ux = coord_of[x]
            for y in elems:
                ey, ay, uy = coord_of[y]
                got = coord_of.get(_compose_plain(x, y))
                if got != (ex * ey, (ax + ux * ay) % p, ux * uy % p):
                    semidirect = False

    def shift(a):
        return tuple((a + k) % p for k in range(p)), ones

    def scale(u):
        return tuple(u * k % p for k in range(p)), ones

    for a in range(p):
        for u in range(1, p):
            conj = _compose_plain(_compose_plain(scale(u), shift(a)), scale(pow(u, -1, p)))
            if conj != shift(a * u % p):
                semidirect = False
    shifts = {shift(a) for a in range(p)}
    if shifts & {scale(u) for u in range(1, p)} != {identity}:
        semidirect = False

    negid = (tuple(range(p)), (-1,) * p)
    negid_central = _compose_plain(negid, negid) == identity and negid != identity
    if negid not in members:
        negid_central = False
    return semidirect, negid_central


def random_cycint(rng: Random, p: int, bound: int = 0) -> CycInt:
    """Random element with raw coefficients in [-bound, bound] (default 3p)."""
    bound = bound or 3 * p
    return CycInt(p, [rng.randint(-bound, bound) for _ in range(p)])


def all_signed_isometries(p: int):
    """Every signed map at p: images in lexicographic order and, within each,
    the sign patterns in ``product((1, -1))`` order."""
    for image in itertools.permutations(range(p)):
        for signs in itertools.product((1, -1), repeat=p):
            yield SignedIsometry(p, image, signs)


def random_isometry(rng: Random, p: int) -> SignedIsometry:
    image = list(range(p))
    rng.shuffle(image)
    signs = [rng.choice((1, -1)) for _ in range(p)]
    return SignedIsometry(p, image, signs)


def random_generalized_character(rng: Random, p: int, bound: int = 3):
    return generalized_character(p, [rng.randint(-bound, bound) for _ in range(p)])
