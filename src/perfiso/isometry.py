"""Signed isometries of the character lattice and their perfectness checks.

Every isometry of the lattice spanned by the irreducible characters is a
signed bijection: index k goes to sign[k] times the character image[k].
Each such map I owns an exact p x p kernel, entry (m, n) being the sum over
k of sign[k] * zeta^(image[k]*m + k*n).  Rows 0 and 1 are counted; every
other row is the image of row 1 under the Galois action of Aut(C_p), which
sends zeta to zeta^m.  The kernel drives the forward transform, from
source-side to image-side class functions.  It also carries the two
perfectness criteria:

  * integrality  - every kernel entry divisible by p (the common centralizer
    order in an abelian group of order p);
  * separation   - nonzero entries never pair the identity with a
    non-identity element.

``is_perfect`` counts and scans rows 0 and 1 only, which decide both
criteria and the first failing entry; ``is_perfect_via_spaces`` re-derives
the verdict from the forward transform on the indicator basis, whose images
are the kernel's columns.  It derives each column from rows 0 and 1 only
when its scan reaches it and stops at the first failing entry, so it builds
no full kernel, yet checks every Galois-derived entry it reads.
"""

from functools import lru_cache, reduce
from operator import add, index, itemgetter, mul

from .characters import ClassFunction, character
from .cyclotomic import CycInt, require_prime

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

__all__ = [
    "PERFECT",
    "FAILS_INTEGRALITY",
    "FAILS_SEPARATION",
    "NonIntegralTransform",
    "InternalError",
    "SignedIsometry",
    "KernelTable",
    "Verdict",
    "kernel_table",
    "forward_transform",
    "is_perfect",
    "is_perfect_via_spaces",
]

PERFECT = "perfect"
FAILS_INTEGRALITY = "fails_integrality"
FAILS_SEPARATION = "fails_separation"


class NonIntegralTransform(ArithmeticError):
    """A transform value failed the required division by p."""

    def __init__(self, point: int) -> None:
        super().__init__(f"transform value at element index {point} is not divisible by p")
        self.point = point


class InternalError(RuntimeError):
    """An internal consistency check failed: a defect, never a property of the input."""


class SignedIsometry:
    """A signed bijection on character indices 0..p-1."""

    __slots__ = ("_p", "_image", "_signs")

    def __init__(self, p: int, image: "Iterable[int]", signs: "Iterable[int]") -> None:
        p = require_prime(p)
        image_t = tuple(map(index, image))
        signs_t = tuple(map(index, signs))
        if len(image_t) != p or sorted(image_t) != list(range(p)):
            raise ValueError(f"image must be a permutation of 0..{p - 1}, got {image_t}")
        if len(signs_t) != p or any(s not in (1, -1) for s in signs_t):
            raise ValueError(f"signs must be +1/-1 entries of length {p}, got {signs_t}")
        self._p = p
        self._image = image_t
        self._signs = signs_t

    @classmethod
    def _unchecked(cls, p: int, image: tuple[int, ...], signs: tuple[int, ...]) -> "SignedIsometry":
        """Build from tuples already known to be valid, skipping validation.

        Only for results of group operations on valid isometries, and for
        the orbit images of pigroup._orbit, which its docstring proves are
        permutations.
        """
        iso = object.__new__(cls)
        iso._p = p
        iso._image = image
        iso._signs = signs
        return iso

    @property
    def p(self) -> int:
        return self._p

    @property
    def image(self) -> tuple[int, ...]:
        return self._image

    @property
    def signs(self) -> tuple[int, ...]:
        return self._signs

    @classmethod
    def identity(cls, p: int) -> "SignedIsometry":
        return cls(p, range(p), (1,) * p)

    @classmethod
    def from_literal(cls, p: int, text: str) -> "SignedIsometry":
        """Parse a literal like "+2,+0,+1".

        Position k carries the signed image of index k; signs are mandatory
        and whitespace is ignored.  Leading zeros are accepted ("+01" is
        index 1), since the index they spell is unambiguous.  Once they are
        stripped, an index with more digits than p - 1 is out of range and
        is rejected before int() reads it, so no index meets the
        interpreter's limit on the length of integer strings.
        """
        p = require_prime(p)
        compact = "".join(str(text).split())
        tokens = compact.split(",") if compact else []
        if len(tokens) != p:
            raise ValueError(f"literal has {len(tokens)} entries, expected {p}")
        width = len(str(p - 1))
        image: list[int] = []
        signs: list[int] = []
        for tok in tokens:
            # ASCII digits only: str.isdigit alone also accepts "１" and "²"
            if not (tok[:1] in ("+", "-") and tok[1:].isascii() and tok[1:].isdigit()):
                raise ValueError(f"bad literal entry {tok!r}; expected a signed index like +2")
            digits = tok[1:].lstrip("0") or "0"
            idx = int(digits) if len(digits) <= width else p
            if idx >= p:
                raise ValueError(f"index {digits} out of range for p={p}")
            signs.append(1 if tok[0] == "+" else -1)
            image.append(idx)
        return cls(p, image, signs)

    def as_literal(self) -> str:
        return ",".join(
            f"{'+' if s == 1 else '-'}{i}" for i, s in zip(self._image, self._signs)
        )

    def image_character(self, k: int) -> ClassFunction:
        """The image of character k: sign[k] times character image[k]."""
        return self._signs[k] * character(self._p, self._image[k])

    def compose(self, other: "SignedIsometry") -> "SignedIsometry":
        """self after other: index k goes through other first, then self."""
        if self._p != other._p:
            raise ValueError(f"mismatched moduli: p={self._p} vs p={other._p}")
        through = itemgetter(*other._image)  # p >= 2, so it returns a tuple
        signs = tuple(map(mul, other._signs, through(self._signs)))
        return SignedIsometry._unchecked(self._p, through(self._image), signs)

    def invert(self) -> "SignedIsometry":
        image = [0] * self._p
        signs = [1] * self._p
        for k, i in enumerate(self._image):
            image[i] = k
            signs[i] = self._signs[k]
        return SignedIsometry._unchecked(self._p, tuple(image), tuple(signs))

    def __neg__(self) -> "SignedIsometry":
        return SignedIsometry._unchecked(self._p, self._image, tuple(-s for s in self._signs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedIsometry):
            return NotImplemented
        return (
            self._p == other._p
            and self._image == other._image
            and self._signs == other._signs
        )

    def __hash__(self) -> int:
        return hash((self._p, self._image, self._signs))

    def __repr__(self) -> str:
        return f"SignedIsometry(p={self._p}, literal={self.as_literal()!r})"


# The records below are tuples with named fields, written out rather than
# built by typing.NamedTuple, whose import every CLI child would pay for.


class KernelTable(tuple):
    """Exact p x p kernel; entry [m][n] pairs element m (image side) with n (source side)."""

    __slots__ = ()

    def __new__(cls, p: int, entries: tuple[tuple[CycInt, ...], ...]) -> "KernelTable":
        return tuple.__new__(cls, (p, entries))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"KernelTable(p={self[0]!r}, entries={self[1]!r})"

    p = property(itemgetter(0))
    entries = property(itemgetter(1))


class Verdict(tuple):
    """Outcome of a perfectness check; witness is a kernel-entry index on failure."""

    __slots__ = ()

    def __new__(cls, status: str, witness: tuple[int, int] | None = None) -> "Verdict":
        return tuple.__new__(cls, (status, witness))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Verdict(status={self[0]!r}, witness={self[1]!r})"

    status = property(itemgetter(0))
    witness = property(itemgetter(1))

    @property
    def ok(self) -> bool:
        return self.status == PERFECT


def _counted_row(iso: SignedIsometry, m: int) -> tuple[CycInt, ...]:
    """Row m of the kernel by the count loop: sign[k] lands at power image[k]*m + k*n."""
    p = iso.p
    image, signs = iso.image, iso.signs
    base = [image[k] * m % p for k in range(p)]
    row = []
    for n in range(p):
        counts = [0] * p
        for k in range(p):
            counts[(base[k] + k * n) % p] += signs[k]
        row.append(_bounded(CycInt(p, counts), m, n))
    return tuple(row)


@lru_cache(maxsize=1)
def _counted_rows(iso: SignedIsometry) -> tuple[tuple[CycInt, ...], tuple[CycInt, ...]]:
    """Rows 0 and 1, counted once for the two checkers of the same map."""
    return _counted_row(iso, 0), _counted_row(iso, 1)


def _bounded(entry: CycInt, m: int, n: int) -> CycInt:
    c, bound = entry.coeffs, 2 * entry.p
    if max(c) > bound or min(c) < -bound:
        raise InternalError(f"kernel entry ({m}, {n}) exceeds the coefficient bound 2p")
    return entry


def kernel_table(iso: SignedIsometry) -> KernelTable:
    """Build the kernel attached to a signed isometry.

    Entry (m, n) accumulates sign[k] at the power image[k]*m + k*n (mod p)
    over all source indices k.  Rows 0 and 1 are counted that way; every
    other row comes from row 1 by the Galois action of Aut(C_p).  For m
    prime to p, sigma_m (zeta -> zeta^m) sends entry (1, n') to the sum of
    sign[k] * zeta^(image[k]*m + k*n'*m), which is entry (m, n'*m); so
    entry (m, n) = sigma_m(entry (1, n/m)).  sigma_m is a ring automorphism,
    so sigma_m(0) = 0: a zero entry of row 1 is carried into each derived
    row as the same object, with no Galois call.  A perfect map is affine,
    and its row 1 has one nonzero entry, so its derived rows cost one
    Galois image each.  Entries are signed sums of p roots of unity, so
    normalized coefficients stay within 2p in magnitude; every counted
    entry and every nonzero derived entry is checked against that
    exactness bound, and InternalError is raised if one ever leaves it.
    """
    p = iso.p
    rows = [_counted_row(iso, 0), _counted_row(iso, 1)]
    row1 = rows[1]
    zero: list[int] = []
    nonzero: list[int] = []
    for n, entry in enumerate(row1):
        (nonzero if entry else zero).append(n)
    for m in range(2, p):
        row: list = [None] * p  # n -> n*m permutes 0..p-1: every slot is filled
        for n in zero:
            row[n * m % p] = row1[n]
        for n in nonzero:
            j = n * m % p
            row[j] = _bounded(row1[n].galois(m), m, j)
        rows.append(tuple(row))
    return KernelTable(p, tuple(rows))


def _require_compatible(kt: KernelTable, f: ClassFunction) -> None:
    if kt.p != f.p:
        raise ValueError(f"mismatched moduli: p={kt.p} vs p={f.p}")


def forward_transform_raw(kt: KernelTable, beta: ClassFunction) -> tuple[CycInt, ...]:
    """Un-divided forward sums; the exact transform divides each by p.

    Output index m carries the sum over n of entry (m, -n) times beta(g^n).
    Only the nonzero values of beta enter the sums, each sum starts from
    its first term, and a value of 1 adds its entry without a product, so
    the image of an indicator is one kernel column, with no arithmetic.
    """
    _require_compatible(kt, beta)
    p = kt.p
    one = CycInt.one(p)
    terms = [((p - n) % p, None if v == one else v) for n, v in enumerate(beta.values) if v]
    if not terms:
        return (CycInt.zero(p),) * p
    return tuple(
        reduce(add, [row[col] if v is None else row[col] * v for col, v in terms])
        for row in kt.entries
    )


def forward_transform(kt: KernelTable, beta: ClassFunction) -> ClassFunction:
    """Apply the kernel to a source-side class function, exactly.

    Raises NonIntegralTransform at the first output index whose sum is not
    divisible by p.
    """
    values = []
    for m, s in enumerate(forward_transform_raw(kt, beta)):
        quotient = s.divide_exact_by_p()
        if quotient is None:
            raise NonIntegralTransform(m)
        values.append(quotient)
    return ClassFunction(kt.p, tuple(values))


def is_perfect(iso: SignedIsometry) -> Verdict:
    """Perfectness of the isometry's kernel; integrality is checked first.

    Only rows 0 and 1 are counted and scanned, and the verdict and witness
    are those of a row-major scan of the whole kernel, integrality first.
    For m >= 2, entry (m, n) = sigma_m(entry (1, n/m)) (see kernel_table),
    and sigma_m is a ring automorphism of Z[zeta] fixing Z: it maps
    p*Z[zeta] onto itself and only zero to zero.  So an entry of row m is
    divisible by p, or nonzero, exactly when its preimage in row 1 is, and
    row m fails integrality iff row 1 does.  A row m >= 1 can fail
    separation only at (m, 0), which is nonzero iff (1, 0) is.  Every
    failure in a row m >= 2 thus has one in row 1 before it, and the first
    row-major failure of either kind lies in row 0 or row 1.
    """
    rows = _counted_rows(iso)
    for m, row in enumerate(rows):
        for n, entry in enumerate(row):
            if not entry.is_multiple_of_p:
                return Verdict(FAILS_INTEGRALITY, (m, n))
    for m, row in enumerate(rows):
        for n, entry in enumerate(row):
            if entry and ((m == 0) != (n == 0)):
                return Verdict(FAILS_SEPARATION, (m, n))
    return Verdict(PERFECT)


def is_perfect_via_spaces(iso: SignedIsometry) -> Verdict:
    """Perfectness via the forward transform on the indicator basis.

    Integral-valued class functions are integer combinations of indicators,
    and those supported on elements of order prime to p are the multiples
    of the identity indicator.  So integrality holds exactly when every
    indicator image has all sums divisible by p, and separation exactly
    when the identity indicator's image stays at the identity.  The forward
    sums of indicator(p, j) are column -j of the kernel, so the images are
    read here as columns, j = 0, 1, ..., each derived from the counted rows
    0 and 1 only when the scan reaches it.  The images read every entry of
    the kernel, the rows derived by the Galois action included, so this
    checker also tests those rows against is_perfect, which reads the same
    rows 0 and 1.  The scan order (column -j for j = 0, 1, ..., entries in
    row order, integrality on every column before separation on column 0) is
    that of a scan of all p images built first, so stopping at the first
    failing entry gives the same verdict and witness.  A zero entry is
    divisible by p, so it is skipped by its truth value.  A map that fails
    stops in column 0 or -1: with mixed signs at (0, 0) or, for p = 2, at
    (1, 0) (see below); with equal signs column 0 passes, and some entry
    (1, n), n != 0, fails (is_perfect), which column -1 reads as the
    preimage of entry (-1/n, -1).  Column 0 is derived again for
    separation; once integrality holds, entry (1, 0) is zero for odd p (the
    signs are equal, see below) and p = 2 has no derived rows, so that
    costs no Galois image.  The adjoint (transposed) side would add
    nothing, not even another witness:

      * The p columns hold every entry and decide integrality alone.
      * For m, n != 0, entries (m, 0) and (0, n) weight each p-th root of
        unity by one sign, so they vanish exactly when the signs are equal:
        column 0 is zero off the identity iff row 0 is.
      * A scan of both sides (column -j, then row -j, for each j) never
        fails first on a row.  With equal signs row 0 and column 0 pass,
        and entry (m, n) fails iff k -> image[k] + c*k, c = n/m, is neither
        injective nor constant (see pigroup.iter_perfect); column -j and
        row -j each meet every c, so both fail or neither.  With mixed
        signs and p odd, entry (0, 0) = sum_k sign[k] is odd and below p in
        size, so it fails first; with p = 2 every entry is even, and entry
        (1, 0) fails separation.  Witnesses may differ from is_perfect's.
    """
    p = iso.p
    row0, row1 = _counted_rows(iso)
    live = [bool(entry) for entry in row1]
    inverse = [pow(m, -1, p) if m else 0 for m in range(p)]

    def nonzero_column(c: int) -> "Iterator[tuple[int, CycInt]]":
        # (m, entry (m, c)) for the nonzero entries, in row order; entry
        # (m, c) for m >= 2 is sigma_m(entry (1, c/m)) (see kernel_table),
        # and sigma_m sends only zero to zero, so a zero entry of row 1 is
        # passed over with no Galois call
        for m, entry in enumerate((row0[c], row1[c])):
            if entry:
                yield m, entry
        for m in range(2, p):
            n = c * inverse[m] % p
            if live[n]:
                yield m, _bounded(row1[n].galois(m), m, c)

    for j in range(p):
        c = -j % p
        for m, entry in nonzero_column(c):
            if not entry.is_multiple_of_p:
                return Verdict(FAILS_INTEGRALITY, (m, c))
    for m, _ in nonzero_column(0):
        if m:
            return Verdict(FAILS_SEPARATION, (m, 0))
    return Verdict(PERFECT)
