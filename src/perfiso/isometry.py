"""Signed isometries of the character lattice and their perfectness checks.

Every isometry of the lattice spanned by the irreducible characters is a
signed bijection: index k goes to sign[k] times the character image[k].
Each such map I owns an exact p x p kernel, entry (m, n) being the sum over
k of sign[k] * zeta^(image[k]*m + k*n).  Rows 0 and 1 are counted; every
other row is the image of row 1 under the Galois action of Aut(C_p), which
sends zeta to zeta^m.  A row is held as its (column, entry) pairs over
its nonzero entries; kernel_table alone fills in the zeros.  The kernel
drives the forward transform, from source-side to image-side class
functions.  It also carries the two perfectness criteria:

  * integrality  - every kernel entry divisible by p (the common centralizer
    order in an abelian group of order p);
  * separation   - nonzero entries never pair the identity with a
    non-identity element.

``is_perfect`` scans the nonzero entries of the counted rows 0 and 1 only,
which decide both criteria and the first failing entry, and counts no
entry after that one.
``is_perfect_via_spaces`` checks it with no ring arithmetic: it reads the
rule proved in pigroup.iter_perfect off the image and the signs, and
returns the verdict and witness of the forward transform on the indicator
basis, whose images are the kernel's columns.
"""

from itertools import repeat
from operator import index, itemgetter, mul

from . import InternalError, Record, require_prime
from .cyclotomic import CycInt, _galois_images, _zeta_sums

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    # characters is imported only by forward_transform: the checks, the
    # group and the CLI commands run without it
    from .characters import ClassFunction

__all__ = [
    "PERFECT",
    "FAILS_INTEGRALITY",
    "FAILS_SEPARATION",
    "NonIntegralTransform",
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


class SignedIsometry(Record):
    """A signed bijection on character indices 0..p-1."""

    __slots__ = ()

    def __new__(cls, p: int, image: "Iterable[int]", signs: "Iterable[int]") -> "SignedIsometry":
        p = require_prime(p)
        image = tuple(map(index, image))
        signs = tuple(map(index, signs))
        if len(image) != p or sorted(image) != list(range(p)):
            raise ValueError(f"image must be a permutation of 0..{p - 1}, got {image}")
        if len(signs) != p or any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +1/-1 entries of length {p}, got {signs}")
        return tuple.__new__(cls, (p, image, signs))

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
        return ",".join(f"{'+' if s == 1 else '-'}{i}" for i, s in zip(self.image, self.signs))

    def compose(self, other: "SignedIsometry") -> "SignedIsometry":
        """self after other: index k goes through other first, then self."""
        if self.p != other.p:
            raise ValueError(f"mismatched moduli: p={self.p} vs p={other.p}")
        through = itemgetter(*other.image)  # p >= 2, so it returns a tuple
        signs = tuple(map(mul, other.signs, through(self.signs)))
        return SignedIsometry(self.p, through(self.image), signs)

    def invert(self) -> "SignedIsometry":
        image = [0] * self.p
        signs = [1] * self.p
        for k, i in enumerate(self.image):
            image[i] = k
            signs[i] = self.signs[k]
        return SignedIsometry(self.p, image, signs)


class KernelTable(Record):
    """Exact p x p kernel; entry [m][n] pairs element m (image side) with n (source side)."""

    __slots__ = ()

    def __new__(cls, p: int, entries: tuple[tuple[CycInt, ...], ...]) -> "KernelTable":
        return tuple.__new__(cls, (p, entries))


class Verdict(Record):
    """Outcome of a perfectness check; witness is a kernel-entry index on failure."""

    __slots__ = ()

    def __new__(cls, status: str, witness: tuple[int, int] | None = None) -> "Verdict":
        return tuple.__new__(cls, (status, witness))

    @property
    def ok(self) -> bool:
        return self.status == PERFECT


def _counted_row(iso: SignedIsometry, m: int) -> "Iterator[tuple[int, tuple[int, ...]]]":
    """Row m of the kernel by count: its nonzero entries as (n, entry) pairs,
    in column order.

    Entry (m, n) is the sum of sign[k] * zeta^(image[k]*m + k*n), as its
    normalized coefficient tuple, which is zero when all its coefficients
    are; a tuple of zeros is truthy, so the test is any(entry).  Each entry
    is counted, and checked against the bound, only when it is asked for,
    so a caller that stops at a column counts none after it.
    """
    p, image, signs = iso
    entries = _zeta_sums(p, signs, [i * m for i in image], range(p))
    return ((n, _bounded(entry, m, n)) for n, entry in enumerate(entries) if any(entry))


def _bounded(entry: "tuple[int, ...]", m: int, n: int) -> "tuple[int, ...]":
    bound = len(entry)
    if max(entry) > bound or min(entry) < -bound:
        raise InternalError(f"kernel entry ({m}, {n}) exceeds the coefficient bound p")
    return entry


def _kernel_rows(iso: SignedIsometry) -> "Iterator[list[tuple[int, tuple[int, ...]]]]":
    """The rows of the kernel attached to a signed isometry, in order.

    Each row is a list of (column, entry) pairs, one for each of the row's
    nonzero entries, each entry a normalized coefficient tuple.  Entry
    (m, n) accumulates sign[k] at the power image[k]*m + k*n (mod p) over
    all source indices k.  Rows 0 and 1 are counted that way
    (_counted_row), their pairs in column order; every other row comes
    from row 1 by the Galois action of Aut(C_p).  For m prime to p,
    sigma_m (zeta -> zeta^m) sends entry (1, n) to the sum of
    sign[k] * zeta^(image[k]*m + k*n*m), which is entry (m, n*m).  sigma_m
    is a ring automorphism, so it maps only zero to zero, and n -> n*m
    permutes the columns: row m holds sigma_m(entry (1, n)) at column n*m
    for each nonzero entry of row 1, in row 1's order, and nothing else.
    Each derived row is one cyclotomic._galois_images call on the nonzero
    entries of row 1, which builds one gather for the row; a perfect map
    is affine, and its row 1 has one nonzero entry.

    Every entry a row holds is checked against the exactness bound p, its
    length, and InternalError is raised if one ever leaves it.  The bound
    holds: a counted entry is a signed count vector of p terms, one +-1
    for each source index k, and its normalized coefficient j is
    count_j - count_(p-1).  Those two counts share the terms placed at j
    and at p - 1, at most p of them, so the coefficient lies in -p..p.  A
    derived entry is the same element as the counted entry (m, n*m), and
    the normal form is unique, so it meets the same bound.  Real kernels
    reach it: the identity's entry (0, 0) is p.  Each row is made when it
    is asked for, so a caller that drops a row before asking for the next
    holds one derived row at a time.
    """
    p = iso.p
    yield list(_counted_row(iso, 0))
    row1 = list(_counted_row(iso, 1))
    yield row1
    entries = [e for _, e in row1]
    for m in range(2, p):
        images = _galois_images(p, m, entries)
        yield [(j, _bounded(e, m, j)) for (n, _), e in zip(row1, images) for j in (n * m % p,)]


def kernel_table(iso: SignedIsometry) -> KernelTable:
    """The kernel attached to a signed isometry: the rows of _kernel_rows, held whole.

    Each entry a row holds becomes a CycInt, and one zero object fills
    every column a row does not hold.
    """
    p = iso.p
    zero = CycInt.zero(p)
    rows = ({n: CycInt(p, entry) for n, entry in row} for row in _kernel_rows(iso))
    return KernelTable(p, tuple(tuple(map(row.get, range(p), repeat(zero))) for row in rows))


def forward_transform(kt: KernelTable, beta: "ClassFunction") -> "ClassFunction":
    """Apply the kernel to a source-side class function, exactly.

    Output index m is the sum over n of entry (m, -n) times beta(g^n),
    divided by p; only the nonzero values of beta enter the sums.  Raises
    NonIntegralTransform at the first output index whose sum is not
    divisible by p, and sums no row after it.
    """
    from .characters import ClassFunction

    if kt.p != beta.p:
        raise ValueError(f"mismatched moduli: p={kt.p} vs p={beta.p}")
    p = kt.p
    zero = CycInt.zero(p)
    terms = [(-n % p, v) for n, v in enumerate(beta.values) if v]
    values = []
    for m, row in enumerate(kt.entries):
        quotient = sum([row[col] * v for col, v in terms], zero).divide_exact_by_p()
        if quotient is None:
            raise NonIntegralTransform(m)
        values.append(quotient)
    return ClassFunction(p, tuple(values))


def is_perfect(iso: SignedIsometry) -> Verdict:
    """Perfectness of the isometry's kernel; integrality is checked first.

    Only rows 0 and 1 are scanned, as _counted_row counts them, and the
    verdict and witness are those of a row-major scan of the whole kernel,
    integrality first.  Those rows give only their nonzero entries, in
    column order, each a normalized coefficient tuple, which is divisible
    by p exactly when each of its coefficients is (CycInt.divide_exact_by_p
    proves it).  A zero entry is divisible by p and fails no separation, so
    the scan loses nothing by skipping it.  For m >= 2,
    entry (m, n) = sigma_m(entry (1, n/m)), as _kernel_rows derives it
    through cyclotomic._galois_images, and sigma_m is a ring automorphism
    of Z[zeta] fixing Z: it maps p*Z[zeta] onto itself and only zero to
    zero.  So an entry of row m is divisible by p, or nonzero, exactly
    when its preimage in row 1 is, and row m fails integrality iff row 1
    does.  A row m >= 1 can fail separation only at (m, 0), which is
    nonzero iff (1, 0) is, and (1, 0) never decides the verdict.  With
    equal signs eps it is eps times the sum of all p-th roots of unity,
    0.  With mixed signs and p odd, (0, 0), the sum of the
    signs, is odd and below p in size, so it fails integrality first.  With
    mixed signs and p = 2, zeta = -1, every entry is a sum of two terms +-1
    and even, and (0, 1) = sign[0] - sign[1] = +-2 fails separation first.
    So separation is read from row 0 alone, and the first row-major failure
    of integrality lies in row 0 or row 1.  The scan stops at the first
    failure of integrality, which is the witness: no entry after it, in row
    0 or row 1, is counted or checked against the bound, as none of them
    can change the verdict.  Every entry that is counted is bounded.
    """
    p = iso.p
    separation = None  # the first separation failure, reported if integrality holds
    for m in (0, 1):
        for n, entry in _counted_row(iso, m):
            if any(map(p.__rmod__, entry)):  # a coefficient that p does not divide
                return Verdict(FAILS_INTEGRALITY, (m, n))
            if separation is None and m == 0 and n:
                separation = (m, n)
    return Verdict(FAILS_SEPARATION, separation) if separation else Verdict(PERFECT)


def is_perfect_via_spaces(iso: SignedIsometry) -> Verdict:
    """Perfectness by the rule of pigroup.iter_perfect, with no ring arithmetic.

    The verdict and witness are those of the forward transform on the
    indicator basis.  Integral-valued class functions are integer
    combinations of indicators, and those supported on the identity are
    the multiples of its indicator, so integrality holds exactly when every
    indicator image is divisible by p, and separation exactly when the
    identity indicator's image stays at the identity.  The image of
    indicator(p, j) is column -j of the kernel, and that check scans the
    columns j = 0, 1, ... in turn, entries in row order, for integrality,
    then column 0 for separation, and stops at the first failing entry
    (tests/oracles.cross_check_dense is that scan over a dense kernel).
    With E(m, n) = sum_k sign[k] * zeta^(image[k]*m + k*n) the entry
    (m, n), the scan ends as follows.

      * Mixed signs, p odd: E(0, 0) = sum_k sign[k], the first entry
        scanned, is odd and below p in size, so it fails integrality.
      * Mixed signs, p = 2: zeta = -1, so every entry is a sum of two
        terms +-1, even, and integrality passes.  E(1, 0), the one entry
        of column 0 off the identity, is sign[0] * (-1)^image[0] +
        sign[1] * (-1)^image[1] = +-2, since the images are 0 and 1 and the
        signs differ: it fails separation.
      * Equal signs eps: column 0 passes, as E(0, 0) = eps * p and, since
        image is a permutation, E(m, 0) for m != 0 is eps times the sum of
        all p-th roots of unity, 0; so separation passes too, and column
        -1 is the next column scanned.  Its first entry,
        E(0, -1) = eps * sum_k zeta^(-k), is 0.  For m != 0, iter_perfect
        proves that E(m, n) is divisible by p iff k -> image[k] + c*k,
        c = n/m, is injective or constant; in column -1, c = -1/m.  So the
        scan fails first at (m, p - 1) for the first m in 1..p-1 whose c
        fails.  If none does, every c != 0 passes, because m -> -1/m
        permutes the units, and c = 0 gives the permutation image: by
        iter_perfect's iff the map is perfect, no entry of any column
        fails, and the scan returns perfect.

    It shares no code with is_perfect, which counts kernel rows, so a
    defect in the count makes the two checkers disagree.
    """
    p, image, signs = iso
    if len(set(signs)) == 2:
        return Verdict(FAILS_SEPARATION, (1, 0)) if p == 2 else Verdict(FAILS_INTEGRALITY, (0, 0))
    for m in range(1, p):
        c = -pow(m, -1, p)
        if 1 < len({(i + c * k) % p for k, i in enumerate(image)}) < p:
            return Verdict(FAILS_INTEGRALITY, (m, p - 1))
    return Verdict(PERFECT)
