"""Tests for signed isometries, kernels, transforms and perfectness checks."""

from itertools import starmap
from operator import itemgetter
from random import Random

import pytest

from perfiso import isometry
from perfiso import (
    ClassFunction,
    CycInt,
    FAILS_INTEGRALITY,
    FAILS_SEPARATION,
    KernelTable,
    NonIntegralTransform,
    PERFECT,
    SignedIsometry,
    Verdict,
    character,
    forward_transform,
    gen_linear,
    gen_negid,
    generalized_character,
    indicator,
    is_perfect,
    is_perfect_via_spaces,
    kernel_table,
    zeta_pow,
)
from perfiso.isometry import InternalError
from oracles import (
    adjoint_transform,
    all_signed_isometries,
    cross_check_dense,
    divisible_by_p_oracle,
    forward_sums_dense,
    full_scan_verdict,
    kernel_table_dense,
    random_coeffs,
    random_isometry,
    split_scaling,
)

SEED = 20260809
DENSE_PRIMES = (2, 3, 5, 7, 11, 13, 23)


def _coeffs(values):
    """The plain entries of a class function's values or of a kernel row."""
    return tuple(value.coeffs for value in values)


def _kernel(kt):
    """The plain entries of a kernel table, row by row."""
    return tuple(map(_coeffs, kt.entries))


def affine_family(p, a, u):
    """k -> a + u*k (u prime to p), its negation and, for p >= 5, it with the images of 1 and 2 swapped."""
    image = [(a + u * k) % p for k in range(p)]
    maps = [SignedIsometry(p, image, (1,) * p), SignedIsometry(p, image, (-1,) * p)]
    if p >= 5:
        image[1], image[2] = image[2], image[1]
        maps.append(SignedIsometry(p, image, (1,) * p))
    return maps


# ---------------------------------------------------------------------------
# literals and group operations


def test_literal_roundtrip():
    iso = SignedIsometry.from_literal(3, "+2,+0,+1")
    assert iso.image == (2, 0, 1)
    assert iso.signs == (1, 1, 1)
    assert iso.as_literal() == "+2,+0,+1"


def test_literal_whitespace_ignored():
    iso = SignedIsometry.from_literal(3, "  +2 , -0,\t+1 ")
    assert iso.image == (2, 0, 1)
    assert iso.signs == (1, -1, 1)


@pytest.mark.parametrize(
    "text",
    [
        "+0,+1",
        "+0,+1,+2,+0",
        "0,1,2",
        "+0,+1,+5",
        "+0,+0,+1",
        "",
        "+0,,+1",
        "+\u0662,+0,+1",  # ARABIC-INDIC DIGIT TWO
        "-0,-\uff11,-2",  # FULLWIDTH DIGIT ONE
    ],
)
def test_bad_literals_rejected(text):
    with pytest.raises(ValueError):
        SignedIsometry.from_literal(3, text)


def test_long_literal_indices():
    # more digits than int() reads by default (4300): leading zeros are
    # stripped, and an index longer than p - 1 is out of range unread
    zeros = SignedIsometry.from_literal(3, "+0,+1,+" + "0" * 5000 + "2")
    assert zeros == gen_linear(3, 0)
    with pytest.raises(ValueError, match="^index 9{5000} out of range for p=3$"):
        SignedIsometry.from_literal(3, "+0,+1,+" + "9" * 5000)
    # as long as p - 1 once stripped: read, then compared with p
    rest = "".join(f",+{k}" for k in range(10))
    assert SignedIsometry.from_literal(11, "+00010" + rest).image[0] == 10
    with pytest.raises(ValueError, match="^index 11 out of range for p=11$"):
        SignedIsometry.from_literal(11, "+011" + rest)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SignedIsometry(3, (0, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        SignedIsometry(3, (0, 1, 2), (1, 1, 2))
    with pytest.raises(ValueError):
        SignedIsometry(4, (0, 1, 2, 3), (1, 1, 1, 1))
    # floats are rejected, not truncated to the identity
    with pytest.raises(TypeError):
        SignedIsometry(3, [0.0, 1.9, 2.2], [1, 1.0, 1])
    with pytest.raises(TypeError):
        SignedIsometry(3, (0, 1, 2), (1, 1.0, 1))


def test_group_operations_return_valid_isometries():
    # compose and invert skip re-validation; rebuild each result
    # through the validating constructor and check it pointwise
    rng = Random(SEED + 1)
    for p in (2, 3, 5, 7):
        identity = gen_linear(p, 0)
        for _ in range(25):
            iso = SignedIsometry(*random_isometry(rng, p))
            other = SignedIsometry(*random_isometry(rng, p))
            combined = iso.compose(other)
            inverse = iso.invert()
            assert iso.compose(inverse) == identity == inverse.compose(iso)
            for out in (combined, inverse):
                assert type(out.image) is tuple and type(out.signs) is tuple
                assert out == SignedIsometry(p, out.image, out.signs)
                assert hash(out) == hash(SignedIsometry(p, out.image, out.signs))
            for k in range(p):
                assert combined.image[k] == iso.image[other.image[k]]
                assert combined.signs[k] == other.signs[k] * iso.signs[other.image[k]]
                assert inverse.image[iso.image[k]] == k
                assert inverse.signs[iso.image[k]] == iso.signs[k]


def test_compose_sign_flip_examples():
    p = 2
    shift = SignedIsometry(p, (1, 0), (1, 1))
    assert shift.compose(shift) == gen_linear(p, 0)
    neg = gen_negid(3)
    assert neg.compose(neg) == gen_linear(3, 0)


def test_compose_rejects_mismatched_p():
    with pytest.raises(ValueError):
        gen_linear(3, 0).compose(gen_linear(5, 0))


# ---------------------------------------------------------------------------
# kernels


def test_identity_kernel_entries():
    for p in (2, 3, 5):
        kt = kernel_table(gen_linear(p, 0))
        for m in range(p):
            for n in range(p):
                expected = CycInt.from_int(p, p if (m + n) % p == 0 else 0)
                assert kt.entries[m][n] == expected


def test_shift_kernel_scales_identity_rows():
    p, a = 5, 2
    shift = SignedIsometry(p, tuple((a + k) % p for k in range(p)), (1,) * p)
    kt = kernel_table(shift)
    kt_id = kernel_table(gen_linear(p, 0))
    for m in range(p):
        scale = zeta_pow(p, m * a)
        for n in range(p):
            assert kt.entries[m][n] == scale * kt_id.entries[m][n]


def test_kernel_table_coefficient_bound_is_checked(monkeypatch):
    # a real check, not an assert, so it also holds under python -O
    real = isometry._zeta_sums
    monkeypatch.setattr(isometry, "_zeta_sums", lambda p, signs, *rest: real(p, [9 * s for s in signs], *rest))
    with pytest.raises(InternalError, match=r"kernel entry \(0, 0\) exceeds"):
        kernel_table(gen_linear(3, 0))


def test_negated_identity_kernel():
    kt = kernel_table(gen_negid(3))
    assert kt.entries[0][0] == CycInt.from_int(3, -3)


@pytest.mark.parametrize("p", DENSE_PRIMES)
def test_kernel_table_matches_dense_oracle(p):
    # 12 random signed maps per prime (84 in all), then the affine family
    rng = Random(SEED + 7 * p)
    isos = [SignedIsometry(*random_isometry(rng, p)) for _ in range(12)] + affine_family(p, 1, p - 1)
    for iso in isos:
        assert _kernel(kernel_table(iso)) == kernel_table_dense(iso), iso


def test_affine_kernel_derives_one_entry_per_row(spy):
    # sigma_m maps only 0 to 0: a derived row holds the images of row 1's
    # nonzero entries alone, and an affine map's row 1 has one.  For
    # k -> 1 + 2k, entry (m, n) is zeta^m * sum_k zeta^(k*(2m + n)), so row m
    # is the one pair (-2m, p*zeta^m)
    p = 23
    iso = SignedIsometry(p, [(1 + 2 * k) % p for k in range(p)], (1,) * p)
    calls = spy(isometry, "_galois_images")
    rows = list(isometry._kernel_rows(iso))
    assert calls == [(p, m, [p * zeta_pow(p, 1)]) for m in range(2, p)]
    assert [len(row) for row in rows] == [1] * p
    assert rows == [[(-2 * m % p, p * zeta_pow(p, m))] for m in range(p)]
    assert _kernel(kernel_table(iso)) == kernel_table_dense(iso)


@pytest.mark.parametrize("p", (2, 3, 5, 23, 53))
def test_kernel_rows_hold_exactly_the_nonzero_entries(p):
    # each row is a list of (column, entry) pairs over the nonzero entries of
    # the kernel counted by its definition, rows 0 and 1 in column order;
    # sorted by column, a derived row must match too, so a repeated or a
    # missing column fails.  For p <= 3 every map is affine, so the family
    # has no swapped-affine map there
    rng = Random(SEED + 13 * p)
    isos = affine_family(p, 1, 2 if p > 2 else 1)
    isos += [SignedIsometry(*random_isometry(rng, p)) for _ in range(2)]
    for iso in isos:
        dense = kernel_table_dense(iso)
        expected = [[(n, entry) for n, entry in enumerate(row) if any(entry)] for row in dense]
        rows = list(isometry._kernel_rows(iso))
        assert all(type(row) is list for row in rows), iso
        rows = [[(n, entry.coeffs) for n, entry in row] for row in rows]
        assert rows[:2] == expected[:2], iso
        assert [sorted(row, key=itemgetter(0)) for row in rows] == expected, iso


@pytest.mark.parametrize("p", (23, 53))
def test_kernel_derives_each_nonzero_entry_of_row_one(spy, p):
    # random signed maps (dense rows), the swapped-affine map (zeros and
    # nonzeros mixed) and the affine map (one nonzero entry): one call per
    # derived row, each mapping every nonzero entry of row 1 and no other
    rng = Random(SEED + 11 * p)
    affine, _, swapped = affine_family(p, 1, 2)
    isos = [SignedIsometry(*random_isometry(rng, p)) for _ in range(2)] + [swapped, affine]
    calls = spy(isometry, "_galois_images")
    for iso in isos:
        calls.clear()
        kt = kernel_table(iso)
        row1 = [entry for entry in kt.entries[1] if entry]
        assert calls == [(p, m, row1) for m in range(2, p)], iso
        assert _kernel(kt) == kernel_table_dense(iso), iso


def test_kernel_table_bound_is_checked_on_derived_entries(monkeypatch):
    # the one nonzero entry of row 1, p*zeta at n = 21, lands at (2, 42 mod 23)
    p = 23
    iso = SignedIsometry(p, [(1 + 2 * k) % p for k in range(p)], (1,) * p)
    real = isometry._galois_images
    monkeypatch.setattr(
        isometry, "_galois_images", lambda p, m, entries: [3 * x for x in real(p, m, entries)]
    )
    with pytest.raises(InternalError, match=r"kernel entry \(2, 19\) exceeds"):
        kernel_table(iso)


# ---------------------------------------------------------------------------
# transforms


def test_forward_transform_identity_kernel_is_identity_map():
    p = 3
    kt = kernel_table(gen_linear(p, 0))
    for k in range(p):
        chi = character(p, k)
        assert forward_transform(kt, chi) == chi
    delta = indicator(p, 1)
    assert forward_transform(kt, delta) == delta


def test_adjoint_transform_sign_flip():
    p = 3
    kt = kernel_table(gen_negid(p))
    expected = generalized_character(p, [-1, 0, 0]).values
    assert adjoint_transform(_kernel(kt), _coeffs(character(p, 0).values)) == _coeffs(expected)


def test_transform_raises_on_non_integral_values():
    p = 3
    ones = tuple(tuple(CycInt.one(p) for _ in range(p)) for _ in range(p))
    kt = KernelTable(p, ones)
    with pytest.raises(NonIntegralTransform) as info:
        forward_transform(kt, indicator(p, 0))
    assert info.value.point == 0
    sums = forward_sums_dense(_kernel(kt), _coeffs(indicator(p, 0).values))
    assert sums == [CycInt.one(p).coeffs] * p
    assert not any(divisible_by_p_oracle(p, s) for s in sums)


def test_non_integral_transform_names_its_point():
    error = NonIntegralTransform(7)
    assert (error.point, str(error)) == (7, "transform value at element index 7 is not divisible by p")


def test_forward_transform_rejects_mismatched_moduli():
    kt = kernel_table(gen_linear(3, 0))
    with pytest.raises(ValueError, match=r"^mismatched moduli: p=3 vs p=5$"):
        forward_transform(kt, character(5, 1))


def test_forward_transform_stops_at_first_non_integral_row():
    # row 1 cannot be summed (its entry has p = 5), so reaching it would
    # raise ValueError: the transform must raise at row 0 without summing it
    p = 3
    rows = (CycInt.one(p),) * p, (CycInt.one(5),) * p, (CycInt.zero(p),) * p
    with pytest.raises(NonIntegralTransform) as info:
        forward_transform(KernelTable(p, rows), indicator(p, 0))
    assert info.value.point == 0


def _random_class_function(rng, p):
    # a mix of zero, unit and general values
    pool = (CycInt.zero(p), CycInt.one(p), -CycInt.one(p))
    return ClassFunction(
        p,
        tuple(
            rng.choice(pool) if rng.random() < 0.6 else CycInt(p, random_coeffs(rng, p, 3 * p))
            for _ in range(p)
        ),
    )


@pytest.mark.parametrize("p", (2, 3, 5, 23))
def test_forward_sums_match_dense_oracle(p):
    rng = Random(SEED + p)
    reflection = SignedIsometry(p, [(1 - k) % p for k in range(p)], (1,) * p)
    isos = [SignedIsometry(*random_isometry(rng, p)), reflection]
    for iso in isos:
        kt = kernel_table(iso)
        kernel = _kernel(kt)
        betas = [indicator(p, j) for j in range(p)]
        betas += [_random_class_function(rng, p) for _ in range(4)]
        betas.append(ClassFunction(p, (CycInt.zero(p),) * p))
        for beta in betas:
            sums = forward_sums_dense(kernel, _coeffs(beta.values))
            # p * beta makes every sum a multiple of p, and its quotient the sum itself
            scaled = ClassFunction(p, [p * v for v in beta.values])
            assert [v.coeffs for v in forward_transform(kt, scaled).values] == sums
            failing = [m for m, s in enumerate(sums) if not divisible_by_p_oracle(p, s)]
            if failing:
                with pytest.raises(NonIntegralTransform) as info:
                    forward_transform(kt, beta)
                assert info.value.point == failing[0]
            else:
                got = [v.coeffs for v in forward_transform(kt, beta).values]
                assert got == [tuple(c // p for c in s) for s in sums]


def _cross_check_maps(p):
    """Affine k -> 1 + 2k, its negation, it swapped at 1 and 2, it with one
    sign flipped, the split scaling, and 20 random signed maps, every other
    one with a single sign."""
    rng = Random(SEED + 13 * p)
    isos = affine_family(p, 1, 2)
    mixed = list(isos[0].signs)
    mixed[rng.randrange(p)] = -1
    isos += [SignedIsometry(p, isos[0].image, mixed), SignedIsometry(*split_scaling(p))]
    for i in range(20):
        _, image, signs = random_isometry(rng, p)
        isos.append(SignedIsometry(p, image, signs if i % 2 else (signs[0],) * p))
    return isos


@pytest.mark.parametrize("p", (7, 11, 13, 23, 53, 101))
def test_lazy_cross_check_matches_dense_oracle(p):
    # status and witness of the rule equal those of the column scan over
    # entries counted by their definition, with no Galois action
    statuses, rows = set(), set()
    for iso in _cross_check_maps(p):
        verdict = is_perfect_via_spaces(iso)
        assert verdict == cross_check_dense(iso), iso
        statuses.add(verdict.status)
        if verdict.witness:
            rows.add(min(verdict.witness[0], 2))
    assert statuses == {PERFECT, FAILS_INTEGRALITY}
    assert rows == {0, 1, 2}  # witnesses in both counted rows and in a derived one


@pytest.mark.parametrize("p", (7, 23, 101))
def test_cross_check_counts_no_row_and_makes_no_ring_call(spy, p):
    # the cross-check reads the rule off the map, so it shares no code with
    # is_perfect, and a defect in the count or the ring cannot reach both
    calls = {name: spy(CycInt, name) for name in ("__init__", "_trusted", "__mul__")}
    calls.update((name, spy(isometry, name)) for name in ("_counted_row", "_galois_images"))
    affine, _, swapped = affine_family(p, 1, 2)
    for iso in starmap(SignedIsometry, (swapped, split_scaling(p), random_isometry(Random(p), p))):
        assert not is_perfect_via_spaces(iso).ok
    assert is_perfect_via_spaces(affine).ok
    assert not any(calls.values())
    assert is_perfect(affine).ok and calls["_counted_row"] and calls["_trusted"]


def test_is_perfect_counts_its_two_rows_on_every_call(monkeypatch):
    # no cache sits between is_perfect and the count: each call counts rows
    # afresh, so a count that changes between calls changes the verdict; the
    # corrupted call fails in row 0 and counts no row 1.  Row 0 of an affine
    # map is the one pair (0, p)
    p = 5
    iso = SignedIsometry(p, [(1 + 2 * k) % p for k in range(p)], (1,) * p)
    rows, corrupt = [], []
    real_row = isometry._counted_row

    def counting_row(iso, m):
        rows.append(m)
        row = list(real_row(iso, m))
        if corrupt and m == 0:
            ((n, entry),) = row
            coeffs = list(entry.coeffs)
            coeffs[0] += 1
            return [(n, CycInt(p, coeffs))]
        return row

    monkeypatch.setattr(isometry, "_counted_row", counting_row)
    assert is_perfect(iso) == Verdict(PERFECT)
    corrupt.append(True)
    assert is_perfect(iso) == Verdict(FAILS_INTEGRALITY, (0, 0))
    assert rows == [0, 1, 0]
    assert not any(hasattr(v, "cache_clear") for v in vars(isometry).values())


# ---------------------------------------------------------------------------
# perfectness checks


def test_identity_and_negation_are_perfect():
    for p in (2, 3, 5, 7):
        assert is_perfect(gen_linear(p, 0)).status == PERFECT
        assert is_perfect(gen_negid(p)).status == PERFECT
        assert is_perfect_via_spaces(gen_linear(p, 0)).status == PERFECT
        assert is_perfect_via_spaces(gen_negid(p)).status == PERFECT


def test_all_shifts_are_perfect():
    for p in (2, 3, 5, 7):
        for a in range(p):
            shift = SignedIsometry(p, tuple((a + k) % p for k in range(p)), (1,) * p)
            assert is_perfect(shift).status == PERFECT


def test_transposition_fails_integrality_with_oracle_confirmed_witness():
    iso = SignedIsometry.from_literal(5, "+0,+2,+1,+3,+4")
    verdict = is_perfect(iso)
    assert verdict.status == FAILS_INTEGRALITY
    m, n = verdict.witness
    entry = kernel_table(iso).entries[m][n]
    assert entry.divide_exact_by_p() is None
    assert not divisible_by_p_oracle(5, entry.coeffs)
    # row-major minimality of the witness
    for mm in range(m + 1):
        for nn in range(5):
            if (mm, nn) == (m, n):
                break
            assert kernel_table(iso).entries[mm][nn].is_multiple_of_p


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_two_row_verdict_and_witness_match_full_row_major_scan(p):
    rng = Random(SEED + 11 * p)
    isos = list(starmap(SignedIsometry, all_signed_isometries(2))) if p == 2 else []
    for _ in range(30):
        isos.append(SignedIsometry(*random_isometry(rng, p)))
        image = list(range(p))
        rng.shuffle(image)
        isos.append(SignedIsometry(p, image, (rng.choice((1, -1)),) * p))
    for a, u in ((0, 1), (1, p - 1), (p - 1, (p + 1) // 2)):
        for iso in affine_family(p, a, u):
            isos.append(iso)
            flipped = list(iso.signs)
            flipped[rng.randrange(p)] *= -1
            isos.append(SignedIsometry(p, iso.image, flipped))
    statuses = set()
    for iso in isos:
        verdict = is_perfect(iso)
        assert verdict == full_scan_verdict(iso), iso
        statuses.add(verdict.status)
    # at p = 2 every entry is even; for odd p only integrality fails (see is_perfect_via_spaces)
    assert statuses == {PERFECT, FAILS_SEPARATION if p == 2 else FAILS_INTEGRALITY}


def test_two_row_witness_can_lie_in_row_one():
    iso = SignedIsometry.from_literal(7, "+1,+5,+3,+0,+2,+4,+6")
    verdict = is_perfect(iso)
    assert verdict.witness[0] == 1
    assert verdict == full_scan_verdict(iso)


@pytest.mark.parametrize("p", (2, 5, 7, 13, 53, 101))
def test_mixed_sign_fails(p):
    # for odd p, entry (0, 0) = sum_k sign[k] is odd and below p in size, so
    # both checkers fail it first; p = 2 fails separation, the cross-check at
    # (1, 0), the only entry of column 0 off the identity
    rng = Random(SEED + p)
    maps = [SignedIsometry(p, range(p), (1,) * (p - 1) + (-1,))]
    while len(maps) < 6:
        iso = SignedIsometry(*random_isometry(rng, p))
        if len(set(iso.signs)) == 2:
            maps.append(iso)
    for iso in maps:
        if p == 2:
            assert is_perfect(iso).status == FAILS_SEPARATION
            assert is_perfect_via_spaces(iso) == Verdict(FAILS_SEPARATION, (1, 0))
        else:
            assert is_perfect(iso) == Verdict(FAILS_INTEGRALITY, (0, 0))
            assert is_perfect_via_spaces(iso) == Verdict(FAILS_INTEGRALITY, (0, 0))


def test_perfect_kernels_have_sign_matching_degree_entry():
    for p in (3, 5):
        for iso in starmap(SignedIsometry, all_signed_isometries(p)):
            verdict = is_perfect(iso)
            if verdict.status != PERFECT:
                continue
            (eps,) = set(iso.signs)
            kt = kernel_table(iso)
            expected = eps * p
            assert kt.entries[0][0] == CycInt.from_int(p, expected)


# ---------------------------------------------------------------------------
# the record types: what callers read of a SignedIsometry, a KernelTable and
# a Verdict beyond the protocol test_pigroup.test_record_protocol checks


def test_signed_isometry_record():
    # lists and a literal build the same value, with the same hash
    iso = SignedIsometry(3, (2, 0, 1), (1, -1, 1))
    literal = SignedIsometry.from_literal(3, "+2,-0,+1")
    assert iso == SignedIsometry(3, [2, 0, 1], [1, -1, 1]) == literal
    assert hash(iso) == hash(literal)


def test_kernel_table_record():
    kt = kernel_table(gen_linear(2, 0))
    assert type(kt) is KernelTable and kt == KernelTable(2, kt.entries)


def test_verdict_record():
    passed = Verdict(PERFECT)
    assert passed == Verdict(PERFECT, None) and passed.ok
    assert not Verdict(FAILS_SEPARATION, (1, 0)).ok
    assert not Verdict(FAILS_INTEGRALITY, (0, 0)).ok
