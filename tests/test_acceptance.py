"""Acceptance suite: the full classification checked at desk scale.

Every criterion is exact (integer/ring equality, zero tolerance).  Each test
prints one "ACCEPTANCE <n> <name>: PASS" line on success (visible with
``pytest -v -s``); a failure surfaces as an ordinary assertion error.

Randomized criteria draw from ``random.Random`` seeded with SEED (+ prime),
so every run exercises identical samples; the seed is echoed in the pass
line.
"""

from itertools import starmap
from random import Random

import pytest

from perfiso import (
    AffineCoords,
    ClassFunction,
    EXHAUSTIVE,
    SignedIsometry,
    character,
    decompose,
    enumerate_perfect,
    forward_transform,
    generalized_character,
    inner_product,
    is_perfect,
    is_perfect_via_spaces,
    iter_perfect,
    kernel_table,
    recompose,
    verify_structure,
    zeta_pow,
)
from perfiso.cyclotomic import CycInt
from oracles import (
    adjoint_transform,
    all_signed_isometries,
    cross_check_dense,
    divisible_by_p_oracle,
    full_scan_verdict,
    image_character,
    perfect_forms_by_definition,
    random_coeffs,
    random_isometry,
)

SEED = 20260809

PRIMES_EXHAUSTIVE = (2, 3, 5, 7)
PRIMES_REPORTED = (11, 13)
EXPECTED_ORDERS = {2: 4, 3: 12, 5: 40, 7: 84, 11: 220, 13: 312}


@pytest.fixture(scope="module")
def exhaustive_found():
    """One exhaustive enumeration per prime, shared by criteria 1, 2, 3, 5."""
    return {p: list(iter_perfect(p, EXHAUSTIVE)) for p in PRIMES_EXHAUSTIVE}


def _coeffs(values):
    """The plain entries of a class function's values or of a kernel row."""
    return tuple(value.coeffs for value in values)


def _announce(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


@pytest.mark.parametrize("p", PRIMES_EXHAUSTIVE + PRIMES_REPORTED)
def test_criterion_1_order_formula(p, exhaustive_found):
    report = enumerate_perfect(p)
    assert report.order == EXPECTED_ORDERS[p] == 2 * p * (p - 1)
    assert report.all_pass() and not report.failures
    if p in exhaustive_found:
        found = exhaustive_found[p]
        assert len(found) == len(set(found)) == report.order
    _announce(1, "order_formula", f"order {report.order} at p={p}")


def test_criterion_1_classification_from_definition_at_p11():
    # the oracle decides every normal form by kernel counts, with no pruning
    # rule; its docstring's three facts carry the verdicts to every signed map
    p = 11
    signs, forms = perfect_forms_by_definition(p)
    assert signs == [(1,) * p, (-1,) * p]
    assert forms == [tuple(range(p))]
    images = sorted(
        tuple((u * x + a) % p for x in form) for form in forms for u in range(1, p) for a in range(p)
    )
    orbit = [SignedIsometry(p, image, (eps,) * p) for image in images for eps in (1, -1)]
    assert orbit == list(iter_perfect(p))
    _announce(1, "order_formula", f"the {len(orbit)} maps at p=11 from the kernel's definition")


@pytest.mark.parametrize("p", PRIMES_EXHAUSTIVE)
def test_criterion_2_homogeneous_sign(p, exhaustive_found):
    mixed = [iso for iso in exhaustive_found[p] if len(set(iso.signs)) > 1]
    assert mixed == []
    _announce(2, "homogeneous_sign", f"zero mixed-sign perfect isometries at p={p}")


@pytest.mark.parametrize("p", PRIMES_EXHAUSTIVE)
def test_criterion_3_affine_completeness(p, exhaustive_found):
    found = set(exhaustive_found[p])
    affine = {
        recompose(p, AffineCoords(eps, a, u))
        for eps in (-1, 1)
        for a in range(p)
        for u in range(1, p)
    }
    assert affine <= found
    assert found <= affine
    _announce(3, "affine_completeness", f"both inclusions at p={p}")


@pytest.mark.parametrize("p", (2, 3, 5))
def test_criterion_4_checker_equivalence(p):
    # on every signed map at small p each checker gives the verdict and
    # witness of its own dense oracle, and the two give the same status
    for iso in starmap(SignedIsometry, all_signed_isometries(p)):
        verdict, cross = is_perfect(iso), is_perfect_via_spaces(iso)
        assert verdict == full_scan_verdict(iso), iso
        assert cross == cross_check_dense(iso), iso
        assert verdict.status == cross.status, iso
    _announce(4, "checker_equivalence", f"every signed map at p={p} against the dense oracles")


def test_criterion_4_checker_equivalence_sampled_at_p7():
    rng = Random(SEED + 7)
    for _ in range(1000):
        iso = SignedIsometry(*random_isometry(rng, 7))
        assert is_perfect(iso).status == is_perfect_via_spaces(iso).status, iso
    _announce(4, "checker_equivalence", f"1000 seeded candidates at p=7; seed={SEED}+7")


@pytest.mark.parametrize("p", PRIMES_EXHAUSTIVE)
def test_criterion_5_reconstruction_and_inversion(p, exhaustive_found):
    # the enumerated maps, then seeded random signed maps, most of them not perfect
    rng = Random(SEED + p)
    for iso in exhaustive_found[p] + [SignedIsometry(*random_isometry(rng, p)) for _ in range(20)]:
        kt = kernel_table(iso)
        kernel = tuple(map(_coeffs, kt.entries))
        for k in range(p):
            chi = character(p, k)
            image = forward_transform(kt, chi)
            assert image.p == p and _coeffs(image.values) == image_character(iso, k)
            assert adjoint_transform(kernel, _coeffs(image.values)) == _coeffs(chi.values)
        beta = generalized_character(p, random_coeffs(rng, p, 3))
        image = _coeffs(forward_transform(kt, beta).values)
        assert adjoint_transform(kernel, image) == _coeffs(beta.values)
    _announce(
        5,
        "reconstruction_and_inversion",
        f"all {len(exhaustive_found[p])} enumerated isometries and 20 seeded signed maps"
        f" at p={p}; seed={SEED}+{p}",
    )


@pytest.mark.parametrize("p", (3, 5, 7))
def test_criterion_6_adjointness(p):
    rng = Random(SEED + p)
    for _ in range(100):
        kt = kernel_table(SignedIsometry(*random_isometry(rng, p)))
        alpha = generalized_character(p, random_coeffs(rng, p, 3))
        beta = generalized_character(p, random_coeffs(rng, p, 3))
        adjoint = adjoint_transform(tuple(map(_coeffs, kt.entries)), _coeffs(alpha.values))
        lhs = inner_product(forward_transform(kt, beta), alpha)
        rhs = inner_product(beta, ClassFunction(p, [CycInt(p, value) for value in adjoint]))
        assert lhs == rhs
    _announce(6, "adjointness", f"100 pairs at p={p}; seed={SEED}+{p}")


@pytest.mark.parametrize("p", (3, 5))
def test_criterion_7_semidirect_law(p):
    found = list(iter_perfect(p, EXHAUSTIVE))
    coords = {iso: decompose(iso) for iso in found}
    for lhs in found:
        cl = coords[lhs]
        for rhs in found:
            cr = coords[rhs]
            composed = lhs.compose(rhs)
            expected = AffineCoords(
                cl.eps * cr.eps, (cl.a + cl.u * cr.a) % p, (cl.u * cr.u) % p
            )
            assert decompose(composed) == expected
            assert recompose(p, expected) == composed
    _announce(7, "semidirect_law", f"all {len(found)}^2 pairs at p={p}")


def test_criterion_7_semidirect_law_verified_at_p11():
    report = verify_structure(11)
    assert report.order == EXPECTED_ORDERS[11]
    assert all(value is True for value in report.checks.values())
    assert not report.failures
    _announce(
        7,
        "semidirect_law",
        "verify_structure at p=11: all 220 affine maps enumerated, so the law holds",
    )


def _divisibility_cases(p):
    """Edge cases first: zero, a constant (zero in normalized form), negative
    coefficients, multiples of p above 2p, and one stray unit among zeros or
    multiples, first and last.  Then 1000 seeded vectors: multiples of p,
    multiples with one stray unit, and general vectors."""
    yield from (
        [0] * p, [7] * p, [-p] * p, [-p] + [0] * (p - 1), [0] * (p - 1) + [-3 * p],
        [5 * p, -7 * p] + [0] * (p - 2), [0] * (p - 1) + [1], [-1] + [0] * (p - 1),
        [3 * p] * (p - 1) + [3 * p + 1], [-1] + [3 * p] * (p - 1),
    )
    rng = Random(SEED + p)
    for i in range(1000):
        if i % 3 == 0:
            raw = [p * rng.randint(-5, 5) for _ in range(p)]
            if i % 6 == 3:
                raw[rng.randrange(p)] += rng.choice((-1, 1))
        else:
            raw = [rng.randint(-3 * p, 3 * p) for _ in range(p)]
        yield raw


@pytest.mark.parametrize("p", PRIMES_EXHAUSTIVE + PRIMES_REPORTED)
def test_criterion_8_cyclotomic_layer(p):
    for raw in _divisibility_cases(p):
        x = CycInt(p, raw)
        quotient = x.divide_exact_by_p()
        assert (quotient is not None) == x.is_multiple_of_p == divisible_by_p_oracle(p, raw)
        if quotient is not None:
            assert p * quotient == x
    for m in range(1, 2 * p + 1):
        total = CycInt.zero(p)
        for k in range(1, p + 1):
            total = total + zeta_pow(p, k * m)
        expected = CycInt.from_int(p, p if m % p == 0 else 0)
        assert total == expected
    _announce(
        8,
        "cyclotomic_layer",
        f"10 edge cases and 1000 oracle comparisons at p={p}; seed={SEED}+{p}",
    )
