"""Acceptance suite: the full classification checked at desk scale.

Every criterion is exact (integer/ring equality, zero tolerance).  Each test
prints one "ACCEPTANCE <n> <name>: PASS" line on success (visible with
``pytest -v -s``); a failure surfaces as an ordinary assertion error.

Randomized criteria draw from ``random.Random`` seeded with SEED (+ prime),
so every run exercises identical samples; the seed is echoed in the pass
line.
"""

import itertools
from random import Random

import pytest

from perfiso import (
    AffineCoords,
    EXHAUSTIVE,
    SignedIsometry,
    character,
    decompose,
    enumerate_perfect,
    forward_transform,
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
    divisible_by_p_oracle,
    image_character,
    perfect_forms_by_definition,
    random_generalized_character,
    random_isometry,
)

SEED = 20260809

PRIMES_EXHAUSTIVE = (2, 3, 5, 7)
PRIMES_REPORTED = (11, 13)
EXPECTED_ORDERS = {2: 4, 3: 12, 5: 40, 7: 84, 11: 220, 13: 312}
CANDIDATE_COUNTS = {2: 8, 3: 48, 5: 3840, 7: 645120}


@pytest.fixture(scope="module")
def exhaustive_found():
    """One exhaustive enumeration per prime, shared by criteria 1, 2, 3, 5."""
    return {p: list(iter_perfect(p, EXHAUSTIVE)) for p in PRIMES_EXHAUSTIVE}


def _announce(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_criterion_1_order_formula(exhaustive_found):
    for p in PRIMES_EXHAUSTIVE:
        found = exhaustive_found[p]
        assert len(found) == EXPECTED_ORDERS[p] == 2 * p * (p - 1)
        assert len(set(found)) == len(found)
        # the scan space really was all 2^p * p! signed candidates
        assert CANDIDATE_COUNTS[p] == 2**p * len(list(itertools.permutations(range(p))))
    for p in PRIMES_REPORTED:
        report = enumerate_perfect(p)
        assert report.order == EXPECTED_ORDERS[p] == 2 * p * (p - 1)
        assert report.all_pass() and not report.failures
    _announce(1, "order_formula", "orders 4/12/40/84/220/312 at p=2/3/5/7/11/13")


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


def test_criterion_2_homogeneous_sign(exhaustive_found):
    for p in PRIMES_EXHAUSTIVE:
        mixed = [iso for iso in exhaustive_found[p] if len(set(iso.signs)) > 1]
        assert mixed == []
    _announce(2, "homogeneous_sign", "zero mixed-sign perfect isometries")


def test_criterion_3_affine_completeness(exhaustive_found):
    for p in PRIMES_EXHAUSTIVE:
        found = set(exhaustive_found[p])
        affine = {
            recompose(p, AffineCoords(eps, a, u))
            for eps in (-1, 1)
            for a in range(p)
            for u in range(1, p)
        }
        assert affine <= found
        assert found <= affine
    _announce(3, "affine_completeness", "both inclusions at p=2,3,5,7")


def test_criterion_4_checker_equivalence():
    disagreements = 0
    for p in (2, 3):
        for image in itertools.permutations(range(p)):
            for signs in itertools.product((1, -1), repeat=p):
                iso = SignedIsometry(p, image, signs)
                if is_perfect(iso).status != is_perfect_via_spaces(iso).status:
                    disagreements += 1
    for p in (5, 7):
        rng = Random(SEED + p)
        for _ in range(1000):
            iso = random_isometry(rng, p)
            if is_perfect(iso).status != is_perfect_via_spaces(iso).status:
                disagreements += 1
    assert disagreements == 0
    _announce(
        4,
        "checker_equivalence",
        f"exhaustive p=2,3 plus 1000 seeded candidates each at p=5,7; seed={SEED}+p",
    )


def test_criterion_5_reconstruction_and_inversion(exhaustive_found):
    for p in PRIMES_EXHAUSTIVE:
        for iso in exhaustive_found[p]:
            kt = kernel_table(iso)
            for k in range(p):
                chi = character(p, k)
                image = forward_transform(kt, chi)
                assert image == image_character(iso, k)
                assert adjoint_transform(kt, image) == chi
    _announce(5, "reconstruction_and_inversion", "all 140 enumerated isometries")


@pytest.mark.parametrize("p", (3, 5, 7))
def test_criterion_6_adjointness(p):
    rng = Random(SEED + p)
    for _ in range(100):
        iso = random_isometry(rng, p)
        kt = kernel_table(iso)
        alpha = random_generalized_character(rng, p)
        beta = random_generalized_character(rng, p)
        lhs = inner_product(forward_transform(kt, beta), alpha)
        rhs = inner_product(beta, adjoint_transform(kt, alpha))
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


def test_criterion_8_cyclotomic_layer():
    for p in (2, 3, 5, 7, 11, 13):
        rng = Random(SEED + p)
        checked = 0
        for i in range(1000):
            if i % 3 == 0:
                raw = [p * rng.randint(-5, 5) for _ in range(p)]
                if i % 6 == 3:
                    raw[rng.randrange(p)] += rng.choice((-1, 1))
            else:
                raw = [rng.randint(-3 * p, 3 * p) for _ in range(p)]
            x = CycInt(p, raw)
            quotient = x.divide_exact_by_p()
            assert (quotient is not None) == divisible_by_p_oracle(p, raw)
            if quotient is not None:
                assert p * quotient == x
            checked += 1
        assert checked >= 1000
        for m in range(1, 2 * p + 1):
            total = CycInt.zero(p)
            for k in range(1, p + 1):
                total = total + zeta_pow(p, k * m)
            expected = CycInt.from_int(p, p if m % p == 0 else 0)
            assert total == expected
    _announce(
        8,
        "cyclotomic_layer",
        f"1000 oracle comparisons per prime up to 13; seed={SEED}+p",
    )
