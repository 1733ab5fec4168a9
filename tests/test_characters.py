"""Tests for the character table and class-function operations."""

from random import Random

import re

import pytest

from perfiso import characters, require_prime
from perfiso import (
    CycInt,
    ClassFunction,
    NonIntegralInnerProduct,
    char_table,
    character,
    generalized_character,
    indicator,
    inner_product,
    zeta_pow,
)

PRIMES = (2, 3, 5, 7)
SEED = 20260809


def test_table_p2():
    t = char_table(2)
    assert t[0] == (CycInt.one(2), CycInt.one(2))
    assert t[1] == (CycInt.one(2), CycInt.from_int(2, -1))


def test_table_entry_wraps_exponent():
    assert char_table(3)[2][2] == zeta_pow(3, 1)


def test_indicator_reads_its_index_mod_p():
    # g^j depends on j mod p only; j = 5 or -6 would overrun the value list
    for j in (-6, -1, 5, 12):
        assert indicator(5, j) == indicator(5, j % 5)


def test_table_builds_each_power_once(spy):
    # the table holds only the p values zeta^k: p constructions, not p*p
    p = 53
    calls = spy(characters, "zeta_pow")
    char_table.cache_clear()
    try:
        table = char_table(p)
    finally:
        char_table.cache_clear()
    assert sorted(k for _, k in calls) == list(range(p))
    assert len({id(entry) for row in table for entry in row}) == p
    assert all(table[a][b] == zeta_pow(p, a * b) for a in range(p) for b in range(p))


def test_table_row_one_is_zeta_powers():
    t = char_table(5)
    for m in range(5):
        assert t[1][m] == zeta_pow(5, m)


@pytest.mark.parametrize("p", PRIMES)
def test_trivial_row_and_degree_column(p):
    t = char_table(p)
    one = CycInt.one(p)
    assert all(v == one for v in t[0])
    assert all(t[a][0] == one for a in range(p))


@pytest.mark.parametrize("p", PRIMES)
def test_row_orthogonality(p):
    for a in range(p):
        for b in range(p):
            expected = CycInt.one(p) if a == b else CycInt.zero(p)
            assert inner_product(character(p, a), character(p, b)) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_column_orthogonality(p):
    t = char_table(p)
    for b in range(p):
        for b2 in range(p):
            total = CycInt.zero(p)
            for a in range(p):
                total = total + t[a][b] * t[a][(p - b2) % p]
            assert total == CycInt.from_int(p, p if b == b2 else 0)


def test_inner_product_examples():
    chi0, chi1, chi2 = (character(5, a) for a in range(3))
    assert inner_product(chi1, chi1) == CycInt.one(5)
    assert inner_product(chi1, chi2) == CycInt.zero(5)
    assert inner_product(generalized_character(5, [1, 1, 0, 0, 0]), chi1) == CycInt.one(5)


def test_inner_product_rejects_non_integral_sum():
    with pytest.raises(NonIntegralInnerProduct, match="^inner-product sum 1 is not divisible by p=5$"):
        inner_product(indicator(5, 0), indicator(5, 0))
    # the sum is rendered as the CLI renders ring values
    x = ClassFunction(5, [CycInt(5, [1, 2, 0, 0, 0])] + [CycInt.zero(5)] * 4)
    with pytest.raises(NonIntegralInnerProduct, match=r"^inner-product sum \(1,2,0,0,0\) is not"):
        inner_product(x, indicator(5, 0))


def test_inner_product_rejects_mismatched_p():
    with pytest.raises(ValueError, match="^mismatched moduli: p=3 vs p=5$"):
        inner_product(character(3, 0), character(5, 0))


@pytest.mark.parametrize("p", (0, -3))
def test_char_table_rejects_non_positive_p(p):
    # without the check, range(p) is empty and the table would be ()
    with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
        char_table(p)


@pytest.mark.parametrize("p", (0, -3, 1, 4, True, 5.0, "5"), ids=repr)
def test_indicator_refuses_p_as_require_prime_does(p):
    # its first ring value checks p, with require_prime's exception and message
    with pytest.raises((TypeError, ValueError)) as expected:
        require_prime(p)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        indicator(p, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_mult_index_matches_pointwise_products(p):
    t = char_table(p)
    for a in range(p):
        for k in range(p):
            idx = (a + k) % p
            for b in range(p):
                assert t[a][b] * t[k][b] == t[idx][b]


@pytest.mark.parametrize("p", PRIMES)
def test_aut_twist_matches_pointwise_twist(p):
    t = char_table(p)
    for u in range(1, p):
        uinv = pow(u, -1, p)
        for k in range(p):
            idx = k * uinv % p
            for b in range(p):
                assert t[idx][b] == t[k][(b * uinv) % p]


@pytest.mark.parametrize("p", (3, 5))
def test_generalized_character_coefficients_recovered(p):
    rng = Random(SEED + p)
    for _ in range(25):
        coeffs = [rng.randint(-3, 3) for _ in range(p)]
        f = generalized_character(p, coeffs)
        for k in range(p):
            assert inner_product(f, character(p, k)) == CycInt.from_int(p, coeffs[k])


def test_generalized_character_rejects_wrong_coefficient_count():
    with pytest.raises(ValueError, match="^expected 3 coefficients, got 2$"):
        generalized_character(3, [1, 2])
    # p is checked first
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        generalized_character(4, [1, 2])


def test_generalized_character_takes_only_integer_coefficients():
    # the counted sums are built unvalidated, so the coefficients are
    # converted first: a float raises, an __index__ object counts as its int
    for coeffs in ([1.5, 0, 0], [0, 0, 0.0]):
        with pytest.raises(TypeError):
            generalized_character(3, coeffs)

    class Two:
        def __index__(self):
            return 2

    f = generalized_character(3, [Two(), 0, 0])
    assert f == generalized_character(3, [2, 0, 0])
    assert {type(c) for value in f.values for c in value.coeffs} == {int}


def test_class_function_record():
    # a list of values builds the same value, with the same hash, and p is
    # the int require_prime returns
    values = char_table(2)[1]
    cf = ClassFunction(2, list(values))
    assert cf == character(2, 1) and hash(cf) == hash(character(2, 1))

    class Two:
        def __index__(self):
            return 2

    assert type(ClassFunction(Two(), values).p) is int


def test_class_function_validation():
    with pytest.raises(ValueError):
        ClassFunction(3, (CycInt.one(3),))
    with pytest.raises(ValueError):
        ClassFunction(3, (CycInt.one(3), CycInt.one(5), CycInt.one(3)))
    cf = character(3, 1)
    assert cf == character(3, 4) and hash(cf) == hash(character(3, 4))
