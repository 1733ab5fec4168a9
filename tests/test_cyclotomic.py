"""Unit and property tests for the exact cyclotomic layer."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfiso import CycInt, cyclotomic, is_prime, require_prime, symbolic_str, zeta_pow
from oracles import divisible_by_p_oracle, poly_mul_reduced, random_coeffs, symbolic_str_scan

PRIMES = (2, 3, 5, 7)
PRIMES_LARGE = (2, 3, 5, 7, 11, 13)
PRIMES_RENDER = (2, 3, 5, 7, 23, 53)
SEED = 20260809


def test_zeta_pow_identity_case():
    assert zeta_pow(5, 0).coeffs == (1, 0, 0, 0, 0)


def test_zeta_pow_top_power_normalizes():
    assert zeta_pow(3, 2).coeffs == (-1, -1, 0)


def test_zeta_pow_reduces_exponent():
    assert zeta_pow(5, 7) == zeta_pow(5, 2)
    assert zeta_pow(5, -1) == zeta_pow(5, 4)


def test_non_prime_rejected():
    # 25, 49 and 101^2 are squares of primes: the trial division must reach d * d == n
    for bad in (0, 1, 4, 6, 9, 12, -3, 25, 49, 10201):
        with pytest.raises(ValueError):
            zeta_pow(bad, 0)
        assert not is_prime(bad)
    assert require_prime(13) == 13


def test_constructors_check_p_themselves():
    # before the coefficients: four of them would fit p = 4
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        CycInt(4, [0, 0, 0, 0])
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        CycInt.from_int(4, 1)


def test_is_prime_matches_its_definition():
    for n in range(-3, 2001):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n))), n


def test_wrong_coefficient_count_rejected():
    with pytest.raises(ValueError):
        CycInt(5, [1, 2, 3])


def test_mismatched_p_rejected():
    with pytest.raises(ValueError):
        zeta_pow(3, 1) + zeta_pow(5, 1)
    with pytest.raises(ValueError):
        zeta_pow(3, 1) * zeta_pow(5, 1)


def test_product_example_against_polynomial_oracle():
    # (1 + zeta) * (1 + zeta^2) at p=3 collapses to 1
    x = CycInt(3, [1, 1, 0])
    y = CycInt(3, [1, 0, 1])
    assert (x * y).coeffs == poly_mul_reduced(3, [1, 1, 0], [1, 0, 1])
    assert x * y == CycInt.one(3)


def test_additive_inverse():
    x = CycInt(5, [2, -1, 3, 0, 4])
    assert x + (-x) == CycInt.zero(5)
    assert not (x - x)


def test_zeta_times_zeta_inverse():
    assert zeta_pow(5, 1) * zeta_pow(5, 4) == CycInt.one(5)


def test_integer_operands_coerce():
    x = zeta_pow(3, 1)
    assert 1 + x == CycInt(3, [1, 1, 0])
    assert 2 * x == CycInt(3, [0, 2, 0])
    assert x - 1 == CycInt(3, [-1, 1, 0])
    assert 5 - x == CycInt(3, [5, -1, 0])
    assert x == x + 0


def test_foreign_operands_are_refused():
    x = zeta_pow(3, 1)
    for op in (lambda: x + 1.5, lambda: x - 1.5, lambda: x * 1.5):
        with pytest.raises(TypeError):
            op()
    assert (x == "a") is False
    # the reflected subtraction refuses too, so the error names its own operator
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for -: 'float' and 'CycInt'$"):
        1.5 - x


def test_divisible_constant_case():
    q = CycInt.from_int(5, 5).divide_exact_by_p()
    assert q == CycInt.one(5)


def test_not_divisible_case_agrees_with_oracle():
    x = CycInt(5, [1, 1, 0, 0, 0])
    assert x.divide_exact_by_p() is None
    assert not divisible_by_p_oracle(5, [1, 1, 0, 0, 0])


def test_divisible_after_normalization():
    x = CycInt(3, [2, 2, 2])
    assert x == CycInt.zero(3)
    assert x.divide_exact_by_p() == CycInt.zero(3)


@pytest.mark.parametrize("p", PRIMES_LARGE)
def test_zeta_sums_match_polynomial_oracle(p):
    # the one count primitive: each sum is the sum of its terms, each term a
    # product of two monomials by the polynomial oracle; exponents and steps
    # may be negative or at least p
    rng = Random(SEED + 17 * p)
    for length in (1, p, 2 * p):
        weights = [rng.randint(-3, 3) for _ in range(length)]
        exponents = [rng.randrange(-2 * p, 2 * p) for _ in range(length)]
        steps = range(-1, p + 2)
        sums = list(cyclotomic._zeta_sums(p, weights, exponents, steps))
        assert len(sums) == len(steps)
        for step, total in zip(steps, sums):
            expected = [0] * p
            for k, (w, e) in enumerate(zip(weights, exponents)):
                term, shift = [0] * p, [0] * p
                term[e % p], shift[k * step % p] = w, 1
                expected = [x + y for x, y in zip(expected, poly_mul_reduced(p, term, shift))]
            assert total == tuple(expected)


def test_normalization_idempotent():
    rng = Random(SEED)
    for p in PRIMES:
        for _ in range(50):
            x = CycInt(p, random_coeffs(rng, p, 3 * p))
            assert CycInt(p, x.coeffs) == x
            assert x.coeffs[-1] == 0


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    data=st.data(),
)
def test_ring_axioms(p, data):
    coeff = st.integers(min_value=-20, max_value=20)
    vec = st.lists(coeff, min_size=p, max_size=p)
    x = CycInt(p, data.draw(vec))
    y = CycInt(p, data.draw(vec))
    z = CycInt(p, data.draw(vec))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * CycInt.one(p) == x
    assert x * CycInt.zero(p) == CycInt.zero(p)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_multiplication_matches_polynomial_oracle(p, data):
    coeff = st.integers(min_value=-10, max_value=10)
    vec = st.lists(coeff, min_size=p, max_size=p)
    xs = data.draw(vec)
    ys = data.draw(vec)
    assert (CycInt(p, xs) * CycInt(p, ys)).coeffs == poly_mul_reduced(p, xs, ys)


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_roundtrip(p):
    rng = Random(SEED + p)
    for _ in range(200):
        x = CycInt(p, random_coeffs(rng, p, 3 * p))
        q = x.divide_exact_by_p()
        if q is not None:
            assert p * q == x
        y = p * x
        qy = y.divide_exact_by_p()
        assert qy is not None and qy == x


def test_equality_and_hash_on_normal_forms():
    # raw vectors differing by the all-ones relation are the same element
    a = CycInt(5, [1, 0, 0, 0, 0])
    b = CycInt(5, [2, 1, 1, 1, 1])
    assert a == b
    assert hash(a) == hash(b)
    assert a == 1 and b == 1
    # an element equals an int only when every coefficient past the constant is zero
    assert CycInt(5, [3, 1, 0, 0, 0]) != 3
    assert zeta_pow(5, 1) != 0
    for p in (3, 53):
        assert 1 + zeta_pow(p, 1) != 1


@pytest.mark.parametrize("p", (2, 3, 53))
def test_integer_elements_hash_like_their_int(p):
    # equal objects hash equal, so a set holds an integer element and its int once
    for n in (-7, 0, 1, 5):
        x = CycInt.from_int(p, n)
        assert x == n and hash(x) == hash(n)
        assert len({x, n}) == 1
    if p > 2:  # at p = 2, zeta = -1 and every element is an integer
        z = zeta_pow(p, 1)
        assert hash(z) == hash((p, z.coeffs))


def test_symbolic_rendering():
    assert symbolic_str(CycInt.zero(5)) == "0"
    assert symbolic_str(CycInt.from_int(5, -3)) == "-3"
    assert symbolic_str(zeta_pow(5, 1)) == "z"
    assert symbolic_str(zeta_pow(3, 2)) == "z^2"
    assert symbolic_str(-zeta_pow(3, 2)) == "-z^2"
    assert symbolic_str(zeta_pow(2, 1)) == "-1"
    assert symbolic_str(CycInt(5, [0, 0, 4, 0, 0])) == "4*z^2"
    assert symbolic_str(CycInt(5, [1, 2, 0, 0, 0])) == "(1,2,0,0,0)"


def _rendering_cases(p):
    rng = Random(SEED + p)
    head = [1] * (p - 1) + [0]
    yield CycInt(p, head)
    yield CycInt(p, [-c for c in head])
    yield CycInt(p, [2 * c for c in head])
    for n in range(-3 * p, 3 * p + 1):
        yield CycInt.from_int(p, n)
    for k in range(p):
        for c in (1, -1, 2, -2, 7, -p):
            yield c * zeta_pow(p, k)
    for _ in range(100):
        yield CycInt(p, random_coeffs(rng, p, 2))
        sparse = [0] * p
        for _ in range(rng.randint(1, 3)):
            sparse[rng.randrange(p)] = rng.randint(-3, 3)
        yield CycInt(p, sparse)


@pytest.mark.parametrize("p", PRIMES_RENDER)
def test_symbolic_rendering_matches_root_scan_oracle(p):
    for x in _rendering_cases(p):
        assert symbolic_str(x) == symbolic_str_scan(x.coeffs), x


def test_symbolic_rendering_scans_no_roots(monkeypatch):
    def forbidden(*args):
        raise AssertionError("symbolic_str compared against roots of unity")

    cases = [x for p in PRIMES_RENDER for x in _rendering_cases(p)]
    monkeypatch.setattr(cyclotomic, "zeta_pow", forbidden)
    monkeypatch.setattr(CycInt, "__eq__", forbidden)
    monkeypatch.setattr(CycInt, "__neg__", forbidden)
    for x in cases:
        symbolic_str(x)


def _assert_valid(x, p):
    # what the public constructor would build from the same coefficients
    assert type(x) is CycInt and x.p == p
    _assert_normal(x.coeffs, p)


def _assert_normal(c, p):
    assert type(c) is tuple and len(c) == p
    assert all(type(v) is int for v in c)
    assert c[-1] == 0
    assert CycInt(p, c).coeffs == c


@pytest.mark.parametrize("p", PRIMES_LARGE)
def test_ring_results_are_validated_normal_forms(p):
    rng = Random(SEED + p)
    for _ in range(60):
        x = CycInt(p, random_coeffs(rng, p, 3 * p))
        y = CycInt(p, random_coeffs(rng, p, 3 * p))
        for result in (x + y, x - y, -x, x * y, x + 3, 3 - x, 2 * x, (p * x).divide_exact_by_p()):
            _assert_valid(result, p)
    # results whose last entry is nonzero before normalization
    top = zeta_pow(p, p - 1)
    for result in (top + top, top - 2 * top, -top, zeta_pow(p, p - 2) * zeta_pow(p, 1)):
        _assert_valid(result, p)


# ---------------------------------------------------------------------------
# Galois action: sigma_m sends zeta to zeta^m


def _galois(x, m):
    """sigma_m(x), through the primitive that maps the entries of one kernel row."""
    (y,) = cyclotomic._galois_images(x.p, m, [x.coeffs])
    return CycInt(x.p, y)


@pytest.mark.parametrize("p", PRIMES_RENDER)
def test_galois_identity_and_roots_of_unity(p):
    rng = Random(SEED + p)
    for _ in range(20):
        x = CycInt(p, random_coeffs(rng, p, 3 * p))
        assert _galois(x, 1) == x
        assert _galois(x, p + 1) == x
    for m in range(1, p):
        for k in range(p):
            assert _galois(zeta_pow(p, k), m) == zeta_pow(p, m * k)
    assert _galois(zeta_pow(p, 1), -1) == zeta_pow(p, p - 1)


@pytest.mark.parametrize("p", PRIMES_LARGE)
def test_galois_composition_is_multiplication_of_exponents(p):
    rng = Random(SEED + p)
    for _ in range(10):
        x = CycInt(p, random_coeffs(rng, p, 3 * p))
        for a in range(1, p):
            for b in range(1, p):
                assert _galois(_galois(x, b), a) == _galois(x, a * b % p)


@pytest.mark.parametrize("p", PRIMES_RENDER)
def test_galois_is_a_ring_homomorphism(p):
    rng = Random(SEED + p)
    for _ in range(15):
        x = CycInt(p, random_coeffs(rng, p, 3 * p))
        y = CycInt(p, random_coeffs(rng, p, 3 * p))
        m = rng.randrange(1, p)
        assert _galois(x + y, m) == _galois(x, m) + _galois(y, m)
        assert _galois(x - y, m) == _galois(x, m) - _galois(y, m)
        assert _galois(x * y, m).coeffs == poly_mul_reduced(
            p, list(_galois(x, m).coeffs), list(_galois(y, m).coeffs)
        )
        assert _galois(x + 5, m) == _galois(x, m) + 5


@pytest.mark.parametrize("p", PRIMES_LARGE)
def test_galois_preserves_zero_and_divisibility(p):
    # each m maps all 200 elements in one call, as _kernel_rows maps a row,
    # and each image must equal the element's own image
    rng = Random(SEED + p)
    assert not _galois(CycInt.zero(p), rng.randrange(1, p))
    xs = []
    for i in range(200):
        raw = [rng.randint(-2 * p, 2 * p) for _ in range(p)]
        if i % 3 == 0:
            raw = [p * c for c in raw]
        elif i % 3 == 1:
            raw = [c - c % p for c in raw]
            raw[rng.randrange(p)] += rng.choice((-1, 1))
        xs.append(CycInt(p, raw))
    for m in range(1, p):
        ys = cyclotomic._galois_images(p, m, [x.coeffs for x in xs])
        assert type(ys) is list and len(ys) == len(xs)
        for x, y in zip(xs, ys):
            _assert_normal(y, p)
            y = CycInt(p, y)
            assert y == _galois(x, m)
            assert bool(y) == bool(x)
            assert y.is_multiple_of_p == x.is_multiple_of_p
            assert y.is_multiple_of_p == divisible_by_p_oracle(p, y.coeffs)


@pytest.mark.parametrize("p", PRIMES)
def test_galois_rejects_exponents_divisible_by_p(p):
    x = zeta_pow(p, 1)
    for m in (0, p, -p, 3 * p):
        with pytest.raises(ValueError, match="prime to p"):
            _galois(x, m)
        with pytest.raises(ValueError, match="prime to p"):
            cyclotomic._galois_images(p, m, [])
