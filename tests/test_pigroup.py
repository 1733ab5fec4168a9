"""Tests for generators, enumeration, affine coordinates and structure checks."""

import itertools
from random import Random

import pytest

from perfiso import pigroup
from perfiso import (
    AffineCoords,
    CHECK_KEYS,
    EXHAUSTIVE,
    MODES,
    NotPerfect,
    PERFECT,
    POSITIVE_THEN_NEGATE,
    SignedIsometry,
    decompose,
    enumerate_perfect,
    gen_aut,
    gen_linear,
    gen_negid,
    is_perfect,
    iter_perfect,
    recompose,
    verify_structure,
)
from perfiso.cli import main
from oracles import (
    candidate_is_perfect,
    perfect_candidates_walk,
    perfect_images_full_search,
    random_isometry,
    structure_verdicts,
)

SEED = 20260809


# ---------------------------------------------------------------------------
# generators


def test_gen_linear_examples():
    assert gen_linear(5, 0) == SignedIsometry.identity(5)
    assert gen_linear(5, 2).as_literal() == "+2,+3,+4,+0,+1"
    with pytest.raises(ValueError):
        gen_linear(5, 5)
    with pytest.raises(ValueError):
        gen_linear(5, -1)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_gen_linear_is_injective_homomorphism(p):
    seen = set()
    for a in range(p):
        seen.add(gen_linear(p, a))
        for a2 in range(p):
            assert gen_linear(p, a).compose(gen_linear(p, a2)) == gen_linear(
                p, (a + a2) % p
            )
    assert len(seen) == p


def test_gen_aut_examples():
    assert gen_aut(5, 1) == SignedIsometry.identity(5)
    assert gen_aut(5, 2).as_literal() == "+0,+2,+4,+1,+3"
    with pytest.raises(ValueError):
        gen_aut(5, 0)
    with pytest.raises(ValueError):
        gen_aut(5, 10)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_gen_aut_is_injective_homomorphism(p):
    seen = set()
    for u in range(1, p):
        seen.add(gen_aut(p, u))
        for u2 in range(1, p):
            assert gen_aut(p, u).compose(gen_aut(p, u2)) == gen_aut(p, (u * u2) % p)
    assert len(seen) == p - 1


def test_gen_negid():
    p = 5
    neg = gen_negid(p)
    assert is_perfect(neg).status == PERFECT
    assert neg.sign_profile() == "all_negative"
    # verify takes this involution for granted; it reads nothing of the enumerated set
    for p in (2, 3, 5, 7, 53):
        neg, identity = gen_negid(p), SignedIsometry.identity(p)
        assert neg.compose(neg) == identity and neg != identity


@pytest.mark.parametrize("p", (2, 3, 5, 7, 53))
def test_negation_commutes_with_every_signed_map(p):
    # verify takes this for granted too: both composites keep the image and
    # negate every sign, whatever the map and its signs
    rng = Random(SEED + 3 * p)
    neg = gen_negid(p)
    maps = [random_isometry(rng, p) for _ in range(50)]
    assert any(iso.sign_profile() == "mixed" for iso in maps)
    for iso in maps + [SignedIsometry.identity(p), neg]:
        assert neg.compose(iso) == iso.compose(neg) == -iso


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_generators_are_perfect(p):
    for a in range(p):
        assert is_perfect(gen_linear(p, a)).status == PERFECT
    for u in range(1, p):
        assert is_perfect(gen_aut(p, u)).status == PERFECT


# ---------------------------------------------------------------------------
# brute-force candidate oracle agrees with the kernel checker


@pytest.mark.parametrize("p", (2, 3))
def test_fast_checker_matches_is_perfect_exhaustively(p):
    for image in itertools.permutations(range(p)):
        for signs in itertools.product((1, -1), repeat=p):
            fast = candidate_is_perfect(p, image, signs)
            full = is_perfect(SignedIsometry(p, image, signs)).status == PERFECT
            assert fast == full


@pytest.mark.parametrize("p", (5, 7))
def test_fast_checker_matches_is_perfect_random(p):
    rng = Random(SEED + p)
    for _ in range(300):
        image = list(range(p))
        rng.shuffle(image)
        signs = tuple(rng.choice((1, -1)) for _ in range(p))
        fast = candidate_is_perfect(p, tuple(image), signs)
        full = is_perfect(SignedIsometry(p, image, signs)).status == PERFECT
        assert fast == full


@pytest.mark.parametrize("p", (5, 7))
def test_fast_checker_matches_on_homogeneous_candidates(p):
    # the banded scan used for homogeneous signs is the oracle's fast path
    rng = Random(SEED + 7 * p)
    candidates = []
    for _ in range(200):
        image = list(range(p))
        rng.shuffle(image)
        candidates.append(tuple(image))
    for eps in (1, -1):
        for a in range(p):
            for u in range(1, p):
                candidates.append(recompose(p, AffineCoords(eps, a, u)).image)
    for image in candidates:
        for signs in ((1,) * p, (-1,) * p):
            fast = candidate_is_perfect(p, image, signs)
            full = is_perfect(SignedIsometry(p, image, signs)).status == PERFECT
            assert fast == full


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize(
    "p,expected_order", [(2, 4), (3, 12), (5, 40)]
)
@pytest.mark.parametrize("mode", (EXHAUSTIVE, POSITIVE_THEN_NEGATE))
def test_enumeration_orders(p, expected_order, mode):
    report = enumerate_perfect(p, mode)
    assert report.order == expected_order
    assert report.checks["order_formula"] is True
    assert report.checks["homogeneous_sign"] is True
    assert report.checks["affine_completeness"] is True
    assert report.checks["semidirect_law"] is None
    assert report.checks["negid_central"] is None
    assert report.elements == sorted(report.elements)
    assert not report.failures


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_modes_agree(p):
    a = enumerate_perfect(p, EXHAUSTIVE)
    b = enumerate_perfect(p, POSITIVE_THEN_NEGATE)
    assert a.elements == b.elements
    assert a.order == b.order
    assert a.checks == b.checks
    if p <= 5:
        assert set(iter_perfect(p, EXHAUSTIVE)) == set(
            iter_perfect(p, POSITIVE_THEN_NEGATE)
        )


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_search_matches_brute_force_walk(p):
    # every one of the 2^p * p! signed candidates is decided by the oracle
    walk = perfect_candidates_walk(p)
    assert len(walk) == 2 * p * (p - 1)
    for mode in MODES:
        assert list(iter_perfect(p, mode)) == walk


PRIMES_TO_29 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@pytest.mark.parametrize("p", PRIMES_TO_29)
def test_subtree_search_matches_full_search(p):
    # the prefix-(0, 1) subtree and its affine orbit give the whole tree's hits
    images = perfect_images_full_search(p)
    assert pigroup._perfect_images(p) == images
    hits = [SignedIsometry(p, image, (1,) * p) for image in images]
    walk = [iso for hit in hits for iso in (hit, -hit)]
    for mode in MODES:
        assert list(iter_perfect(p, mode)) == walk


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_rule_is_invariant_under_value_affine_maps(p):
    # the lemma behind the subtree search, on the oracle: x passes exactly
    # when k -> u*x[k] + a does, and x is the image of its prefix-(0, 1) form
    rng = Random(SEED + 11 * p)
    ones = (1,) * p
    images = []
    for _ in range(6):
        image = list(range(p))
        rng.shuffle(image)
        images.append(tuple(image))
    for _ in range(3):
        images.append(recompose(p, AffineCoords(1, rng.randrange(p), rng.randrange(1, p))).image)
    for x in images:
        passes = candidate_is_perfect(p, x, ones)
        for u in range(1, p):
            for a in range(p):
                moved = tuple((u * v + a) % p for v in x)
                assert candidate_is_perfect(p, moved, ones) == passes
        u, a = (x[1] - x[0]) % p, x[0]
        form = tuple((v - a) * pow(u, -1, p) % p for v in x)
        assert form[:2] == (0, 1)
        assert tuple((u * v + a) % p for v in form) == x
    assert sum(candidate_is_perfect(p, x, ones) for x in images) >= 3


def test_iter_perfect_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        list(iter_perfect(5, "bogus"))


def test_iter_perfect_rejects_non_prime():
    with pytest.raises(ValueError):
        list(iter_perfect(6, EXHAUSTIVE))


@pytest.mark.parametrize("build,p", ((enumerate_perfect, 9), (verify_structure, 4)))
def test_reports_reject_non_prime(build, p):
    with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
        build(p)


# ---------------------------------------------------------------------------
# affine coordinates


def test_decompose_examples():
    assert decompose(SignedIsometry.identity(5)) == AffineCoords(1, 0, 1)
    assert decompose(-SignedIsometry.identity(5)) == AffineCoords(-1, 0, 1)
    iso = SignedIsometry.from_literal(5, "+1,+3,+0,+2,+4")
    assert decompose(iso) == AffineCoords(1, 1, 2)


def test_decompose_rejects_non_affine_and_mixed():
    with pytest.raises(NotPerfect):
        decompose(SignedIsometry.from_literal(5, "+0,+2,+1,+3,+4"))
    with pytest.raises(NotPerfect):
        decompose(SignedIsometry(3, (0, 1, 2), (1, -1, 1)))


def test_recompose_validation():
    with pytest.raises(ValueError):
        recompose(5, AffineCoords(0, 0, 1))
    with pytest.raises(ValueError):
        recompose(5, AffineCoords(1, 0, 0))
    with pytest.raises(ValueError):
        recompose(5, AffineCoords(1, 5, 1))
    # u must lie in 1..p-1 like a in 0..p-1: reducing u = 6 to 1 would give
    # the identity, whose coordinates are not (1, 0, 6)
    for u in (6, -1):
        with pytest.raises(ValueError, match="u must lie in 1..4"):
            recompose(5, AffineCoords(1, 0, u))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_decompose_recompose_roundtrip(p):
    for iso in iter_perfect(p, EXHAUSTIVE):
        assert recompose(p, decompose(iso)) == iso
    for eps in (-1, 1):
        for a in range(p):
            for u in range(1, p):
                coords = AffineCoords(eps, a, u)
                assert decompose(recompose(p, coords)) == coords


def test_recomposition_matches_generator_composition():
    p = 5
    for a in range(p):
        for u in range(1, p):
            iso = recompose(p, AffineCoords(1, a, u))
            assert iso == gen_linear(p, a).compose(gen_aut(p, u))
            for k in range(p):
                assert iso.image[k] == (a + u * k) % p


# ---------------------------------------------------------------------------
# structure verification


@pytest.mark.parametrize("p", (2, 3, 5, 29))
def test_verify_structure_all_checks_pass(p):
    report = verify_structure(p)
    assert report.order == 2 * p * (p - 1)
    assert all(report.checks[key] is True for key in CHECK_KEYS)
    assert report.all_pass()
    assert not report.failures


def _verify_failure_case(name):
    """A p = 5 element list that verify should reject, with the expected
    checks (in CHECK_KEYS order) and failure lines."""
    group = list(iter_perfect(5))
    if name == "missing":
        shift = gen_linear(5, 1)
        found = [iso for iso in group if iso != shift]
        escapes = [
            f"composition escapes the set: {lhs.as_literal()} o {rhs.as_literal()}"
            for lhs in found
            for rhs in found
            if lhs.compose(rhs) == shift
        ]
        assert len(escapes) == 38  # one rhs for each lhs but the identity
        failures = [
            "affine isometry not enumerated: +1,+2,+3,+4,+0",
            "inverse escapes the set: +4,+0,+1,+2,+3",
            *escapes,
        ]
        return found, (True, False, False, True, False), failures
    if name == "swapped_affine":
        # k -> 1 + 2k with the images of 1 and 2 swapped; an involution
        extra = "+1,+0,+3,+2,+4"
        failures = [f"non-affine perfect isometry: {extra}"]
        checks = (True, False, False, True, False)
    else:
        extra = "+0,+1,+2,+3,-4"
        failures = [
            f"non-affine perfect isometry: {extra}",
            f"mixed-sign perfect isometry: {extra}",
        ]
        checks = (False, False, False, True, False)
    failures.append("composition law skipped: some element is non-affine")
    return group + [SignedIsometry.from_literal(5, extra)], checks, failures


@pytest.mark.parametrize("name", ("missing", "swapped_affine", "mixed_sign"))
def test_verify_structure_failure_diagnostics(monkeypatch, capsys, name):
    found, checks, failures = _verify_failure_case(name)
    monkeypatch.setattr(pigroup, "iter_perfect", lambda p, mode: iter(found))
    report = verify_structure(5)
    assert report.order == len(found)
    assert tuple(report.checks[key] for key in CHECK_KEYS) == checks
    assert report.failures == failures
    assert not report.all_pass()

    assert main(["verify", "-p", "5"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("".join(f"  ! {line}\n" for line in failures))


def _structure_verdicts_of(report):
    return report.checks["semidirect_law"], report.checks["negid_central"]


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
@pytest.mark.parametrize("mode", MODES)
def test_verify_structure_matches_all_pairs_oracle(p, mode):
    found = list(iter_perfect(p, mode))
    assert _structure_verdicts_of(verify_structure(p, mode)) == structure_verdicts(p, found)


@pytest.mark.parametrize("name", ("missing", "swapped_affine", "mixed_sign"))
def test_verify_structure_matches_oracle_on_injected_groups(monkeypatch, name):
    found, _, _ = _verify_failure_case(name)
    monkeypatch.setattr(pigroup, "iter_perfect", lambda p, mode: iter(found))
    assert _structure_verdicts_of(verify_structure(5)) == structure_verdicts(5, found)


@pytest.mark.parametrize("p", (5, 7))
def test_closed_proper_subgroup_keeps_the_law(monkeypatch, p):
    # the shifts and their negations are closed, so the law holds on every
    # pair, but they are not every affine map: verify runs the all-pairs
    # check and must still pass the law
    found = [iso for a in range(p) for iso in (gen_linear(p, a), -gen_linear(p, a))]
    monkeypatch.setattr(pigroup, "iter_perfect", lambda p, mode: iter(found))
    report = verify_structure(p)
    assert _structure_verdicts_of(report) == structure_verdicts(p, found) == (True, True)
    assert report.checks["affine_completeness"] is False
    assert report.checks["order_formula"] is False
    assert not any("composition" in line for line in report.failures)


def _injected_set(name):
    """A p, a set that is not every affine map, so verify checks the law on
    all pairs of coordinates, and the expected structure verdicts."""
    if name == "scalings_and_negations":
        # {(+-1, 0, u)} is a subgroup: closed, so the law passes
        p = 7
        found = [iso for u in range(1, p) for iso in (gen_aut(p, u), -gen_aut(p, u))]
        return p, found, (True, True)
    # the shifts plus one scaling and its inverse: a shift after the scaling
    # is no shift and no scaling, so the composition escapes
    p = 5
    found = [gen_linear(p, a) for a in range(p)] + [gen_aut(p, 2), gen_aut(p, 3)]
    return p, found, (False, False)


@pytest.mark.parametrize("name", ("scalings_and_negations", "shifts_and_one_scaling"))
def test_verify_structure_all_pairs_on_coordinates(monkeypatch, name):
    p, found, verdicts = _injected_set(name)
    monkeypatch.setattr(pigroup, "iter_perfect", lambda p, mode: iter(found))
    report = verify_structure(p)
    assert _structure_verdicts_of(report) == structure_verdicts(p, found) == verdicts
    missing = sorted(iso.as_literal() for iso in iter_perfect(p) if iso not in found)
    escapes = [
        f"composition escapes the set: {lhs.as_literal()} o {rhs.as_literal()}"
        for lhs in found
        for rhs in found
        if lhs.compose(rhs) not in found
    ]
    assert bool(escapes) is not verdicts[0]
    negid = gen_negid(p)
    absent = [] if negid in found else [f"negation not enumerated: {negid.as_literal()}"]
    assert report.failures == [
        *(f"affine isometry not enumerated: {literal}" for literal in missing),
        *escapes,
        *absent,
    ]


def test_missing_negation_fails_negid_central(monkeypatch):
    negid = gen_negid(5)
    found = [iso for iso in iter_perfect(5) if iso != negid]
    monkeypatch.setattr(pigroup, "iter_perfect", lambda p, mode: iter(found))
    report = verify_structure(5)
    assert _structure_verdicts_of(report) == structure_verdicts(5, found) == (False, False)
    assert report.failures[-1] == "negation not enumerated: -0,-1,-2,-3,-4"


def test_replaced_element_fails_completeness_by_count(monkeypatch):
    # the set keeps its size, so order_formula passes; completeness counts
    # distinct coordinates, so the copy does not stand in for the dropped map
    group = list(iter_perfect(5))
    dropped = gen_linear(5, 1)
    found = [group[0] if iso == dropped else iso for iso in group]
    assert len(found) == len(group) and dropped not in found
    monkeypatch.setattr(pigroup, "iter_perfect", lambda p, mode: iter(found))
    for report in (enumerate_perfect(5), verify_structure(5)):
        assert report.checks["order_formula"] is True
        assert report.checks["affine_completeness"] is False
        named = [line for line in report.failures if line.startswith("affine isometry not")]
        assert named == [f"affine isometry not enumerated: {dropped.as_literal()}"]
    assert _structure_verdicts_of(report) == structure_verdicts(5, found) == (False, True)


def test_duplicated_element_keeps_the_law(monkeypatch):
    group = list(iter_perfect(5))
    found = group + [group[7]]
    monkeypatch.setattr(pigroup, "iter_perfect", lambda p, mode: iter(found))
    report = verify_structure(5)
    assert _structure_verdicts_of(report) == structure_verdicts(5, found) == (True, True)
    assert report.checks["order_formula"] is False
    assert not report.failures


def test_verify_structure_validates_few_maps(monkeypatch):
    # the orbit images are permutations by construction and decomposing
    # builds no map: the one validated map is the identity inside gen_negid
    p = 13
    init = SignedIsometry.__init__
    calls = 0

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SignedIsometry, "__init__", counting)
    assert verify_structure(p).all_pass()
    assert calls == 1
    calls = 0
    assert enumerate_perfect(p).all_pass()
    assert calls == 0


def test_verify_structure_composes_linearly_many_times(monkeypatch):
    # the whole affine group holds the law on its coordinates: no map is composed
    p = 13
    compose = SignedIsometry.compose
    calls = 0

    def counting(self, other):
        nonlocal calls
        calls += 1
        return compose(self, other)

    monkeypatch.setattr(SignedIsometry, "compose", counting)
    assert verify_structure(p).all_pass()
    assert calls == 0


def test_verify_structure_inverts_nothing_when_the_law_passes(monkeypatch):
    # closure under composition already holds every inverse
    invert = SignedIsometry.invert
    calls = 0

    def counting(self):
        nonlocal calls
        calls += 1
        return invert(self)

    monkeypatch.setattr(SignedIsometry, "invert", counting)
    assert verify_structure(13).all_pass()
    assert calls == 0


def _all_coords(p):
    return [AffineCoords(e, a, u) for e in (1, -1) for a in range(p) for u in range(1, p)]


def _coord_pairs(p):
    """Every ordered pair of coordinates at small p, 2000 seeded pairs above."""
    coords = _all_coords(p)
    if p <= 7:
        return list(itertools.product(coords, repeat=2))
    rng = Random(SEED + p)
    return [(rng.choice(coords), rng.choice(coords)) for _ in range(2000)]


@pytest.mark.parametrize("p", (2, 3, 5, 7, 53, 101))
def test_law_is_the_composition_of_affine_maps(p):
    # verify reads the law off coordinates; this is the identity that makes it exact
    for cl, cr in _coord_pairs(p):
        assert recompose(p, cl).compose(recompose(p, cr)) == recompose(p, pigroup._law(p, cl, cr))


@pytest.mark.parametrize("p", (2, 3, 5, 7, 53, 101))
def test_inverse_of_an_affine_map_is_affine(p):
    coords = _all_coords(p)
    if p > 7:
        coords = Random(SEED + p).sample(coords, 2000)
    for c in coords:
        inv_u = pow(c.u, -1, p)
        expected = AffineCoords(c.eps, -c.a * inv_u % p, inv_u)
        assert recompose(p, c).invert() == recompose(p, expected)


def test_affine_composition_law_example():
    p = 5
    lhs = recompose(p, AffineCoords(1, 1, 2))
    rhs = recompose(p, AffineCoords(1, 3, 4))
    composed = decompose(lhs.compose(rhs))
    assert composed == AffineCoords(1, (1 + 2 * 3) % p, (2 * 4) % p)
    assert composed == AffineCoords(1, 2, 3)


def test_conjugation_relation_on_generators():
    for p in (2, 3, 5, 7, 53):
        for a in range(p):
            for u in range(1, p):
                scale = gen_aut(p, u)
                conjugated = scale.compose(gen_linear(p, a)).compose(scale.invert())
                assert conjugated == gen_linear(p, (a * u) % p)


def test_shifts_and_scalings_meet_only_in_the_identity():
    for p in (2, 3, 5, 7, 53):
        shifts = {gen_linear(p, a) for a in range(p)}
        scalings = {gen_aut(p, u) for u in range(1, p)}
        assert len(shifts) == p and len(scalings) == p - 1
        assert shifts & scalings == {SignedIsometry.identity(p)}


def test_report_json_dict_shape():
    report = enumerate_perfect(3, EXHAUSTIVE)
    payload = report.to_json_dict()
    assert set(payload) == {"p", "order", "elements", "checks"}
    assert tuple(payload["checks"]) == CHECK_KEYS
    assert payload["elements"][0] == {"eps": -1, "a": 0, "u": 1}
    assert payload["order"] == 12
