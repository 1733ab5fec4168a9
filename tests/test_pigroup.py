"""Tests for generators, enumeration, affine coordinates and structure checks."""

import copy
import inspect
import itertools
import pickle
import sys
import tracemalloc
import traceback
from random import Random

import pytest

from perfiso import pigroup
from perfiso import (
    AffineCoords,
    CHECK_KEYS,
    EXHAUSTIVE,
    FAILS_SEPARATION,
    KernelTable,
    MODES,
    NotPerfect,
    PERFECT,
    POSITIVE_THEN_NEGATE,
    SignedIsometry,
    Verdict,
    character,
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
from perfiso.cli import _report, main
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
    assert gen_linear(5, 0).as_literal() == "+0,+1,+2,+3,+4"
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
    assert gen_aut(5, 1) == gen_linear(5, 0)
    assert gen_aut(5, 2).as_literal() == "+0,+2,+4,+1,+3"
    # u is read mod p, so 0 and 10 both come to recompose as u = 0
    for u in (0, 10):
        with pytest.raises(ValueError, match=r"^u must lie in 1\.\.4, got 0$"):
            gen_aut(5, u)
    # p is checked before u is read mod p
    with pytest.raises(ValueError, match="^p must be prime, got 0$"):
        gen_aut(0, 1)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_generators_are_recompose_calls(p):
    # recompose builds every generator; gen_aut reads u mod p
    for a in range(p):
        assert gen_linear(p, a) == recompose(p, AffineCoords(1, a, 1))
    for u in range(1, p):
        assert gen_aut(p, u) == gen_aut(p, u + p) == recompose(p, AffineCoords(1, 0, u))
    assert gen_negid(p) == recompose(p, AffineCoords(-1, 0, 1))


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
    assert set(neg.signs) == {-1}
    # verify takes this involution for granted; it reads nothing of the enumerated set
    for p in (2, 3, 5, 7, 53):
        neg, identity = gen_negid(p), gen_linear(p, 0)
        assert neg.compose(neg) == identity and neg != identity


@pytest.mark.parametrize("p", (2, 3, 5, 7, 53))
def test_negation_commutes_with_every_signed_map(p):
    # verify takes this for granted too: both composites keep the image and
    # negate every sign, whatever the map and its signs
    rng = Random(SEED + 3 * p)
    neg = gen_negid(p)
    maps = [random_isometry(rng, p) for _ in range(50)]
    assert any(len(set(iso.signs)) == 2 for iso in maps)
    for iso in maps + [gen_linear(p, 0), neg]:
        negated = SignedIsometry(p, iso.image, [-s for s in iso.signs])
        assert neg.compose(iso) == iso.compose(neg) == negated


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
def test_fast_checker_matches_is_perfect_on_sampled_candidates(p):
    # random signed candidates, then random and affine images with each
    # homogeneous sign: the banded scan used for homogeneous signs is the
    # oracle's fast path
    rng = Random(SEED + p)
    images = [tuple(rng.sample(range(p), p)) for _ in range(300)]
    candidates = [(image, tuple(rng.choice((1, -1)) for _ in range(p))) for image in images]
    images += [recompose(p, AffineCoords(1, a, u)).image for a in range(p) for u in range(1, p)]
    candidates += [(image, (eps,) * p) for image in images for eps in (1, -1)]
    for image, signs in candidates:
        fast = candidate_is_perfect(p, image, signs)
        full = is_perfect(SignedIsometry(p, image, signs)).status == PERFECT
        assert fast == full


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize(
    "p,expected_order", [(2, 4), (3, 12), (5, 40)]
)
def test_enumeration_orders(p, expected_order):
    report = enumerate_perfect(p)
    assert report.order == expected_order
    assert report.checks["order_formula"] is True
    assert report.checks["homogeneous_sign"] is True
    assert report.checks["affine_completeness"] is True
    assert report.checks["semidirect_law"] is None
    assert report.checks["negid_central"] is None
    assert tuple(report.checks) == CHECK_KEYS  # the order the CLI writes them in
    elements = list(report.elements())
    assert elements == sorted(elements)
    assert not report.failures


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_modes_agree(p):
    # one search serves both modes, so the reports take no mode
    assert list(iter_perfect(p, EXHAUSTIVE)) == list(iter_perfect(p, POSITIVE_THEN_NEGATE))
    assert list(iter_perfect(p)) == list(iter_perfect(p, EXHAUSTIVE))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_search_matches_brute_force_walk(p):
    # every one of the 2^p * p! signed candidates is decided by the oracle
    walk = perfect_candidates_walk(p)
    assert len(walk) == 2 * p * (p - 1)
    for mode in MODES:
        assert list(iter_perfect(p, mode)) == walk


PRIMES_TO_101 = tuple(n for n in range(2, 102) if all(n % d for d in range(2, n)))


def test_search_keeps_the_recursive_order_and_leaves():
    for p in PRIMES_TO_101:
        assert pigroup._normal_forms(p) == perfect_images_full_search(p, (0, 1)[:p]), p


def test_search_takes_no_frame_per_depth():
    # the recursive search needed p frames; this one runs 50 frames above
    # the caller's depth at p = 211
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 50)
    try:
        forms = pigroup._normal_forms(211)
    finally:
        sys.setrecursionlimit(limit)
    assert forms == [tuple(range(211))]


def _line_runs(p, text, read):
    """``read(frame)`` at each run of the line ``text`` of _normal_forms at
    p, by a line tracer on that function's frames alone."""
    code = pigroup._normal_forms.__code__
    source, first = inspect.getsourcelines(pigroup._normal_forms)
    (target,) = [first + i for i, line in enumerate(source) if line.strip() == text]
    runs = []

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            runs.append(read(frame))
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        pigroup._normal_forms(p)
    finally:
        sys.settrace(previous)
    return runs


def _values_tested(p):
    """How many values _normal_forms tests at p: the runs of its line
    ``grown = []``, which each value not yet placed reaches."""
    return len(_line_runs(p, "grown = []", lambda frame: None))


def test_search_tests_the_values_its_docstring_states():
    counts = {7: 17, 13: 68, 53: 1328, 101: 4952}
    stated = "It tests 17 values at p = 7, 68 at p = 13, 1,328 at p = 53 and 4,952 at p = 101"
    assert stated in " ".join(pigroup.__doc__.split())
    assert {p: _values_tested(p) for p in counts} == counts


def test_search_makes_the_mask_operations_its_docstring_states():
    # every placed value meets all p - 1 masks and every other tested value
    # only the c = -1 mask that cuts it; a dropped c changes no verdict, so
    # only this count sees it
    counts = {7: 52, 13: 211, 53: 4031, 101: 14951}
    stated = "52 at p = 7, 211 at p = 13, 4,031 at p = 53 and 14,951 at p = 101"
    assert stated in " ".join(pigroup.__doc__.split())
    assert all(p * (p - 1) + (p - 2) * (p - 3) // 2 == n for p, n in counts.items())
    runs = {p: len(_line_runs(p, "mask |= bits[v + step]", lambda frame: None)) for p in counts}
    assert runs == counts


def test_search_holds_one_prefix_per_depth():
    # the c = -1 cut leaves at most one prefix at each of the p depths, so
    # the search holds the masks of one prefix at a time, O(p^2) bits
    for p in (7, 13, 53, 101):
        sizes = _line_runs(p, "level = extended", lambda frame: len(frame.f_locals["extended"]))
        assert sizes == [1] * p, p
    tracemalloc.start()
    try:
        forms = pigroup._normal_forms(211)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forms == [tuple(range(211))]
    assert peak < 512 * 1024, peak


PRIMES_TO_29 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@pytest.mark.parametrize("p", PRIMES_TO_29)
def test_subtree_search_matches_full_search(p):
    # the prefix-(0, 1) subtree and its affine orbit give the whole tree's hits
    images = perfect_images_full_search(p)
    orbit = list(pigroup._orbit(p, pigroup._normal_forms(p)))
    walk = [SignedIsometry(p, image, (eps,) * p) for image in images for eps in (1, -1)]
    assert orbit == walk
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
    assert decompose(SignedIsometry.from_literal(5, "+0,+1,+2,+3,+4")) == AffineCoords(1, 0, 1)
    assert decompose(SignedIsometry.from_literal(5, "-0,-1,-2,-3,-4")) == AffineCoords(-1, 0, 1)
    iso = SignedIsometry.from_literal(5, "+1,+3,+0,+2,+4")
    assert decompose(iso) == AffineCoords(1, 1, 2)


def test_decompose_rejects_non_affine_and_mixed():
    with pytest.raises(NotPerfect):
        decompose(SignedIsometry.from_literal(5, "+0,+2,+1,+3,+4"))
    with pytest.raises(NotPerfect):
        decompose(SignedIsometry(3, (0, 1, 2), (1, -1, 1)))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_decompose_matches_closed_form_on_every_signed_map(p):
    # mixed signs are named first, then a non-affine image; every other map
    # is k -> eps*(a + u*k) with a = image[0] and u = image[1] - image[0]
    for image in itertools.permutations(range(p)):
        a, u = image[0], (image[1] - image[0]) % p
        affine = image == tuple((a + u * k) % p for k in range(p))
        for signs in itertools.product((1, -1), repeat=p):
            iso = SignedIsometry(p, image, signs)
            if len(set(signs)) > 1:
                with pytest.raises(NotPerfect, match="^mixed sign profile: "):
                    decompose(iso)
            elif not affine:
                with pytest.raises(NotPerfect, match="^not an affine map: "):
                    decompose(iso)
            else:
                assert decompose(iso) == AffineCoords(signs[0], a, u)


def test_recompose_validation():
    for eps in (0, 2):
        with pytest.raises(ValueError, match=f"^eps must be \\+1 or -1, got {eps}$"):
            recompose(5, AffineCoords(eps, 0, 1))
    # p is checked first: u = 5 is also out of range for p = 4
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        recompose(4, AffineCoords(1, 0, 5))
    # u = 0 and u = p are refused by recompose's own range check, not later
    # by SignedIsometry's permutation check
    for u in (0, 5):
        with pytest.raises(ValueError, match=rf"^u must lie in 1\.\.4, got {u}$"):
            recompose(5, AffineCoords(1, 0, u))
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
    assert tuple(report.checks) == CHECK_KEYS
    assert all(report.checks[key] is True for key in CHECK_KEYS)
    assert report.all_pass()
    assert not report.failures


def _structure_verdicts_of(report):
    return report.checks["semidirect_law"], report.checks["negid_central"]


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
@pytest.mark.parametrize("mode", MODES)
def test_verify_structure_matches_all_pairs_oracle(p, mode):
    found = list(iter_perfect(p, mode))
    assert _structure_verdicts_of(verify_structure(p)) == structure_verdicts(p, found)


# The reports read every check off the normal forms that the search returns.
# It returns only the identity, so the tests inject other lists: the forms are
# permutations with prefix (0, 1), and x is one that is not affine.
NON_AFFINE_FORM = {5: (0, 1, 3, 2, 4), 7: (0, 1, 3, 2, 4, 5, 6)}
FORM_LISTS = ("none", "identity", "identity_twice", "identity_and_x", "x")
# the checks of verify, in CHECK_KEYS order
EXPECTED_CHECKS = {
    "none": (True, False, True, False, False),
    "identity": (True, True, True, True, True),
    "identity_twice": (True, True, True, True, False),
    "identity_and_x": (True, False, False, True, False),
    "x": (True, False, False, False, True),
}


def _injected(monkeypatch, p, name):
    """Make the search return the named form list; return the maps of its
    orbit, built and validated here: every k -> eps*(u*form[k] + a) in
    order of image, the all-positive map first."""
    identity, x = tuple(range(p)), NON_AFFINE_FORM[p]
    forms = {
        "none": [],
        "identity": [identity],
        "identity_twice": [identity, identity],
        "identity_and_x": [identity, x],
        "x": [x],
    }[name]
    monkeypatch.setattr(pigroup, "_normal_forms", lambda p: list(forms))
    images = sorted(
        tuple((u * v + a) % p for v in form)
        for form in forms
        for u in range(1, p)
        for a in range(p)
    )
    return [SignedIsometry(p, image, (eps,) * p) for image in images for eps in (1, -1)]


def _is_affine(iso):
    p, image = iso.p, iso.image
    return image == tuple((image[0] + (image[1] - image[0]) * k) % p for k in range(p))


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("name", FORM_LISTS)
def test_verify_structure_matches_oracle_on_injected_forms(monkeypatch, p, name):
    maps = _injected(monkeypatch, p, name)
    coords = sorted(decompose(iso) for iso in maps if _is_affine(iso))
    verified, enumerated = verify_structure(p), enumerate_perfect(p)
    assert _structure_verdicts_of(verified) == structure_verdicts(p, maps)
    assert tuple(verified.checks[key] for key in CHECK_KEYS) == EXPECTED_CHECKS[name]
    assert _structure_verdicts_of(enumerated) == (None, None)
    for report in (verified, enumerated):
        assert report.order == len(maps)
        assert list(report.elements()) == coords
        for key in ("homogeneous_sign", "affine_completeness", "order_formula"):
            assert report.checks[key] == verified.checks[key]


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("name", FORM_LISTS)
def test_verify_structure_failure_diagnostics(monkeypatch, capsys, p, name):
    maps = _injected(monkeypatch, p, name)
    non_affine = [
        f"non-affine perfect isometry: {iso.as_literal()}" for iso in maps if not _is_affine(iso)
    ]
    missing = [] if maps else sorted(recompose(p, c).as_literal() for c in _all_coords(p))
    named = non_affine + [f"affine isometry not enumerated: {literal}" for literal in missing]
    skipped = ["composition law skipped: some element is non-affine"] if non_affine else []
    negid = gen_negid(p)
    absent = [] if negid in maps else [f"negation not enumerated: {negid.as_literal()}"]

    report = verify_structure(p)
    assert _structure_verdicts_of(report) == structure_verdicts(p, maps)
    assert report.failures == named + skipped + absent
    assert enumerate_perfect(p).failures == named

    assert main(["verify", "-p", str(p)]) == (0 if report.all_pass() else 1)
    out = capsys.readouterr().out
    assert out.endswith("".join(f"  ! {line}\n" for line in report.failures))
    assert report.all_pass() is (name == "identity")


def test_reports_build_no_map_when_the_checks_pass(spy):
    # the checks are read off the one normal form, the identity: no map is
    # built, validated or not, and none is decomposed
    new, unchecked = spy(SignedIsometry, "__new__"), spy(SignedIsometry, "_unchecked")
    decomposed = spy(pigroup, "decompose")
    identity = gen_linear(3, 0)
    identity.compose(identity)
    assert (len(new), len(unchecked)) == (1, 1)  # the counters see both constructors
    del new[:], unchecked[:]
    p = 101
    assert verify_structure(p).all_pass()
    assert enumerate_perfect(p).all_pass()
    assert new == unchecked == decomposed == []


def test_verify_structure_composes_linearly_many_times(spy):
    # the whole affine group holds the law on its coordinates: no map is composed
    calls = spy(SignedIsometry, "compose")
    identity = gen_linear(3, 0)
    identity.compose(identity)
    assert calls == [(identity,)]  # the counter is live
    calls.clear()
    assert verify_structure(13).all_pass()
    assert calls == []


def test_verify_structure_inverts_nothing_when_the_law_passes(spy):
    # closure under composition already holds every inverse
    calls = spy(SignedIsometry, "invert")
    gen_linear(3, 0).invert()
    assert calls == [()]  # the counter is live
    calls.clear()
    assert verify_structure(13).all_pass()
    assert calls == []


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
        law = AffineCoords(cl.eps * cr.eps, (cl.a + cl.u * cr.a) % p, cl.u * cr.u % p)
        assert recompose(p, cl).compose(recompose(p, cr)) == recompose(p, law)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 53, 101))
def test_inverse_of_an_affine_map_is_affine(p):
    coords = _all_coords(p)
    if p > 7:
        coords = Random(SEED + p).sample(coords, 2000)
    for c in coords:
        inv_u = pow(c.u, -1, p)
        expected = AffineCoords(c.eps, -c.a * inv_u % p, inv_u)
        assert recompose(p, c).invert() == recompose(p, expected)


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
        assert shifts & scalings == {gen_linear(p, 0)}


def test_report_json_dict_shape():
    # cli._report writes the report's keys; main's envelope adds "schema" and "p"
    ok, payload, _ = _report(enumerate_perfect(3), "json")
    assert ok and list(payload) == ["order", "elements", "checks"]
    assert tuple(payload["checks"]) == CHECK_KEYS
    assert payload["elements"][0] == {"eps": -1, "a": 0, "u": 1}
    assert payload["order"] == 12


# ---------------------------------------------------------------------------
# the record types: the protocol every record shares, then what callers read
# of a PIGroupReport alone


RECORDS = (
    (AffineCoords(-1, 2, 3), "AffineCoords(eps=-1, a=2, u=3)"),
    (Verdict(PERFECT), "Verdict(status='perfect', witness=None)"),
    (Verdict(FAILS_SEPARATION, (1, 0)), "Verdict(status='fails_separation', witness=(1, 0))"),
    (KernelTable(2, ((1, 2), (3, 4))), "KernelTable(p=2, entries=((1, 2), (3, 4)))"),
    (
        enumerate_perfect(2),
        "PIGroupReport(p=2, order=4, identity_forms=1, checks={'homogeneous_sign': True,"
        " 'affine_completeness': True, 'semidirect_law': None, 'negid_central': None,"
        " 'order_formula': True}, failures=[])",
    ),
    (
        SignedIsometry(3, (2, 0, 1), (1, -1, 1)),
        "SignedIsometry(p=3, image=(2, 0, 1), signs=(1, -1, 1))",
    ),
    (
        character(3, 1),
        "ClassFunction(p=3, values=(CycInt(p=3, coeffs=(1, 0, 0)), CycInt(p=3, coeffs=(0, 1, 0)),"
        " CycInt(p=3, coeffs=(-1, -1, 0))))",
    ),
)


RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record,text", RECORDS, ids=RECORD_IDS)
def test_record_protocol(record, text):
    # a record is the plain tuple of its fields: it unpacks, compares and
    # hashes as that tuple, reads each field by the name its repr shows, and
    # refuses to set one
    plain = (*record,)
    assert tuple(getattr(record, name) for name in record._fields) == plain
    assert record == plain and plain == record and record != plain[:-1]
    assert repr(record) == text
    if isinstance(record, pigroup.PIGroupReport):
        with pytest.raises(TypeError):
            hash(record)  # it holds a list and a dict
    else:
        assert hash(record) == hash(plain) and len({record, plain}) == 1
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=RECORD_IDS)
def test_records_copy_and_pickle(record):
    # copy and pickle rebuild a record from its fields, as positional arguments
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=RECORD_IDS)
def test_records_refuse_tuple_arithmetic(record):
    # a record is a value, not a sequence: it neither joins nor repeats like a tuple
    for join in (lambda: record + record, lambda: () + record, lambda: record * 2, lambda: 2 * record):
        with pytest.raises(TypeError):
            join()


def test_pigroup_report_record():
    checks = dict.fromkeys(CHECK_KEYS, True) | {CHECK_KEYS[2]: None}
    report = pigroup.PIGroupReport(2, 4, 1, checks, [])
    # the elements are plain tuples, eps, a and u increasing, once per identity form
    elements = [(-1, 0, 1), (-1, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert list(report.elements()) == elements
    assert {type(c) for c in report.elements()} == {tuple}
    twice = pigroup.PIGroupReport(2, 8, 2, checks, [])
    assert list(twice.elements()) == [c for c in elements for _ in range(2)]
    assert list(pigroup.PIGroupReport(2, 0, 0, checks, []).elements()) == []
    assert report.all_pass()  # None is a check not evaluated, not a failure
    assert _report(report, "json")[1] == {
        "order": 4,
        "elements": [{"eps": eps, "a": a, "u": u} for eps, a, u in elements],
        "checks": checks,
    }
    failed = pigroup.PIGroupReport(2, 0, 0, checks | {CHECK_KEYS[0]: False}, ["! x"])
    assert not failed.all_pass()
    ok, payload, _ = _report(failed, "json")
    assert not ok
    assert payload["failures"] == ["! x"] and payload["failures"] is failed.failures
    assert list(payload) == ["order", "elements", "checks", "failures"]
    assert payload["elements"] == []
    assert list(payload["checks"]) == list(CHECK_KEYS)
