"""Seeded operation lists for the three workloads.

A workload is a fixed list of perfiso invocations (a "round"); a run repeats
it a number of times that depends only on the requested run length, so two
commits always do the same work. The seed picks the maps, the output format
of each slot and the order within a round; the slots themselves (which
command, which p, accept or reject path) are fixed, so every seed costs about
the same. Classify's exhaustive enumerate and verify take turns by round
index, so every seed runs the same slots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import affine_coords, literal

EXHAUSTIVE = "exhaustive"
POSITIVE = "positive_then_negate"


@dataclass(frozen=True)
class Op:
    command: str
    p: int
    fmt: str = "text"
    mode: str | None = None
    image: tuple[int, ...] | None = None
    signs: tuple[int, ...] | None = None

    def argv(self) -> list[str]:
        args = [self.command, "-p", str(self.p)]
        if self.fmt != "text":
            args += ["--format", self.fmt]
        if self.mode is not None:
            args += ["--mode", self.mode]
        if self.image is not None:
            # "--map=" keeps a literal that starts with "-" from reading as a flag.
            args.append("--map=" + literal(self.image, self.signs))
        return args


def affine(rng: random.Random, p: int, eps: int | None = None):
    eps = eps if eps is not None else rng.choice((1, -1))
    a, u = rng.randrange(p), rng.randrange(1, p)
    return tuple((a + u * k) % p for k in range(p)), (eps,) * p


def random_signed(rng: random.Random, p: int):
    """A uniformly random signed permutation that is not a perfect map."""
    while True:
        image = list(range(p))
        rng.shuffle(image)
        signs = tuple(rng.choice((1, -1)) for _ in range(p))
        if affine_coords(image, signs) is None:
            return tuple(image), signs


def swapped_affine(rng: random.Random, p: int):
    """An affine map with two images exchanged: homogeneous signs, not affine for p >= 5."""
    image, signs = affine(rng, p)
    image = list(image)
    i, j = rng.sample(range(p), 2)
    image[i], image[j] = image[j], image[i]
    return tuple(image), signs


def _map_op(command, p, fmt, pair) -> Op:
    return Op(command, p, fmt, image=pair[0], signs=pair[1])


def _per_isometry(
    rng, p, formats, accepts=1, mus=1, decomposes=1, rejects=(random_signed, swapped_affine)
) -> list[Op]:
    """chartab, mu, decompose and accept/reject checks at one p."""
    fmt = iter(formats)
    ops = [Op("chartab", p, next(fmt))]
    ops += [_map_op("mu", p, next(fmt), affine(rng, p)) for _ in range(mus)]
    ops += [
        _map_op("check", p, next(fmt), affine(rng, p, eps=(1, -1)[i % 2]))
        for i in range(accepts)
    ]
    ops += [_map_op("check", p, next(fmt), reject(rng, p)) for reject in rejects]
    ops += [_map_op("decompose", p, next(fmt), affine(rng, p)) for _ in range(decomposes)]
    return ops


def _reports(cases, formats) -> list[Op]:
    """enumerate and verify for each (p, mode) case."""
    fmt = iter(formats)
    return [Op(cmd, p, next(fmt), mode=mode) for p, mode in cases for cmd in ("enumerate", "verify")]


def _alternating(rng: random.Random):
    first = rng.choice(("text", "json"))
    second = "json" if first == "text" else "text"
    while True:
        yield first
        yield second


def classify_round(rng: random.Random, index: int) -> list[Op]:
    heavy = ("enumerate", "verify")[index % 2]
    ops = [Op(heavy, 7, rng.choice(("text", "json")), mode=EXHAUSTIVE)]
    fmt = _alternating(rng)
    # Two positive-mode verifies at p=7 per round: with 7 rounds (--seconds 30)
    # the slowest ops are the 7 exhaustive ones, then these 14, so op_tail_ms
    # (the 11th-slowest) falls inside the group of verifies, not at its edge.
    ops += [Op("verify", 7, next(fmt), mode=POSITIVE) for _ in range(2)]
    ops += [Op("enumerate", 7, next(fmt), mode=POSITIVE) for _ in range(4)]
    return ops + _reports([(5, POSITIVE), (5, EXHAUSTIVE), (3, POSITIVE), (3, EXHAUSTIVE)], fmt)


def certify_round(rng: random.Random, index: int) -> list[Op]:
    # One reject at p=53 per round: with 3 rounds (--seconds 30) the slowest
    # ops are 3 accepts, 3 mu and 3 chartab at p=53, so op_tail_ms (the
    # 11th-slowest) is the middle of the three p=53 rejects, not the edge of
    # a larger group. It is a random signed permutation, whose check costs
    # about the same for every seed; how soon a swapped affine map fails
    # depends on which two images were swapped, so that kind runs at p=23.
    fmt = _alternating(rng)
    return _per_isometry(rng, 53, fmt, rejects=(random_signed,)) + _per_isometry(
        rng, 23, fmt, accepts=2, mus=2, decomposes=2
    )


def scripted_round(rng: random.Random, index: int) -> list[Op]:
    fmt = _alternating(rng)
    ops = []
    for p in (5, 7, 11, 13):
        ops += _per_isometry(rng, p, fmt)
    return ops + _reports([(3, POSITIVE), (3, EXHAUSTIVE), (5, POSITIVE), (5, EXHAUSTIVE)], fmt)


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    round_seconds: float  # nominal length of one round; turns --seconds into a round count


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify", classify_round, 4.5),
        Workload("certify", certify_round, 10.0),
        Workload("scripted", scripted_round, 3.5),
    )
}


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.round_seconds))


def make_round(workload: Workload, seed: int, index: int) -> list[Op]:
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    ops = workload.make_round(rng, index)
    rng.shuffle(ops)
    return ops
