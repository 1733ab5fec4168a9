"""Per-layer timings: each public function of a perfiso module, timed on its own.

Inputs come from the run's seed. Cheap calls are repeated in batches and the
median per-call time is kept; calls that take more than a batch budget run
once. Comments on each group name the end-to-end metric it should move.
"""

from __future__ import annotations

import random
import statistics
import time

from oracle import literal
from spans import Tracer, clear_caches
from workloads import EXHAUSTIVE, POSITIVE, Op, affine, random_signed

BATCH_S = 0.04
BATCHES = 5
CLI_REPEATS = 5
PHASE_REPEATS = 9


def per_call_s(fn, batch_s: float = BATCH_S, batches: int = BATCHES) -> float:
    """Median seconds per call of ``fn()`` over a few timed batches."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    if first >= batch_s:
        return first
    size = max(1, int(batch_s / max(first, 1e-7)))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(size):
            fn()
        samples.append((time.perf_counter() - start) / size)
    return statistics.median(samples)


def _vector(rng: random.Random, p: int, bound: int) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(p)]


def cli_self_ms(mods: dict, rng: random.Random) -> dict[str, float]:
    """In-process ``cli.main`` minus the spans of the library calls it makes, per command."""
    aff13 = affine(rng, 13)
    ops = [
        Op("chartab", 13),
        Op("mu", 13, image=aff13[0], signs=aff13[1]),
        Op("check", 13, image=aff13[0], signs=aff13[1]),
        Op("decompose", 13, image=aff13[0], signs=aff13[1]),
        Op("enumerate", 5),
        Op("verify", 5),
    ]
    out = {}
    with Tracer().installed(mods) as tracer:
        for op in ops:
            selfs = []
            for _ in range(CLI_REPEATS):
                clear_caches(mods)
                first = len(tracer.spans)
                tracer.run(mods, 0, op.argv())
                selfs.append(tracer.self_ns()[first] / 1e6)
            out[op.command] = statistics.median(selfs)
    return out


def measure(mods: dict, seed: int) -> dict[str, tuple[float, str]]:
    cyc, chars, iso_m, pig = (mods[n] for n in ("cyclotomic", "characters", "isometry", "pigroup"))
    CycInt = cyc.CycInt
    rng = random.Random(f"layers:{seed}")
    m: dict[str, tuple[float, str]] = {}

    def us(name, fn):
        m[name] = (per_call_s(fn) * 1e6, "us")

    def ms(name, fn):
        m[name] = (per_call_s(fn) * 1e3, "ms")

    # cyclotomic -> wall_s on certify; mul at p=7 -> op_p50_ms on scripted
    for p in (23, 53):
        coeffs = _vector(rng, p, 2 * p)
        us(f"cyclotomic.construct_us.p{p}", lambda p=p, c=coeffs: CycInt(p, c))
    x, y = CycInt(53, _vector(rng, 53, 53)), CycInt(53, _vector(rng, 53, 53))
    us("cyclotomic.add_us.p53", lambda: x + y)
    for p in (7, 23, 53, 101):
        a, b = CycInt(p, _vector(rng, p, p)), CycInt(p, _vector(rng, p, p))
        us(f"cyclotomic.mul_us.p{p}", lambda a=a, b=b: a * b)
    multiple = x * 53
    us("cyclotomic.divide_exact_by_p_us.p53", multiple.divide_exact_by_p)

    # symbolic_str and the cold character table -> wall_s on certify (chartab, mu)
    image53, signs53 = affine(rng, 53)
    iso53 = iso_m.SignedIsometry(53, image53, signs53)
    kt53 = iso_m.kernel_table(iso53)
    entries = [e for row in kt53.entries for e in row]
    start = time.perf_counter()
    for e in entries:
        cyc.symbolic_str(e)
    m["cyclotomic.symbolic_str_us.p53"] = ((time.perf_counter() - start) / len(entries) * 1e6, "us")

    def cold_table():
        chars.char_table.cache_clear()
        chars.char_table(53)

    ms("characters.char_table_ms.p53", cold_table)
    us("characters.indicator_us.p53", lambda: chars.indicator(53, 7))
    g1 = chars.generalized_character(23, _vector(rng, 23, 3))
    g2 = chars.generalized_character(23, _vector(rng, 23, 3))
    ms("characters.inner_product_ms.p23", lambda: chars.inner_product(g1, g2))

    # isometry -> wall_s on certify; from_literal -> op_p50_ms on scripted
    text53 = literal(image53, signs53)
    us("isometry.from_literal_us.p53", lambda: iso_m.SignedIsometry.from_literal(53, text53))
    for p in (23, 53):
        im, sg = affine(rng, p)
        one = iso_m.SignedIsometry(p, im, sg)
        ms(f"isometry.kernel_table_ms.p{p}", lambda one=one: iso_m.kernel_table(one))
    reject53 = iso_m.SignedIsometry(53, *random_signed(rng, 53))
    for check in ("is_perfect", "is_perfect_via_spaces"):
        fn = getattr(iso_m, check)
        ms(f"isometry.{check}_ms.p53.accept", lambda fn=fn: fn(iso53))
        ms(f"isometry.{check}_ms.p53.reject", lambda fn=fn: fn(reject53))
    beta = chars.character(53, rng.randrange(53))
    ms("isometry.forward_transform_ms.p53", lambda: iso_m.forward_transform(kt53, beta))

    # group operations -> wall_s on classify (verify's structural checks)
    s1 = iso_m.SignedIsometry(11, *random_signed(rng, 11))
    s2 = iso_m.SignedIsometry(11, *random_signed(rng, 11))
    us("isometry.compose_us.p11", lambda: s1.compose(s2))
    us("isometry.invert_us.p11", s1.invert)
    aff11 = iso_m.SignedIsometry(11, *affine(rng, 11))
    coords11 = pig.decompose(aff11)
    us("pigroup.decompose_us.p11", lambda: pig.decompose(aff11))
    us("pigroup.recompose_us.p11", lambda: pig.recompose(11, coords11))

    # candidate walk -> wall_s on classify; the candidate count is computed from the mode
    for mode, label, candidates in ((EXHAUSTIVE, "exhaustive", 2**7 * 5040), (POSITIVE, "positive", 5040)):
        clear_caches(mods)
        start = time.perf_counter()
        found = list(pig.iter_perfect(7, mode))
        search = time.perf_counter() - start
        hits = sum(1 for f in found if mode == EXHAUSTIVE or f.signs[0] == 1)
        m[f"pigroup.search_s.p7.{label}"] = (search, "s")
        m[f"pigroup.candidate_ns.p7.{label}"] = (search / candidates * 1e9, "ns")
        m[f"pigroup.candidates_computed.p7.{label}"] = (candidates, "count")
        m[f"pigroup.hits.p7.{label}"] = (hits, "count")
        m[f"pigroup.hit_ratio.p7.{label}"] = (hits / candidates, "ratio")
    # report and structure phases, as differences of paired runs -> wall_s on classify
    phases = {"search": lambda: list(pig.iter_perfect(7)), "enumerate": lambda: pig.enumerate_perfect(7),
              "verify": lambda: pig.verify_structure(7)}
    times = {name: [] for name in phases}
    for _ in range(PHASE_REPEATS):
        for name, fn in phases.items():
            clear_caches(mods)
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    search, enum, verify = (statistics.median(times[n]) for n in phases)
    m["pigroup.report_ms.p7"] = ((enum - search) * 1e3, "ms")
    m["pigroup.structure_ms.p7"] = ((verify - enum) * 1e3, "ms")

    # cli's own time -> setup_s, and op_p50_ms on scripted
    for command, value in cli_self_ms(mods, rng).items():
        m[f"cli.self_ms.{command}"] = (value, "ms")
    return m
