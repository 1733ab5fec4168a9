"""perfiso benchmark: one closed-loop client driving the CLI, one call at a time.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the program under test is the
checkout's ``src/perfiso``. Every operation is a fresh ``python -m perfiso``
child, because every real call pays interpreter start, import and cache
fills; ``launcher.py`` starts the children, and their times are scaled to a
host of fixed speed (``HostClock``). With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run instead executes one round
in-process, with and without spans, plus the per-layer timings of
``layers.py``. Earlier lines are a readable table. See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import oracle
import selftest
import spans
from workloads import WORKLOADS, Op, make_round, rounds_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0  # no op runs past this, counted from start, so a run ends inside 180 s
STARTED = time.perf_counter()
SETUP_REPEATS = 15
SETUP_CODE = "import perfiso.cli as c; c.build_parser()"
TAIL_BEYOND = 10


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Result:
    op: Op | None
    wall_s: float
    rss_kb: int
    code: int
    stdout: str
    error: str | None = None


class Launcher:
    """The ``launcher.py`` process that starts every child (see its docstring)."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.stdout = OUT_DIR / f"child-{os.getpid()}.out"
        self.stderr = OUT_DIR / f"child-{os.getpid()}.err"
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list[str], timeout: float) -> dict:
        request = {"argv": argv, "stdout": str(self.stdout), "stderr": str(self.stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"the launcher exited with code {self.proc.wait()}")
        return json.loads(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.stdout.unlink(missing_ok=True)
        self.stderr.unlink(missing_ok=True)


LAUNCHER: Launcher | None = None


def spawn(args: list[str], timeout: float = OP_TIMEOUT_S) -> Result:
    """Run ``python <args>`` to completion; rusage comes from wait4 on the child."""
    global LAUNCHER
    if LAUNCHER is None:
        LAUNCHER = Launcher()
    done = LAUNCHER.run([sys.executable, *args], timeout)
    return Result(
        None,
        done["wall_s"],
        done["rss_kb"],
        done["code"],
        LAUNCHER.stdout.read_text(errors="replace"),
        "timed out" if done["timed_out"] else None,
    )


def write_json(name: str, rows: list) -> str:
    """Write raw samples under .perfbench_out/ once, at the end of a run."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(rows))
    return str(path.relative_to(ROOT))


def ref_loop_ms() -> float:
    """A fixed pure-Python loop; its time tracks how fast this host is right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


class HostClock:
    """Scales child wall times to a host of fixed speed.

    The host's speed drifts by tens of percent over seconds to minutes, and
    every child slows with it. A bare interpreter start (``python -I -c pass``,
    which sees nothing of the checkout) is timed before the first child and
    again whenever ``PROBE_EVERY_S`` of children have run since the last one.
    Each child's wall is multiplied by ``NOMINAL_S`` over the mean of the
    probes on either side of it, so it reads as on a host whose bare start
    takes ``NOMINAL_S``. The probe never runs perfiso code, so a change to the
    program moves a scaled time exactly as it moves the wall.
    """

    PROBE_EVERY_S = 0.25
    NOMINAL_S = 0.040

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.probes: list[tuple[int, float]] = []  # (children timed before it, wall)
        self._since = 0.0
        self._probe()

    def _probe(self) -> None:
        self.probes.append((len(self.walls), spawn(["-I", "-c", "pass"]).wall_s))
        self._since = 0.0

    def add(self, wall_s: float) -> int:
        """Record the wall of a child that has just ended; returns its index."""
        self.walls.append(wall_s)
        self._since += wall_s
        if self._since >= self.PROBE_EVERY_S:
            self._probe()
        return len(self.walls) - 1

    def scaled(self) -> list[float]:
        if self.probes[-1][0] < len(self.walls):
            self._probe()
        out, j = [], 0
        for i, wall in enumerate(self.walls):
            while self.probes[j + 1][0] <= i:
                j += 1
            ref = (self.probes[j][1] + self.probes[j + 1][1]) / 2
            out.append(wall * self.NOMINAL_S / ref)
        return out


def run_op(op: Op) -> Result:
    left = STARTED + RUN_DEADLINE_S - time.perf_counter()
    if left <= 0:
        return Result(op, 0.0, 0, -1, "", "not started: run deadline passed")
    res = spawn(["-m", "perfiso", *op.argv()], min(OP_TIMEOUT_S, left))
    res.op = op
    if res.error is None:
        res.error = oracle.failure(op, res.code, res.stdout)
    return res


def check_source() -> None:
    """Fail unless children import perfiso from this checkout's src/."""
    probe = spawn(["-c", "import perfiso.cli as c; print(c.__file__)"])
    where = Path(probe.stdout.strip()).resolve()
    if probe.code != 0 or SRC.resolve() not in where.parents:
        raise RuntimeError(f"perfiso.cli was not imported from {SRC}: {probe.stdout!r}")


def setup_pair() -> tuple[float, float]:
    """Wall of a fresh interpreter that imports perfiso.cli and builds the
    parser, and of a bare interpreter start right after it."""
    return spawn(["-c", SETUP_CODE]).wall_s, spawn(["-c", "pass"]).wall_s


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples above it: (value, percentile, n).

    With fewer than TAIL_BEYOND + 1 samples this is the minimum."""
    ordered = sorted(walls)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list[Result], dict]:
    host = [ref_loop_ms()]
    check_source()
    rounds = [make_round(workload, seed, i) for i in range(rounds_for(workload, seconds))]
    # Set-up samples are spread over the run, like the operations.
    every = max(1, sum(map(len, rounds)) // SETUP_REPEATS)
    clock = HostClock()
    setup_at: list[int] = []
    results: list[tuple[Result, int]] = []
    for ops in rounds:
        for op in ops:
            if len(results) % every == 0:
                setup_at.append(clock.add(spawn(["-c", SETUP_CODE]).wall_s))
            res = run_op(op)
            results.append((res, clock.add(res.wall_s)))
    host.append(ref_loop_ms())
    scaled = clock.scaled()
    write_json(f"ops-{workload.name}-seed{seed}.json", [
        [r.op.command, r.op.p, r.op.fmt, r.op.mode, r.wall_s, scaled[i], r.rss_kb, r.code, r.error]
        for r, i in results
    ])
    timed = [(r.wall_s, scaled[i]) for r, i in results if r.wall_s > 0]
    walls = [s for _, s in timed]
    tail_ms, tail_pct, n = tail(walls)
    metrics = {
        "setup_s": (statistics.median(scaled[i] for i in setup_at), "s"),
        "wall_s": (sum(walls), "s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "op_tail_ms": (tail_ms * 1e3, "ms"),
        "peak_rss_mb": (max(r.rss_kb for r, _ in results) / 1024, "MB"),
    }
    raw = [w for w, _ in timed]
    info = {
        "rounds": len(rounds),
        "ops": len(results),
        "tail": f"op_tail_ms is p{tail_pct:.1f} of {n} ops",
        "host.ref_loop_ms": f"{statistics.median(host):.6g} ms",
        "host.bare_start_ms": f"{statistics.median(w for _, w in clock.probes) * 1e3:.6g} ms over {len(clock.probes)} probes",
        "unscaled": (
            f"setup_s {statistics.median(clock.walls[i] for i in setup_at):.6g} wall_s {sum(raw):.6g} "
            f"op_p50_ms {statistics.median(raw) * 1e3:.6g} op_tail_ms {tail(raw)[0] * 1e3:.6g}"
        ),
    }
    return metrics, [r for r, _ in results], info


def in_process(mods, op: Op, op_id: int, tracer=None) -> Result:
    """Run one op through ``cli.main`` in this process, caches emptied first."""
    spans.clear_caches(mods)
    argv = op.argv()
    with tracer.installed(mods) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        code, out = tracer.run(mods, op_id, argv) if tracer else spans.call_main(mods, argv)
        wall = time.perf_counter() - start
    return Result(op, wall, 0, code, out, oracle.failure(op, code, out))


def per_layer(workload, seed: int) -> tuple[dict, list[Result], dict]:
    host = [ref_loop_ms()]
    check_source()
    setup_s, bare_s = map(statistics.median, zip(*(setup_pair() for _ in range(SETUP_REPEATS))))
    mods = spans.load(SRC)
    ops = make_round(workload, seed, 0)
    tracer = spans.Tracer()
    plain, traced = [], []
    for op_id, op in enumerate(ops):
        # Each op runs plain and traced back to back, in alternating order,
        # so host drift falls on both sides of the overhead alike.
        for side in ((plain, traced) if op_id % 2 == 0 else (traced, plain)):
            side.append(in_process(mods, op, op_id, tracer if side is traced else None))
    host.append(ref_loop_ms())
    untraced_s = sum(r.wall_s for r in plain)
    traced_s = sum(r.wall_s for r in traced)
    results = plain + traced
    span_file = write_json(f"spans-{workload.name}.json", tracer.spans)  # large: one file per workload

    metrics = {"cli.import_ms": ((setup_s - bare_s) * 1e3, "ms")}
    self_ms = {module: ns / 1e6 for module, ns in tracer.self_by_module().items()}
    # characters does no work at all on classify; a time that is always 0 is left to the table.
    for module in ("cli", "pigroup", "isometry", "cyclotomic"):
        metrics[f"trace.self_ms.{module}"] = (self_ms[module], "ms")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace_overhead_pct"] = ((traced_s - untraced_s) / untraced_s * 100, "%")
    metrics["cyclotomic.symbolic_str_calls"] = (tracer.count("symbolic_str"), "count")
    metrics.update(layers.measure(mods, seed))
    host.append(ref_loop_ms())
    metrics["host.ref_loop_ms"] = (statistics.median(host), "ms")
    info = {
        "ops": len(ops),
        "spans written to": span_file,
        "self ms by module": ", ".join(f"{m} {v:.6g}" for m, v in self_ms.items()),
    }
    return metrics, results, info


def report(workload, metrics: dict, results: list[Result], info: dict) -> None:
    """A readable table, then the JSON result as the last line of stdout."""
    failed = [r for r in results if r.error]
    for r in failed[:5]:
        print(f"FAILED perfiso {' '.join(r.op.argv())[:120]}: {r.error}", file=sys.stderr)
    rows = {**metrics, "error_rate": (len(failed) / len(results), "ratio")}
    print(f"workload {workload.name}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the oracle at p=3 and exit")
    args = parser.parse_args(argv)
    if not (SRC / "perfiso" / "cli.py").is_file():
        print(f"error: no perfiso sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.self_test:
            return selftest.main(run_op)
        workload = WORKLOADS[args.workload]
        if args.trace:
            outcome = per_layer(workload, args.seed)
        else:
            outcome = end_to_end(workload, args.seed, args.seconds)
    finally:
        if LAUNCHER is not None:
            LAUNCHER.close()
    report(workload, *outcome)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
