"""Starts the benchmark's child processes, one at a time, from a small process.

A child's ``ru_maxrss`` starts at the memory high-water mark of the process
that spawned it, so a child spawned by ``run.py`` itself would report at
least the size of the benchmark. This launcher runs as ``python -I -S`` and
imports almost nothing, so the peak RSS of a perfiso child is its own.

One JSON object per line. ``run.py`` writes
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``; the
launcher runs ``argv`` in its own working directory and environment, with
stdin from /dev/null and stdout and stderr written to the two files, and
answers ``{"wall_s": ..., "rss_kb": ..., "code": ..., "timed_out": ...}``.
It exits at the end of its input.
"""

import json
import os
import select
import signal
import sys
import time


def run(request: dict) -> dict:
    with (
        open(os.devnull, "rb") as null,
        open(request["stdout"], "wb") as out,
        open(request["stderr"], "wb") as err,
    ):
        actions = [
            (os.POSIX_SPAWN_DUP2, null.fileno(), 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        argv = request["argv"]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([pidfd], [], [], request["timeout"])[0]
            if timed_out:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "rss_kb": usage.ru_maxrss,
        "code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
