"""Run one ``csmverify`` command in-process with a speed probe beside it.

Usage (the bench runs every untraced step this way)::

    python3 bench/probe.py --samples OUT.txt -- verify --type B --rank 3 --suite all

The host this benchmark was defined on changes its speed by 20-40% within
a minute, and CPU time drifts with wall time, so a raw step time says as
much about the host as about the program. This wrapper measures the host's
speed at the same moments and on the same CPU as the program: every
``INTERVAL_S`` of the process's CPU time (``ITIMER_PROF``), a ``SIGPROF``
handler runs a fixed piece of pure-Python work and appends its wall time
to ``--samples``. The program itself is untouched and runs as
``csmverify.cli.run()`` would run it.

Pool workers forked under ``--jobs N`` re-arm the timer after the fork
(timers are not inherited) and append to the same file, so the probe
covers them too. The bench divides a step's wall time by the mean probe
time of that step; see ``run.py``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path

INTERVAL_S = 0.05   # CPU seconds between probes; the probe costs about 2% of that
PROBE_ROUNDS = 1500


def probe_work() -> int:
    """The fixed work one probe times: dict, tuple and integer operations,
    the interpreter paths the program spends its time in."""
    table: dict = {}
    acc = 0
    for i in range(PROBE_ROUNDS):
        key = (i % 13, i % 7, i & 3)
        value = table.get(key, 0) + i * 40503 % 65521
        table[key] = value
        acc ^= value
    return acc + len(sorted(table))


def arm(fd: int) -> None:
    def on_tick(signum, frame):
        t0 = time.perf_counter()
        probe_work()
        os.write(fd, b"%.9f\n" % (time.perf_counter() - t0))

    signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def main() -> None:
    p = argparse.ArgumentParser(description="run csmverify with a speed probe")
    p.add_argument("--samples", type=Path, required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    fd = os.open(args.samples, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.register_at_fork(after_in_child=lambda: arm(fd))
    arm(fd)
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    sys.argv = ["csmverify", *cli_args]
    from csmverify.cli import run
    try:
        run()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)


if __name__ == "__main__":
    main()
