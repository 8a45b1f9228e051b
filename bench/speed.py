"""The speed of the machine, from a fixed piece of interpreter work.

The machine may be shared: the same command on the same seed has run at
half the speed a few minutes later, and the speed of one core flips within
seconds. So a fixed piece of interpreter work (probe) is timed next to the
measured work, and a time is divided by probe time / NOMINAL_S to give it at
one fixed machine speed. NOMINAL_S is about the probe's median on the
2-core machine the benchmark was written on.
"""

from __future__ import annotations

import os
import statistics
import time

NOMINAL_S = 0.005
# Probe time spent between commands, as a share of the command time.
PROBE_SHARE = 0.05


def probe() -> float:
    """Wall seconds of a fixed mix of the interpreter work the CLI does:
    complex arithmetic, float formatting, small tuples and dict stores."""
    t0 = time.perf_counter()
    z, acc = complex(0.3, 0.7), 0j
    cells, table = [], {}
    for i in range(8000):
        acc = acc * z + 1.0 / (1 + i)
        if i % 8 == 0:
            cells.append(f"{acc.real:.17g},{acc.imag:.17g}")
        table[i & 63] = (i, acc)
    return time.perf_counter() - t0


def probe_every_core() -> float:
    """Mean probe time over the cores this process may run on, pinned to each
    in turn, for work that is spread over every core."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def factor(runs: int = 7) -> float:
    """Median probe time of `runs` probes, over NOMINAL_S."""
    return statistics.median(probe() for _ in range(runs)) / NOMINAL_S


class Calibration:
    """Probe times in groups between commands, and the speed factor of each
    command from the groups just before and just after it."""

    def __init__(self, every_core: bool) -> None:
        self.probe = probe_every_core if every_core else probe
        self.groups = [[self.probe() for _ in range(5)]]
        self.group_before: list[int] = []
        self.debt = 0.0

    def after_command(self, elapsed: float) -> None:
        self.group_before.append(len(self.groups) - 1)
        self.debt += PROBE_SHARE * elapsed
        if self.debt > 0.0:
            group = []
            while self.debt > 0.0:
                t0 = time.perf_counter()
                group.append(self.probe())
                self.debt -= time.perf_counter() - t0
            self.groups.append(group)

    def factors(self) -> list[float]:
        groups = self.groups + [[]]  # no group after the last commands
        return [statistics.median(groups[g] + groups[g + 1]) / NOMINAL_S
                for g in self.group_before]
