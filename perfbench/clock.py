"""The benchmark's clock: wall-clock time less hypervisor steal time.

On a shared virtual machine the host takes the CPU away from the guest in
bursts; the kernel counts that time as steal in /proc/stat. A single
operation was seen to lose 3.2 s of a 14 s run this way, which made one run
read 30% slower than the next with no change in the work done. Subtracting
the steal accrued over an interval keeps every other delay the program
meets (its own CPU work, I/O, page faults) and drops only time in which no
guest code ran. Without /proc/stat (not Linux) this is plain wall-clock.

Both the parent and the child processes use it: ``perf_counter`` is
CLOCK_MONOTONIC on Linux, shared across processes, and steal is system-wide.
"""

from __future__ import annotations

import os
from time import perf_counter

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 0.0


def steal_s() -> float:
    """Seconds of steal time the kernel has counted on all CPUs since boot."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0


def now() -> float:
    """Monotonic seconds that do not advance while the host steals the CPU."""
    return perf_counter() - steal_s()
