"""Host speed probe: a fixed unit of pure-Python work timed around and during each measurement.

A shared host can change speed by a factor of two within seconds, and CPU
time moves with wall time, so a raw time measures the host as much as tdlab.
The benchmark therefore times this probe on the CPU that runs the measured
work: right before it, right after it, and (for processes that run.py
starts) every SLICE_S seconds while the process is stopped. A measurement is
scaled by REF_S over the mean of those probes, so that it is reported in
seconds of a host on which the probe takes REF_S. The scale cancels the
host's speed, not tdlab's: the probe runs none of tdlab's code, so a change
to tdlab cannot move it.

The probe is checks.small_td, the plain memoized tree-depth recursion, on a
fixed 12-vertex graph: bitmask integers, dict lookups and recursion, the
same kind of work as tdlab's solver. REF_S is its median time on a 2-vCPU
x86-64 host with Python 3.11.
"""

from __future__ import annotations

import time

from checks import graph6_adjacency, small_td

REF_S = 0.02
SLICE_S = 0.25  # a running process is stopped for a probe this often
PROBE_G6 = "Krw@cGHcAOsF"  # a G(12, 0.35) draw
PROBE_TD = 6
_ADJ = graph6_adjacency(PROBE_G6)
_FULL = (1 << len(_ADJ)) - 1


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    value = small_td(_ADJ, _FULL, {})
    took = time.perf_counter() - start
    if value != PROBE_TD:
        raise RuntimeError(f"speed probe computed td {value}, expected {PROBE_TD}")
    return took


class Gauge:
    """Probes the host speed and gives each measurement its scale to reference seconds."""

    def __init__(self) -> None:
        self.probes = [probe()]  # since the start of the current measurement

    def sample(self) -> None:
        """Probe during the current measurement, while the measured work is stopped."""
        self.probes.append(probe())

    def scale(self) -> float:
        """Scale for the measurement that just ended; the closing probe opens the next."""
        self.probes.append(probe())
        scale = REF_S * len(self.probes) / sum(self.probes)
        self.probes = self.probes[-1:]
        return scale
