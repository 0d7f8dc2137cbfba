"""Machine-speed probe.

On a machine whose cores are shared with other tenants, identical work runs
faster or slower by 10-25% from one minute to the next.  A fixed
pure-Python loop, timed between operations, measures that drift; dividing a
batch's timings by the median probe time of the batch (relative to
``PROBE_REF_S``) gives seconds at the reference speed.  The probe runs none
of renormray's code, so a change to the package moves normalised timings as
it moves raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

PROBE_REF_S = 0.001  # about the probe's median time on the reference machine
PROBE_EVERY_S = 0.05  # seconds of measured work between two probes
PROBE_BLOCK = 5  # probes at each end of a batch and around each set-up


def probe() -> float:
    """Seconds taken by a fixed integer-and-dict loop."""
    t = perf_counter()
    acc, seen = 0, {}
    for i in range(6000):
        acc = (acc + i * i) % 1000003
        seen[i & 255] = acc
    return perf_counter() - t


def block() -> list[float]:
    return [probe() for _ in range(PROBE_BLOCK)]


def slowness(probes) -> float:
    """Median probe time relative to the reference machine (1 = reference speed)."""
    return statistics.median(probes) / PROBE_REF_S
