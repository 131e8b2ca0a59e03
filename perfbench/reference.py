"""The host-speed reference: a fixed loop of Fraction and dict work.

On a shared 2-vCPU virtual machine the host's speed drifted by up to a
half over minutes (one symbolic pass took 1.7 s and 3.0 s ten minutes
apart), which no number of passes in a run averages out.  So the benchmark
times this loop next to what it measures, and scales every time by
REFERENCE_S over the loop's time: times read as seconds on a host that
runs the loop in REFERENCE_S.  The loop never touches the engine, so no
change to the engine moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.2
REFERENCE_ITERATIONS = 40_000


def reference_loop() -> float:
    """Seconds this host takes for the fixed loop right now."""
    start = time.perf_counter()
    acc = {}
    x = Fraction(1, 3)
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 7, i % 11)
        x = x * Fraction(i % 13 + 1, i % 5 + 2) + acc.get(key, 0)
        if x.numerator.bit_length() > 64:
            x = Fraction(1, 3)
        acc[key] = x
    return time.perf_counter() - start
