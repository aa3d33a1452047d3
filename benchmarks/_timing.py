"""Wall-clock helpers shared by the speedup and overhead benchmarks."""

import os
import time

import pytest

#: Wall-clock ratio assertions need a machine that isn't fighting other
#: tenants; on shared CI runners the measured ratio is noise-bound.
quiet_machine_only = pytest.mark.skipif(
    bool(os.environ.get("CI")),
    reason="wall-clock ratio assertions are unreliable on shared CI runners",
)


def best_of(fn, repeats=3):
    """The fastest of *repeats* timed calls of *fn*, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
