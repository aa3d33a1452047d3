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


def interleaved_best_of(fns, repeats=5):
    """The fastest timed call of each of *fns*, taking them in turn.

    Each of *repeats* rounds times every function once, in order.  A
    slow stretch of the host (another process on the same cores) then
    lands on both sides of a ratio, where timing all repeats of one
    side before the other can put it on one side only.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for k, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - start)
    return best
