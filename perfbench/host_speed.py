"""Host-speed adjustment: a fixed probe kernel timed around each measured lap.

On a shared VM the host's speed drifts, by up to 1.7x over seconds to
minutes, and the guest cannot see it: CPU time tracks wall time and no
steal time is reported.  A bare wall time then measures the neighbours
as much as the program.  So the benchmark times this module's fixed
kernel at both ends of every short lap it measures (one trial, one
cell's pooled campaign, one block of recalls, one set-up interpreter)
and scales the lap by ``REFERENCE_PROBE_S`` over the mean of the two
probes: seconds as the lap would take at the host speed the reference
figures were recorded at.

The kernel is interpreter work -- tuple, list and dict churn, a keyed
sort, small file reads, JSON, hashing and gzip -- which in probes
tracked the host's drift better than small numpy kernels or a
cache-missing gather: over windows of identical work, the spread of
adjusted times was 3-7% where raw wall time spread 13-47%.  It is
benchmark code, so no change to the program under test moves it.
Standard library only.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import time
from pathlib import Path

#: Probe seconds on the 2-vCPU VM the baseline was recorded on, in a
#: fast stretch.  Only a scale: adjusted figures read as seconds there.
REFERENCE_PROBE_S = 0.0032
#: Back-to-back kernel runs per probe; the probe is the fastest.
PROBE_REPEATS = 3

_SELF = Path(__file__)
_PAYLOAD = gzip.compress(
    json.dumps(
        {"records": [{"index": i, "metrics": {"error_m": i * 0.37, "frac": 0.5}} for i in range(40)]}
    ).encode()
)


def _kernel() -> int:
    rows = [(j, j * 0.5, str(j & 255)) for j in range(6000)]
    groups: dict = {}
    for _, value, key in rows:
        groups.setdefault(key, []).append(value)
    rows.sort(key=lambda row: -row[1])
    size = 0
    for _ in range(12):
        size += len(_SELF.read_bytes()) + os.stat(_SELF).st_size
        key = json.dumps({"seed": size, "values": [1.0, 2.0]}, sort_keys=True)
        size += len(hashlib.sha256(key.encode()).hexdigest())
        size += len(json.loads(gzip.decompress(_PAYLOAD))["records"])
    return size + len(groups)


def probe() -> float:
    """Seconds of the fixed kernel: the fastest of a few back-to-back runs."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a lap's wall time into reference-speed time."""
    return 2.0 * REFERENCE_PROBE_S / (before + after)


class AdjustedClock:
    """Cuts a measured stretch into laps, each scaled by the probes at its ends.

    Probing happens between laps, never inside one.  ``raw_s`` and
    ``adjusted_s`` total the laps closed so far.
    """

    def __init__(self) -> None:
        self._probe = probe()
        self._mark = time.perf_counter()
        self.raw_s = 0.0
        self.adjusted_s = 0.0

    def lap(self) -> float:
        """Close the lap since the previous one; returns its scale factor."""
        raw = time.perf_counter() - self._mark
        after = probe()
        factor = scale(self._probe, after)
        self._probe = after
        self.raw_s += raw
        self.adjusted_s += raw * factor
        self._mark = time.perf_counter()
        return factor
