"""Benchmarks the stacked acoustic link simulator against its per-chirp
reference.

``AcousticLinkSimulator.simulate_counts`` keeps each chirp's draws but
stacks everything else (bursts, uniforms, signal and echo mixing, hit
counting) over the chirps, and the detector counts its windows with a
prefix sum.  Here 300 refined ``RangingService.measure`` calls (10
chirps each, grass and urban links drawn once) are timed through the
production path and through the per-chirp simulator and convolve
detector of ``tests/_acoustic_oracle.py``, after checking that both
return the same estimates.  Run with
``pytest benchmarks/test_bench_ranging.py -s`` to see the measured
ratio.
"""

from unittest import mock

import numpy as np
import pytest

from repro.acoustics.environment import ENVIRONMENTS
from repro.acoustics.hardware import HardwarePopulation
from repro.ranging import service as service_module
from repro.ranging.link import AcousticLinkSimulator
from repro.ranging.service import RangingService

import _acoustic_oracle
from _timing import interleaved_best_of, quiet_machine_only

#: Calls timed per side: 150 per environment.
CALLS_PER_ENVIRONMENT = 150

#: Measured at 1.52-1.65x on a 2-core VM, where per-call timings swung
#: by about 30% with the host's load, so the floor sits well under it.
SPEEDUP_FLOOR = 1.15


@pytest.fixture(scope="module")
def measure_calls():
    """The production and reference measurement loops, and one result
    of each, computed once for the module."""
    rng = np.random.default_rng(2005)
    population = HardwarePopulation()
    jobs = []
    for name in ("grass", "urban"):
        service = RangingService(environment=ENVIRONMENTS[name])
        for _ in range(CALLS_PER_ENVIRONMENT):
            jobs.append(
                (
                    service,
                    float(rng.uniform(1.0, 25.0)),
                    population.sample(rng),
                    population.sample(rng),
                    service.link_simulator.draw_link(rng),
                )
            )

    def production():
        rng = np.random.default_rng(0)
        return [
            service.measure(d, source_hw=s, receiver_hw=r, link=link, rng=rng)
            for service, d, s, r, link in jobs
        ]

    def reference():
        with mock.patch.object(
            AcousticLinkSimulator, "simulate_counts", _acoustic_oracle.simulate_counts
        ), mock.patch.object(service_module, "detect_signal", _acoustic_oracle.detect_signal):
            return production()

    return production, reference, production(), reference()


def test_stacked_chirps_parity(measure_calls):
    _, _, fast, slow = measure_calls
    assert sum(estimate is not None for estimate in fast) > len(fast) // 2
    assert fast == slow


@quiet_machine_only
def test_stacked_chirps_faster_than_per_chirp(measure_calls):
    production, reference, fast, slow = measure_calls
    assert fast == slow
    stacked_t, per_chirp_t = interleaved_best_of([production, reference], repeats=5)
    ratio = per_chirp_t / stacked_t
    print(
        f"\n{len(fast)} measure calls: per-chirp {per_chirp_t * 1000:.1f} ms, "
        f"stacked {stacked_t * 1000:.1f} ms -> {ratio:.2f}x"
    )
    assert ratio >= SPEEDUP_FLOOR, (
        f"stacked chirps only {ratio:.2f}x faster than per-chirp "
        f"(need >= {SPEEDUP_FLOOR}x)"
    )
