"""Benchmarks the acoustic ranging kernel against its per-attempt
references.

``RangingService.measure`` is a block of one attempt through
``LinkBlock``: each chirp's draws are made in order, and the rest is
stacked over the chirps.  Here 300 refined ``measure`` calls (10 chirps
each, grass and urban links drawn once) are timed through the
production path and through the per-chirp simulator and convolve
detector of ``tests/_acoustic_oracle.py``.  ``RangingCampaign.run``
stacks whole blocks of attempts; whole campaigns on 16-node grass and
urban grids are timed against the frozen per-attempt campaign of the
same module.  The triangle and confidence filters read a set's columns;
on those campaigns' measurements they are timed against the per-pair
filters of ``tests/_consistency_oracle.py``.  Every pair is checked for
equal results first.  Run with ``pytest benchmarks/test_bench_ranging.py
-s`` to see the measured ratios.
"""

import numpy as np
import pytest

from repro.acoustics.environment import ENVIRONMENTS
from repro.acoustics.hardware import HardwarePopulation
from repro.core.measurements import MeasurementSet
from repro.deploy import paper_grid
from repro.ranging.campaign import run_campaign
from repro.ranging.consistency import triangle_filter
from repro.ranging.filtering import confidence_weighted_edges
from repro.ranging.service import RangingService

import _acoustic_oracle
import _consistency_oracle
from _timing import interleaved_best_of, quiet_machine_only

#: Calls timed per side: 150 per environment.
CALLS_PER_ENVIRONMENT = 150

#: Measured at 1.32-1.52x on a 2-core VM, where per-call timings swung
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
        rng = np.random.default_rng(0)
        return [
            _acoustic_oracle.measure(service, d, source_hw=s, receiver_hw=r, link=link, rng=rng)
            for service, d, s, r, link in jobs
        ]

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


#: Campaigns timed per side: one per environment, three rounds on a
#: 16-node grid (about 700 directed attempts each).
CAMPAIGN_ENVIRONMENTS = ("grass", "urban")

#: Measured at 1.7-2.2x on a 2-core VM against the per-chirp,
#: per-attempt campaign, where single timings swung by about 40% with
#: the host's load, so the floor sits well under it.
CAMPAIGN_SPEEDUP_FLOOR = 1.3


@pytest.fixture(scope="module")
def campaigns():
    """The production and reference campaign loops, and one result of
    each, computed once for the module."""
    positions = paper_grid(16)
    services = [
        RangingService(environment=ENVIRONMENTS[name]).calibrate(rng=1)
        for name in CAMPAIGN_ENVIRONMENTS
    ]

    def production():
        return [list(run_campaign(positions, service, rng=7)) for service in services]

    def reference():
        return [
            list(_acoustic_oracle.run_campaign(positions, service, rng=7))
            for service in services
        ]

    return production, reference, production(), reference()


def test_campaign_kernel_parity(campaigns):
    _, _, fast, slow = campaigns
    assert all(len(measurements) > 100 for measurements in fast)
    assert fast == slow


@quiet_machine_only
def test_campaign_kernel_faster_than_per_attempt(campaigns):
    production, reference, fast, slow = campaigns
    assert fast == slow
    kernel_t, per_attempt_t = interleaved_best_of([production, reference], repeats=3)
    ratio = per_attempt_t / kernel_t
    print(
        f"\n{len(CAMPAIGN_ENVIRONMENTS)} campaigns: per-attempt {per_attempt_t * 1000:.1f} ms, "
        f"block kernel {kernel_t * 1000:.1f} ms -> {ratio:.2f}x"
    )
    assert ratio >= CAMPAIGN_SPEEDUP_FLOOR, (
        f"block campaign kernel only {ratio:.2f}x faster than per-attempt "
        f"(need >= {CAMPAIGN_SPEEDUP_FLOOR}x)"
    )


#: Filter passes timed per call of each side: each filters both
#: campaigns' measurements, so one call is a few milliseconds.
FILTER_PASSES = 20

#: Measured at 6.6-8.5x on a 2-core VM against the per-pair filters, so
#: the floor sits well under it.
FILTER_SPEEDUP_FLOOR = 3.0


def _edge_bytes(edges):
    return edges.pairs.tobytes(), edges.distances.tobytes(), edges.weights.tobytes()


@pytest.fixture(scope="module")
def filter_calls(campaigns):
    """The columnar and per-pair filter loops over the campaigns'
    measurements, and one result of each."""
    _, _, measured, _ = campaigns
    sets = [MeasurementSet(measurements) for measurements in measured]

    def production():
        for _ in range(FILTER_PASSES):
            edges = [confidence_weighted_edges(triangle_filter(ms)) for ms in sets]
        return [_edge_bytes(e) for e in edges]

    def reference():
        for _ in range(FILTER_PASSES):
            edges = [
                _consistency_oracle.confidence_weighted_edges(
                    _consistency_oracle.triangle_filter(ms)
                )
                for ms in sets
            ]
        return [_edge_bytes(e) for e in edges]

    return production, reference, production(), reference()


def test_columnar_filters_parity(filter_calls):
    _, _, fast, slow = filter_calls
    assert all(len(pairs) > 0 for pairs, _, _ in fast)
    assert fast == slow


@quiet_machine_only
def test_columnar_filters_faster_than_per_pair(filter_calls):
    production, reference, fast, slow = filter_calls
    assert fast == slow
    columnar_t, per_pair_t = interleaved_best_of([production, reference], repeats=5)
    ratio = per_pair_t / columnar_t
    print(
        f"\n{FILTER_PASSES} filter passes: per-pair {per_pair_t * 1000:.1f} ms, "
        f"columnar {columnar_t * 1000:.1f} ms -> {ratio:.2f}x"
    )
    assert ratio >= FILTER_SPEEDUP_FLOOR, (
        f"columnar filters only {ratio:.2f}x faster than per-pair "
        f"(need >= {FILTER_SPEEDUP_FLOOR}x)"
    )
