"""repro — Resilient Localization for Sensor Networks in Outdoor Environments.

A faithful, laptop-scale reproduction of Kwon, Mechitov, Sundresh, Kim &
Agha (ICDCS 2005): the long-distance acoustic TDoA ranging service
(Section 3) as a calibrated signal-level simulation, plus the full
localization suite (Section 4) — least-squares multilateration with
intersection consistency checking, centralized least-squares scaling
(LSS) with a minimum-spacing soft constraint, and the distributed LSS
pipeline (local maps, pairwise rigid transforms, alignment flood).

Quickstart::

    import numpy as np
    from repro import deploy, ranging, core

    positions = deploy.paper_grid(47)              # the 7x7 offset grid
    ranges = ranging.gaussian_ranges(positions, max_range_m=22.0,
                                     sigma_m=0.33, rng=7)
    result = core.lss_localize(
        ranges, len(positions),
        config=core.LssConfig(min_spacing_m=9.0), rng=7)
    report = core.evaluate_localization(result.positions, positions,
                                        align=True)
    print(f"average error: {report.average_error:.2f} m")

Subpackages
-----------
``repro.core``
    Localization algorithms, measurement model, geometry, evaluation.
``repro.ranging``
    The acoustic ranging service and its simulation substrate.
``repro.acoustics``
    Acoustic physics: environments, propagation, tone detectors.
``repro.network``
    Clocks, radio, nodes, discrete-event simulator.
``repro.deploy``
    Deployment and anchor-selection generators.
``repro.engine``
    Vectorized batch solvers and the seeded Monte-Carlo campaign
    runner (the scaling substrate; see its module docstring for the
    batching layout and the scalar/batched parity contract).
``repro.scenarios``
    Declarative workload layer: frozen scenario specs with canonical
    content hashing, a named registry, parameter-sweep expansion, and
    the store-backed campaign runner.
``repro.store``
    Content-addressed on-disk result cache (spec hash + code version ->
    compressed trial records), with atomic writes and hit/miss stats.
``repro.experiments``
    One driver per paper figure (used by benchmarks and examples).
"""

from itertools import chain

from ._lazy import lazy_surface
from .errors import (
    CalibrationError,
    GraphDisconnectedError,
    InsufficientDataError,
    ReproError,
    ValidationError,
)

# The subpackages and the convenience re-exports of the most-used entry
# points import on first use: ``import repro`` loads only the errors, so
# a process pays for the simulator only when it reaches for it.
_SUBPACKAGES = (
    "acoustics",
    "core",
    "deploy",
    "engine",
    "network",
    "ranging",
    "scenarios",
    "store",
)
_EXPORTS = {
    ".core": (
        "MeasurementSet",
        "RangeMeasurement",
        "EdgeList",
        "LssConfig",
        "LssResult",
        "lss_localize",
        "multilaterate",
        "localize_network",
        "distributed_localize",
        "evaluate_localization",
    ),
    ".ranging": ("RangingService", "gaussian_ranges", "run_campaign"),
    ".scenarios": ("ScenarioSpec", "get_scenario", "run_scenario"),
    ".store": ("ResultStore",),
}
__getattr__, __dir__ = lazy_surface(globals(), _SUBPACKAGES, _EXPORTS)

#: Participates in every result-store key (see
#: :func:`repro.store.default_code_version`): bumping it invalidates all
#: cached simulation results.
__version__ = "1.1.0"

__all__ = [
    *_SUBPACKAGES,
    "ReproError",
    "ValidationError",
    "InsufficientDataError",
    "GraphDisconnectedError",
    "CalibrationError",
    *chain.from_iterable(_EXPORTS.values()),
    "__version__",
]
