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

from . import acoustics, core, deploy, engine, network, ranging, scenarios, store
from .errors import (
    CalibrationError,
    GraphDisconnectedError,
    InsufficientDataError,
    ReproError,
    ValidationError,
)

# Convenience re-exports of the most-used entry points.
from .core import (
    EdgeList,
    LssConfig,
    LssResult,
    MeasurementSet,
    RangeMeasurement,
    distributed_localize,
    evaluate_localization,
    localize_network,
    lss_localize,
    multilaterate,
)
from .ranging import RangingService, gaussian_ranges, run_campaign
from .scenarios import ScenarioSpec, get_scenario, run_scenario
from .store import ResultStore

#: Participates in every result-store key (see
#: :func:`repro.store.default_code_version`): bumping it invalidates all
#: cached simulation results.
__version__ = "1.1.0"

__all__ = [
    "acoustics",
    "core",
    "deploy",
    "engine",
    "network",
    "ranging",
    "scenarios",
    "store",
    "ReproError",
    "ValidationError",
    "InsufficientDataError",
    "GraphDisconnectedError",
    "CalibrationError",
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
    "RangingService",
    "gaussian_ranges",
    "run_campaign",
    "ScenarioSpec",
    "get_scenario",
    "run_scenario",
    "ResultStore",
    "__version__",
]
