"""Shared fixtures for the experiment drivers.

The grassy-field campaign (Sections 3.6 and 4.2-4.3) feeds a dozen
different figures; it is simulated once per (n_nodes, seed) and cached
for the lifetime of the process, exactly as the paper's one field
campaign produced the measurement set reused across its evaluation.
The raw measurement set is additionally memoized in the content-
addressed result store (:mod:`repro.store`) keyed on the campaign
parameters and code version, so repeated processes (figure
regeneration, examples, CLI runs) skip the signal-level simulation
entirely; the cheap filtering stages are recomputed from the stored raw
set, keeping one serialization path while preserving bit-identical
edges.  The cache key sees only ``repro.__version__`` — when iterating
on simulation code without bumping it, set ``REPRO_STORE_DIR=off`` (the
test suites isolate themselves via ``tests/conftest.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..acoustics import get_environment
from ..deploy import paper_grid
from ..ranging import RangingService, run_campaign, triangle_filter
from ..ranging.filtering import confidence_weighted_edges
from ..store import (
    measurement_set_from_payload,
    measurement_set_to_payload,
    open_default_store,
    recall_or_run,
)

__all__ = [
    "DEFAULT_SEED",
    "grass_service",
    "grass_campaign_edges",
    "grid_positions",
    "root_near",
]

#: Seed used by all default experiment runs (any seed reproduces the
#: qualitative shapes; this one is fixed so tables are deterministic).
DEFAULT_SEED = 2005


@lru_cache(maxsize=4)
def grass_service(seed: int = DEFAULT_SEED) -> RangingService:
    """The calibrated refined ranging service for the grass site."""
    env = get_environment("grass")
    return RangingService(environment=env).calibrate(rng=seed)


@lru_cache(maxsize=4)
def grid_positions(n_nodes: int = 47) -> Tuple[Tuple[float, float], ...]:
    """The paper's offset-grid deployment, hashable for caching."""
    return tuple(map(tuple, paper_grid(n_nodes)))


def _simulate_grass_campaign(n_nodes: int, seed: int, rounds: int):
    positions = np.asarray(grid_positions(n_nodes))
    service = grass_service(seed)
    return run_campaign(positions, service, rounds=rounds, rng=seed + 1)


@lru_cache(maxsize=8)
def _campaign_cached(n_nodes: int, seed: int, rounds: int):
    description = {
        "workload": "grass-campaign",
        "environment": "grass",
        "n_nodes": n_nodes,
        "seed": seed,
        "rounds": rounds,
    }
    raw = recall_or_run(
        open_default_store(),
        description,
        run=lambda: _simulate_grass_campaign(n_nodes, seed, rounds),
        decode=measurement_set_from_payload,
        encode=measurement_set_to_payload,
    )
    filtered = triangle_filter(raw)
    edges = confidence_weighted_edges(filtered)
    return raw, edges


def grass_campaign_edges(
    n_nodes: int = 47, seed: int = DEFAULT_SEED, rounds: int = 3
):
    """(raw MeasurementSet, confidence-weighted EdgeList) for the field
    campaign on the grass grid.  Cached per arguments."""
    return _campaign_cached(n_nodes, seed, rounds)


def root_near(positions, x: float, y: float) -> int:
    """Node index closest to (x, y) — e.g. the paper's (27, 36) root."""
    pts = np.asarray(positions, dtype=float)
    return int(np.argmin(np.hypot(pts[:, 0] - x, pts[:, 1] - y)))
