"""The four benchmark workloads, as seeded scenario campaigns.

Each workload is one or more ``ScenarioSpec`` cells run through the
public ``repro.scenarios.run_scenario`` front door.  Why each workload
exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.scenarios import ScenarioSpec, get_scenario

#: Spans every traced workload must fire.
COMMON_SPANS = (
    "trial",
    "engine.campaign",
    "deploy",
    "core.evaluation",
    "store.get",
    "store.put",
    "store.encode",
    "store.decode",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``trial_s`` is the nominal seconds one trial costs a run on a 2-core
    VM (for the pooled sweep: its share of the pooled campaign plus the
    inline rerun); it only sizes the per-cell trial count so a run
    measures about the requested number of seconds.  ``n_workers`` is
    the worker count of the untraced cold campaign, and ``rerun_trials``
    the leading trials per cell that the output check reruns inline.
    """

    name: str
    cells: Tuple[ScenarioSpec, ...]
    trial_s: float
    n_workers: int
    spans: Tuple[str, ...]
    rerun_trials: int = 5
    min_trials: int = 24

    def trials_per_cell(self, seconds: float) -> int:
        """Trials per cell so one untraced run lasts about *seconds*."""
        budget = seconds / (len(self.cells) * self.trial_s)
        return max(self.min_trials, int(round(budget)))


def _sweep_cells() -> Tuple[ScenarioSpec, ...]:
    # The 22 m radio range keeps every cell free of NaN trials: at the
    # registered 14 m range, or with 24 nodes, some draws leave nodes
    # without three anchors in reach and the trial reports NaN.
    base = get_scenario("uniform-sparse-multilateration").with_overrides(
        **{"ranging.max_range_m": 22.0}
    )
    return base.grid(
        {
            "deployment.n_nodes": [48, 64],
            "ranging.sigma_m": [0.1, 0.6],
            "anchors.fraction": [0.2, 0.4],
        }
    )


def resolve(name: str) -> Workload:
    """The named workload with its specs resolved."""
    if name == "distributed-lss":
        return Workload(
            name,
            (get_scenario("town-distributed-lss"),),
            trial_s=0.32,
            n_workers=1,
            spans=COMMON_SPANS
            + (
                "ranging.synthetic",
                "core.distributed.local_maps",
                "core.distributed.alignment",
                "engine.localmaps",
                "engine.batch.lss_padded",
                "core.mds",
                "core.transforms",
            ),
        )
    if name == "centralized-lss":
        return Workload(
            name,
            (get_scenario("town-lss"),),
            # Below its real 0.36 s per trial, for more trials per run:
            # trial throughput varies by draw, and at 28 trials it spread
            # 0.11 between seeds.
            trial_s=0.26,
            n_workers=1,
            spans=COMMON_SPANS + ("ranging.synthetic", "core.lss", "engine.batch.lss"),
        )
    if name == "acoustic-ranging":
        # Six anchors instead of the registered five: with five, about one
        # trial in 400 localizes no node and reports NaN (one run in eight
        # would fail); with six, 400 probe trials all localized 3 or more
        # of the 10 unknown nodes.
        acoustic = get_scenario("acoustic-grass-grid").with_overrides(**{"anchors.count": 6})
        return Workload(
            name,
            (acoustic,),
            trial_s=0.2,
            n_workers=1,
            spans=COMMON_SPANS
            + (
                "ranging.measure",
                "ranging.campaign",
                "ranging.calibrate",
                "ranging.filter",
                "core.multilateration",
                "engine.batch.gd",
            ),
        )
    if name == "multilateration-sweep":
        return Workload(
            name,
            _sweep_cells(),
            trial_s=0.028,
            n_workers=2,
            rerun_trials=40,
            spans=COMMON_SPANS
            + ("ranging.synthetic", "core.multilateration", "engine.batch.gd"),
        )
    raise KeyError(f"unknown workload {name!r}")
