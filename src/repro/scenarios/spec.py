"""Declarative scenario specifications with canonical, stable hashing.

A *scenario* is a complete, self-contained description of one Monte-Carlo
workload: how nodes are deployed, which become anchors, how ranges are
measured (and with what noise), and which localization algorithm runs on
the result.  Scenarios are frozen dataclasses, so they are hashable,
picklable, and comparable; campaigns, sweeps, and the content-addressed
result store (:mod:`repro.store`) all key off them.

Spec hashing
------------
:meth:`ScenarioSpec.spec_hash` is the content address of a scenario: the
SHA-256 of the spec's *canonical JSON* — the nested field dict with keys
sorted, floats rendered by Python's shortest round-trip ``repr`` (the
``json`` module's native float format), and the cosmetic ``scenario_id``
excluded.  Two specs that describe the same physics hash identically even
if they were registered under different names; changing any physical
parameter (a noise sigma, an anchor fraction, a solver knob, the trial
count) changes the hash.  The hash is stable across processes and
platforms because it never touches Python's randomized ``hash()``.

Sweeps
------
:meth:`ScenarioSpec.grid` expands one base spec into the cross product of
dotted-path parameter axes::

    spec.grid({"deployment.n_nodes": [25, 49],
               "ranging.sigma_m": [0.1, 0.33]})

yields four concrete specs whose ids record their coordinates, ready to
feed the campaign scheduler one by one.

Paper mapping
-------------
The spec fields parameterize the paper's evaluation directly:
:class:`DeploymentSpec` covers its geometries ("paper-grid" is the
offset grass grid of Figures 13-19, "town"/"uniform" the randomized
fields of Figures 20-22, "parking-lot" the small-scale Figure 12
layout); :class:`RangingSpec` selects between the full signal-level
acoustic campaign of Section 3 and the synthetic Gaussian extension
model; and :class:`SolverSpec` names the algorithms of Section 4 —
"multilateration" (4.1), "lss" (4.2), "distributed-lss" (4.3,
Figures 24/25), and the "dv-hop" baseline of Section 2.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from .._canonical import canonical_json, sha256_hex
from .._validation import check_non_negative, check_positive
from ..errors import ValidationError

__all__ = [
    "DeploymentSpec",
    "AnchorSpec",
    "RangingSpec",
    "SolverSpec",
    "ScenarioSpec",
    "HASH_EXCLUDED_FIELDS",
    "expand_grid",
]

#: Every field :meth:`ScenarioSpec.canonical` strips before hashing, as
#: dotted paths into the nested payload.  This is a cross-module
#: contract: the content-addressed store, shard keys, and every golden
#: pin assume exactly these fields are cosmetic.  The lint rule RPL006
#: cross-checks this registry against the pops in ``canonical()`` so
#: neither side can drift alone.
HASH_EXCLUDED_FIELDS = ("scenario_id",)

#: Deployment generators a :class:`DeploymentSpec` may name.
DEPLOYMENT_KINDS = ("uniform", "grid", "paper-grid", "town", "parking-lot")

#: The fixed (width_m, height_m, min_separation_m) of a "parking-lot"
#: deployment: the defaults of :func:`repro.deploy.parking_lot_layout`,
#: which ignores the spec's own field sizes.
PARKING_LOT_FIELD = (25.0, 25.0, 4.0)

#: The fixed (blocks_x, blocks_y, block_size_m, street_jitter_m) of a
#: "town" deployment: the defaults of :func:`repro.deploy.town_layout`,
#: which takes only the spec's ``n_nodes`` and ``min_separation_m``.
TOWN_STREETS = (3, 3, 24.0, 4.0)

#: Anchor selection strategies (see :mod:`repro.deploy.anchors`).
ANCHOR_STRATEGIES = ("random", "spread", "boundary", "none")

#: Range measurement models: direct Gaussian synthetic ranges, or the
#: full signal-level acoustic ranging campaign of Section 3.
RANGING_MODELS = ("gaussian", "acoustic")

#: Localization algorithms a :class:`SolverSpec` may name.
ALGORITHMS = ("multilateration", "lss", "distributed-lss", "dv-hop")

#: Algorithms that run without anchors (relative-coordinate output).
ANCHOR_FREE_ALGORITHMS = ("lss", "distributed-lss")


@dataclass(frozen=True)
class DeploymentSpec:
    """Where the nodes are.

    ``kind`` selects the generator: "uniform" rejection-samples a
    ``width_m x height_m`` field with ``min_separation_m`` spacing,
    "grid" is a plain square grid (``n_nodes`` must be a perfect
    square), "paper-grid" is the paper's 7x7 offset grid minus failed
    nodes, "town" places nodes along the streets of a block grid, and
    "parking-lot" is the small-scale 25x25 m experiment's layout.

    Construction rejects what no draw can place: a "uniform" field needs
    a finite positive size and a finite ``min_separation_m >= 0``, with
    ``n_nodes`` within the packing bound of :func:`_packing_bound`; a
    "town" needs the same finite ``min_separation_m >= 0``, with
    ``n_nodes`` within the street-band bound of :func:`_street_bound`
    for its fixed :data:`TOWN_STREETS` (at most 262 nodes at the
    registered 6 m); a "grid" needs a finite positive ``spacing_m``; a
    "parking-lot" needs ``n_nodes`` within the packing bound for its
    fixed field, :data:`PARKING_LOT_FIELD` (at most 58 nodes).
    """

    kind: str = "uniform"
    n_nodes: int = 36
    width_m: float = 60.0
    height_m: float = 60.0
    min_separation_m: float = 4.0
    spacing_m: float = 10.0

    def __post_init__(self):
        if self.kind not in DEPLOYMENT_KINDS:
            raise ValidationError(
                f"unknown deployment kind {self.kind!r}; known: {DEPLOYMENT_KINDS}"
            )
        if self.n_nodes < 1:
            raise ValidationError("n_nodes must be >= 1")
        if self.kind == "grid":
            side = int(round(self.n_nodes ** 0.5))
            if side * side != self.n_nodes:
                raise ValidationError(
                    f"grid deployments need a square n_nodes; got {self.n_nodes}"
                )
        if self.kind == "grid":
            check_positive(self.spacing_m, "spacing_m")
        if self.kind == "paper-grid" and self.n_nodes > 49:
            raise ValidationError("paper-grid supports at most 49 nodes")
        if self.kind in ("uniform", "town"):
            check_non_negative(self.min_separation_m, "min_separation_m")
        if self.kind == "town" and self.min_separation_m > 0:
            bound = _street_bound(*TOWN_STREETS, self.min_separation_m)
            if self.n_nodes > bound:
                raise ValidationError(
                    f"{self.n_nodes} nodes cannot be {self.min_separation_m} m "
                    f"apart along the town's streets (at most {int(bound)} fit)"
                )
        if self.kind == "uniform":
            check_positive(self.width_m, "width_m")
            check_positive(self.height_m, "height_m")
            if self.min_separation_m > 0:
                self._check_packing(self.width_m, self.height_m, self.min_separation_m)
        if self.kind == "parking-lot":
            self._check_packing(*PARKING_LOT_FIELD)

    def _check_packing(self, width_m: float, height_m: float, separation_m: float) -> None:
        bound = _packing_bound(width_m, height_m, separation_m)
        if self.n_nodes > bound:
            raise ValidationError(
                f"{self.n_nodes} nodes cannot be {separation_m} m "
                f"apart in a {width_m} x {height_m} m field "
                f"(at most {int(bound)} fit)"
            )


def _packing_bound(width_m: float, height_m: float, separation_m: float) -> float:
    """Most points at least *separation_m* apart in a rectangle.

    Groemer's bound for a convex domain of area A and perimeter P at unit
    separation is ``2A / sqrt(3) + P / 2 + 1`` (H. Groemer, Math. Z. 73,
    1960); scaled to *separation_m*.  It is proven, so a spec above it is
    infeasible, never just unlucky.  The relative slack keeps rounding in
    the sum from rejecting a count exactly at the bound.
    """
    s = separation_m
    bound = 2.0 * width_m * height_m / (math.sqrt(3.0) * s * s) + (width_m + height_m) / s + 1.0
    return bound * (1.0 + 1e-12)


def _street_bound(
    blocks_x: int, blocks_y: int, block_size_m: float, street_jitter_m: float,
    separation_m: float,
) -> float:
    """Most points at least *separation_m* apart along a town's streets.

    ``town_layout`` places every node on one of ``blocks_y + 1``
    horizontal and ``blocks_x + 1`` vertical streets, each a full side
    of the block grid long and moved off its centerline by at most
    *street_jitter_m*: inside one of those closed rectangles.  Each
    rectangle is convex, so :func:`_packing_bound` holds for the points
    inside it, and the sum over the rectangles bounds the points in
    their union (a point at a crossing counts once, in any rectangle
    that holds it).  The rectangles overlap at the crossings, so the
    bound is not tight.
    """
    width, height = blocks_x * block_size_m, blocks_y * block_size_m
    band = 2.0 * street_jitter_m
    return (blocks_y + 1) * _packing_bound(width, band, separation_m) + (
        blocks_x + 1
    ) * _packing_bound(band, height, separation_m)


@dataclass(frozen=True)
class AnchorSpec:
    """Which nodes know their position a priori.

    Exactly one of ``fraction`` (of ``n_nodes``, rounded) or ``count``
    must be given unless ``strategy`` is "none" (anchor-free, e.g. LSS).
    """

    strategy: str = "random"
    fraction: Optional[float] = None
    count: Optional[int] = None

    def __post_init__(self):
        if self.strategy not in ANCHOR_STRATEGIES:
            raise ValidationError(
                f"unknown anchor strategy {self.strategy!r}; known: {ANCHOR_STRATEGIES}"
            )
        if self.strategy == "none":
            if self.fraction is not None or self.count is not None:
                raise ValidationError(
                    "anchor-free scenarios must leave fraction and count unset"
                )
            return
        if (self.fraction is None) == (self.count is None):
            raise ValidationError("set exactly one of fraction or count")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValidationError("anchor fraction must be in (0, 1]")
        if self.count is not None and self.count < 1:
            raise ValidationError("anchor count must be >= 1")

    def n_anchors(self, n_nodes: int) -> int:
        """Concrete anchor count for a deployment of *n_nodes*."""
        if self.strategy == "none":
            return 0
        if self.count is not None:
            return min(int(self.count), n_nodes)
        return max(1, min(n_nodes, int(round(self.fraction * n_nodes))))


@dataclass(frozen=True)
class RangingSpec:
    """How inter-node distances are measured.

    "gaussian" draws ``N(0, sigma_m)`` errors on every pair within
    ``max_range_m`` — the paper's synthetic-extension model.  "acoustic"
    runs the full signal-level ranging campaign (calibrated service,
    per-link hardware/echo draws, ``rounds`` chirp rounds, triangle
    filtering) in the named acoustic ``environment``.
    """

    model: str = "gaussian"
    max_range_m: float = 22.0
    sigma_m: float = 0.33
    environment: str = "grass"
    rounds: int = 3

    def __post_init__(self):
        if self.model not in RANGING_MODELS:
            raise ValidationError(
                f"unknown ranging model {self.model!r}; known: {RANGING_MODELS}"
            )
        check_positive(self.max_range_m, "max_range_m")
        check_non_negative(self.sigma_m, "sigma_m")
        if self.rounds < 1:
            raise ValidationError("rounds must be >= 1")


@dataclass(frozen=True)
class SolverSpec:
    """Which localization algorithm runs, and how.

    Each algorithm has one production solver, so the spec names the
    algorithm and its LSS knobs and nothing selects between code paths.
    """

    algorithm: str = "multilateration"
    min_spacing_m: Optional[float] = None
    constraint_weight: float = 10.0
    restarts: int = 4
    max_epochs: int = 800

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(
                f"unknown algorithm {self.algorithm!r}; known: {ALGORITHMS}"
            )
        # The rules LssConfig applies at trial time, checked here so a
        # campaign cannot start on a spec whose every trial would fail.
        if self.min_spacing_m is not None:
            check_positive(self.min_spacing_m, "min_spacing_m")
        check_non_negative(self.constraint_weight, "constraint_weight")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")


#: Instance attribute holding :meth:`ScenarioSpec.canonical`'s memo.
#: It is not a dataclass field, so equality, ``repr`` and ``asdict``
#: never see it.
_CANONICAL_MEMO = "_canonical_memo"


def _fresh(form: Dict[str, Any]) -> Dict[str, Any]:
    """Copy of a canonical form's nested dicts (the field values, all
    scalars, are shared)."""
    return {
        key: _fresh(item) if isinstance(item, dict) else item
        for key, item in form.items()
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete Monte-Carlo workload description.

    ``scenario_id`` is cosmetic (registry name, sweep coordinates) and
    excluded from :meth:`spec_hash`; everything else is physics and
    participates in the content address.
    """

    scenario_id: str
    deployment: DeploymentSpec = field(default_factory=DeploymentSpec)
    anchors: AnchorSpec = field(default_factory=lambda: AnchorSpec(fraction=0.25))
    ranging: RangingSpec = field(default_factory=RangingSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    n_trials: int = 32
    target_metric: str = "mean_error_m"

    def __post_init__(self):
        if not self.scenario_id:
            raise ValidationError("scenario_id must be non-empty")
        if self.n_trials < 1:
            raise ValidationError("n_trials must be >= 1")
        anchor_free = self.solver.algorithm in ANCHOR_FREE_ALGORITHMS
        if anchor_free and self.anchors.strategy != "none":
            raise ValidationError(
                f"{self.solver.algorithm} scenarios are anchor-free; "
                "use strategy='none'"
            )
        if not anchor_free and self.anchors.strategy == "none":
            raise ValidationError(
                f"{self.solver.algorithm} scenarios need anchors; got strategy='none'"
            )

    # ------------------------------------------------------------------
    # Canonical form and hashing
    # ------------------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """Nested plain-dict form with the cosmetic id stripped.

        The form is built once per instance (the spec is frozen, so it
        cannot go stale); every call returns a fresh copy the caller may
        mutate.
        """
        payload = self.__dict__.get(_CANONICAL_MEMO)
        if payload is None:
            payload = dataclasses.asdict(self)
            payload.pop("scenario_id")
            object.__setattr__(self, _CANONICAL_MEMO, payload)
        return _fresh(payload)

    def canonical_json(self) -> str:
        """Deterministic JSON rendering of :meth:`canonical`."""
        return canonical_json(self.canonical())

    def spec_hash(self) -> str:
        """SHA-256 hex digest of the canonical JSON (the content address)."""
        return sha256_hex(self.canonical_json())

    def __getstate__(self) -> Dict[str, Any]:
        # The memo is derived state: pickles carry the fields only, as
        # they did before it existed.
        state = dict(self.__dict__)
        state.pop(_CANONICAL_MEMO, None)
        return state

    # ------------------------------------------------------------------
    # Derived / override helpers
    # ------------------------------------------------------------------

    def with_overrides(self, **dotted: Any) -> "ScenarioSpec":
        """Copy with dotted-path overrides, e.g.
        ``spec.with_overrides(**{"ranging.sigma_m": 0.1, "n_trials": 8})``."""
        out = self
        for path, value in dotted.items():
            out = _replace_path(out, path, value)
        return out

    def grid(self, axes: Mapping[str, Sequence[Any]]) -> Tuple["ScenarioSpec", ...]:
        """Expand into the cross product of dotted-path parameter *axes*.

        Axis order follows the mapping's insertion order; each produced
        spec's id is the base id plus its axis coordinates, e.g.
        ``"base/deployment.n_nodes=25,ranging.sigma_m=0.1"``.
        """
        return expand_grid(self, axes)


def expand_grid(
    base: ScenarioSpec, axes: Mapping[str, Sequence[Any]]
) -> Tuple[ScenarioSpec, ...]:
    """Cross-product sweep expansion (see :meth:`ScenarioSpec.grid`)."""
    if not axes:
        return (base,)
    names = list(axes)
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)):
            raise ValidationError(f"axis {name!r} must be a list/tuple of values")
        if len(values) == 0:
            raise ValidationError(f"axis {name!r} is empty")
    specs = []
    for combo in itertools.product(*(axes[name] for name in names)):
        spec = base
        for name, value in zip(names, combo):
            spec = _replace_path(spec, name, value)
        coords = ",".join(f"{n}={_coord_str(v)}" for n, v in zip(names, combo))
        spec = dataclasses.replace(spec, scenario_id=f"{base.scenario_id}/{coords}")
        specs.append(spec)
    return tuple(specs)


def _coord_str(value: Any) -> str:
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def _replace_path(obj, path: str, value):
    """``dataclasses.replace`` through a dotted field path."""
    head, _, rest = path.partition(".")
    if not hasattr(obj, head):
        raise ValidationError(
            f"unknown spec field {head!r} on {type(obj).__name__}"
        )
    if rest:
        value = _replace_path(getattr(obj, head), rest, value)
    try:
        return dataclasses.replace(obj, **{head: value})
    except TypeError as exc:  # pragma: no cover - defensive
        raise ValidationError(str(exc)) from None
