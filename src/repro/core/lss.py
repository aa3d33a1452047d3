"""Centralized least-squares-scaling (LSS) localization with soft
constraints (Section 4.2) — the paper's primary contribution.

LSS seeks a planar configuration minimizing the weighted stress::

    E_w = sum_{d_ij in D} w_ij * ( ||p_i - p_j|| - d_ij )^2

over the *available* measurements only (unlike classical MDS, no full
distance matrix is needed).  Deployments with a known minimum node
spacing ``d_min`` add the paper's *soft constraint*: every pair
*without* a measurement is penalized while its current estimate
violates the spacing::

    E = E_w + sum_{d_ij not in D} w_D * ( min(||p_i - p_j||, d_min) - d_min )^2

The penalty set changes dynamically as the minimization progresses —
"this can be visualized as straightening a plane which is incorrectly
folded".

Minimization is gradient descent (Equation 1) with adaptive step size
and heavy-ball momentum (a drop-in accelerant for the paper's plain
update rule — same fixed points, far fewer epochs on these
ill-conditioned stress surfaces); to escape local minima, each round
restarts from the best configuration so far perturbed by Gaussian
noise, exactly the paper's procedure.  The per-epoch error trace is
recorded to reproduce Figure 23.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .._validation import (
    as_positions,
    check_node_positions,
    check_non_negative,
    check_positive,
    ensure_rng,
)
from ..errors import InsufficientDataError, ValidationError
from .measurements import EdgeList, as_graph_edges

__all__ = [
    "LssConfig",
    "LssResult",
    "lss_error",
    "lss_gradient",
    "lss_localize",
    "lss_localize_robust",
]


@dataclass(frozen=True)
class LssConfig:
    """Hyper-parameters of the LSS minimization.

    Attributes
    ----------
    min_spacing_m : float or None
        ``d_min``, the deployment's minimum node separation.  ``None``
        disables the soft constraint (the paper's ablation: Figures 19
        and 22).
    constraint_weight : float
        ``w_D``; the paper's experiments used 10 (with ``w_ij = 1``).
    max_epochs : int
        Gradient-descent epochs per restart round.
    restarts : int
        Perturbation restart rounds ("the gradient descent starts each
        round of minimization with seed positions obtained by perturbing
        the best results so far").
    perturbation_m : float
        Std of the Gaussian perturbation applied between rounds.
    step_size : float
        Initial gradient step ``alpha``; adapted multiplicatively
        (x1.05 on improvement, /2 on overshoot).
    tolerance : float
        Stop a round early when the error improves by less than this
        (relatively) over a patience window.
    init_span_m : float or None
        Random initial positions are drawn uniformly in a square of
        this side; ``None`` derives it from the measured distances.

    Gradient descent is the only solver: every round runs through the
    engine's batched kernel (:func:`repro.engine.batch.batch_lss_descend`
    with a batch of one).  A scalar descent and a scipy L-BFGS-B run
    over :func:`lss_error`/:func:`lss_gradient` survive only as oracles
    in the test suite (``tests/_oracles.py``, ``tests/test_lss.py``).
    """

    min_spacing_m: Optional[float] = None
    constraint_weight: float = 10.0
    max_epochs: int = 2000
    restarts: int = 8
    perturbation_m: float = 3.0
    step_size: float = 0.02
    tolerance: float = 1e-7
    init_span_m: Optional[float] = None

    def __post_init__(self):
        if self.min_spacing_m is not None:
            check_positive(self.min_spacing_m, "min_spacing_m")
        check_non_negative(self.constraint_weight, "constraint_weight")
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        check_non_negative(self.perturbation_m, "perturbation_m")
        check_positive(self.step_size, "step_size")
        check_non_negative(self.tolerance, "tolerance")
        if self.init_span_m is not None:
            check_positive(self.init_span_m, "init_span_m")


@dataclass
class LssResult:
    """Outcome of one LSS localization run.

    Attributes
    ----------
    positions : ndarray of shape (n, 2)
        The best configuration found (relative coordinates; align to a
        reference frame for evaluation or deployment use).
    error : float
        Final value of the full objective ``E`` (including constraint
        terms).
    stress : float
        Final value of the measurement-only term ``E_w``.
    error_trace : ndarray
        Objective value after every gradient epoch, across all restart
        rounds (Figure 23's curves).
    round_boundaries : list of int
        Indices into *error_trace* where each restart round began.
    epochs_run : int
        Total gradient epochs across rounds.
    converged : bool
        Whether the final round hit the improvement tolerance before
        exhausting its epochs.
    """

    positions: np.ndarray
    error: float
    stress: float
    error_trace: np.ndarray = field(repr=False)
    round_boundaries: List[int] = field(default_factory=list)
    epochs_run: int = 0
    converged: bool = False


def _constraint_pairs(n_nodes: int, measured_pairs: np.ndarray) -> np.ndarray:
    """All undirected pairs with no measurement (the soft-constraint set),
    as ``(i, j)`` rows with ``i < j`` in ``triu_indices`` order.

    A measured pair counts in either orientation: ``(j, i)`` measures
    ``(i, j)`` too.
    """
    measured = np.zeros((n_nodes, n_nodes), dtype=bool)
    measured[measured_pairs[:, 0], measured_pairs[:, 1]] = True
    measured[measured_pairs[:, 1], measured_pairs[:, 0]] = True
    i, j = np.triu_indices(n_nodes, k=1)
    unmeasured = ~measured[i, j]
    return np.stack([i[unmeasured], j[unmeasured]], axis=1).astype(np.int64, copy=False)


@dataclass
class _LssSetup:
    """A validated LSS problem, before any random draw."""

    edges: EdgeList
    constraint_pairs: Optional[np.ndarray]
    span: float
    free_mask: np.ndarray
    pins: Dict[int, np.ndarray]
    initial: Optional[np.ndarray]

    def pin(self, pts: np.ndarray) -> np.ndarray:
        """Write the fixed positions into *pts* (``(..., n, 2)``) in place."""
        for node_id, arr in self.pins.items():
            pts[..., node_id, :] = arr
        return pts


def _init_span(config: LssConfig, distances: np.ndarray, n_nodes: int) -> float:
    """Side of the square random starts are drawn from: *init_span_m*,
    or a square comfortably containing a configuration whose edges have
    the measured lengths."""
    if config.init_span_m is not None:
        return config.init_span_m
    return max(1.0, float(np.median(distances)) * math.sqrt(n_nodes))


def _setup(
    measurements,
    n_nodes: int,
    config: LssConfig,
    initial,
    fixed_positions: Optional[Dict[int, Sequence[float]]],
) -> _LssSetup:
    """Edge list, constraint pairs, init span, pins and starting
    configuration of a shared-edge LSS stack (:func:`lss_localize` and
    :func:`repro.engine.batch.lss_localize_multistart`)."""
    edges = as_graph_edges(measurements, n_nodes)
    if len(edges) == 0:
        raise InsufficientDataError("no distance measurements supplied")

    constraint_pairs = None
    if config.min_spacing_m is not None:
        constraint_pairs = _constraint_pairs(n_nodes, edges.pairs)

    span = _init_span(config, edges.distances, n_nodes)

    pins = check_node_positions(fixed_positions or {}, n_nodes, "fixed node")
    free_mask = np.ones(n_nodes, dtype=bool)
    free_mask[list(pins)] = False

    if initial is not None:
        initial = as_positions(initial, "initial").copy()
        if initial.shape != (n_nodes, 2):
            raise ValidationError(f"initial must have shape ({n_nodes}, 2)")
    return _LssSetup(edges, constraint_pairs, span, free_mask, pins, initial)


def lss_error(
    positions,
    edges: EdgeList,
    *,
    constraint_pairs: Optional[np.ndarray] = None,
    min_spacing_m: Optional[float] = None,
    constraint_weight: float = 10.0,
) -> float:
    """Evaluate the full LSS objective ``E`` at a configuration."""
    pts = as_positions(positions, "positions")
    diff = pts[edges.pairs[:, 0]] - pts[edges.pairs[:, 1]]
    comp = np.hypot(diff[:, 0], diff[:, 1])
    value = float(np.sum(edges.weights * (comp - edges.distances) ** 2))
    if min_spacing_m is not None and constraint_pairs is not None and constraint_pairs.size:
        cdiff = pts[constraint_pairs[:, 0]] - pts[constraint_pairs[:, 1]]
        ccomp = np.hypot(cdiff[:, 0], cdiff[:, 1])
        violation = np.minimum(ccomp, min_spacing_m) - min_spacing_m
        value += float(constraint_weight * np.sum(violation**2))
    return value


def lss_gradient(
    positions,
    edges: EdgeList,
    *,
    constraint_pairs: Optional[np.ndarray] = None,
    min_spacing_m: Optional[float] = None,
    constraint_weight: float = 10.0,
) -> np.ndarray:
    """Gradient of the LSS objective w.r.t. all coordinates, shape (n, 2).

    Vectorized form of the paper's partial derivatives: for each
    measured pair, ``2 w_ij (d_comp - d_ij) (p_i - p_j) / d_comp``
    accumulated onto node *i* (and its negation onto node *j*);
    violated constraint pairs contribute the analogous term with
    ``d_min`` in place of the measurement.
    """
    pts = as_positions(positions, "positions")
    grad = np.zeros_like(pts)

    i_idx = edges.pairs[:, 0]
    j_idx = edges.pairs[:, 1]
    diff = pts[i_idx] - pts[j_idx]
    comp = np.hypot(diff[:, 0], diff[:, 1])
    safe = np.maximum(comp, 1e-12)
    coeff = 2.0 * edges.weights * (comp - edges.distances) / safe
    contrib = coeff[:, None] * diff
    np.add.at(grad, i_idx, contrib)
    np.add.at(grad, j_idx, -contrib)

    if min_spacing_m is not None and constraint_pairs is not None and constraint_pairs.size:
        ci = constraint_pairs[:, 0]
        cj = constraint_pairs[:, 1]
        cdiff = pts[ci] - pts[cj]
        ccomp = np.hypot(cdiff[:, 0], cdiff[:, 1])
        violated = ccomp < min_spacing_m
        if np.any(violated):
            vi = ci[violated]
            vj = cj[violated]
            vdiff = cdiff[violated]
            vcomp = np.maximum(ccomp[violated], 1e-12)
            vcoeff = 2.0 * constraint_weight * (vcomp - min_spacing_m) / vcomp
            vcontrib = vcoeff[:, None] * vdiff
            np.add.at(grad, vi, vcontrib)
            np.add.at(grad, vj, -vcontrib)
    return grad


def lss_localize(
    measurements,
    n_nodes: int,
    *,
    config: Optional[LssConfig] = None,
    initial=None,
    fixed_positions: Optional[Dict[int, Sequence[float]]] = None,
    rng=None,
) -> LssResult:
    """Run centralized LSS localization.

    Parameters
    ----------
    measurements : MeasurementSet or EdgeList
        Available range measurements (a subset of all pairs is fine —
        that is the point of LSS).
    n_nodes : int
        Number of nodes; ids run 0..n_nodes-1.  Nodes with no
        measurements at all are placed but meaningless; check
        connectivity upstream if that matters.
    config : LssConfig
        Hyper-parameters; defaults follow the paper (w_D = 10).
    initial : array-like of shape (n, 2), optional
        Starting configuration; random if omitted.
    fixed_positions : dict, optional
        Node id -> (x, y) to pin during minimization (anchored LSS —
        an extension; the paper's runs are fully anchor-free).
    rng : None, int or Generator
        Randomness for initialization and perturbation restarts.

    The rounds run on the engine's one restart driver as a stack of one
    configuration, the driver :func:`repro.engine.lss_localize_multistart`
    runs with one configuration per seed.
    """
    from ..engine.batch import _lss_stack

    rngs = [ensure_rng(rng)]
    return _lss_stack(measurements, n_nodes, config, rngs, initial, fixed_positions)[0]


def _refit_edges(
    edges: EdgeList, positions: np.ndarray, threshold_m: float, max_weight: float
) -> Optional[EdgeList]:
    """The edges a residual-trim refit runs on after a fit at *positions*.

    An edge goes when its fit residual exceeds *threshold_m* and its
    weight is below *max_weight*, or when the residual exceeds three
    times *threshold_m* whatever its weight: corroborated edges get more
    benefit of the doubt, not immunity (a persistent echo path
    overestimates both directions alike).  Returns None, meaning no
    refit, when nothing goes or fewer than three edges stay.
    """
    diff = positions[edges.pairs[:, 0]] - positions[edges.pairs[:, 1]]
    comp = np.hypot(diff[:, 0], diff[:, 1])
    residuals = np.abs(comp - edges.distances)
    keep = ~(
        ((residuals > threshold_m) & (edges.weights < max_weight))
        | (residuals > 3.0 * threshold_m)
    )
    if keep.all() or np.count_nonzero(keep) < 3:
        return None
    return edges.subset(keep)


def lss_localize_robust(
    measurements,
    n_nodes: int,
    *,
    config: Optional[LssConfig] = None,
    trim_residual_m: float = 3.0,
    trim_max_weight: float = 1.0,
    max_trim_rounds: int = 2,
    rng=None,
    **kwargs,
) -> LssResult:
    """LSS with residual-based trimming of low-confidence measurements.

    Runs :func:`lss_localize`, then discards edges whose fit residual
    exceeds *trim_residual_m* and whose confidence weight is below
    *trim_max_weight*, and refits from the previous configuration —
    repeating up to *max_trim_rounds* times.  This is the measurement-
    level analogue of the paper's consistency checking: an
    uncorroborated range that disagrees wildly with the consensus
    configuration is more likely a noise-burst artifact than evidence.

    Corroborated edges (weight >= *trim_max_weight*) are held to a 3x
    looser threshold, the rule :func:`repro.core.distributed.build_local_maps`
    applies too (:func:`_refit_edges`).
    """
    check_positive(trim_residual_m, "trim_residual_m")
    if max_trim_rounds < 0:
        raise ValidationError("max_trim_rounds must be non-negative")
    rng = ensure_rng(rng)
    edges = as_graph_edges(measurements, n_nodes)
    result = lss_localize(edges, n_nodes, config=config, rng=rng, **kwargs)
    for _ in range(max_trim_rounds):
        edges = _refit_edges(edges, result.positions, trim_residual_m, trim_max_weight)
        if edges is None:
            break
        result = lss_localize(
            edges,
            n_nodes,
            config=config,
            initial=result.positions,
            rng=rng,
            **kwargs,
        )
    return result
