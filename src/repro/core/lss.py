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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import as_positions, check_non_negative, check_positive, ensure_rng
from ..errors import InsufficientDataError, ValidationError
from .measurements import EdgeList, MeasurementSet

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
    with a batch of one).  The scalar ``_descend_scalar`` and a scipy
    L-BFGS-B run over :func:`lss_error`/:func:`lss_gradient` survive
    only as oracles in the test suite.
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


def _prepare_edges(measurements, n_nodes: int) -> EdgeList:
    if isinstance(measurements, MeasurementSet):
        edges = measurements.to_edge_list()
    elif isinstance(measurements, EdgeList):
        edges = measurements
    else:
        raise ValidationError(
            "measurements must be a MeasurementSet or EdgeList; "
            f"got {type(measurements)!r}"
        )
    if len(edges) == 0:
        raise InsufficientDataError("no distance measurements supplied")
    if np.any(edges.pairs < 0) or np.any(edges.pairs >= n_nodes):
        raise ValidationError("edge indices outside [0, n_nodes)")
    return edges


def _constraint_pairs(n_nodes: int, measured_pairs: np.ndarray) -> np.ndarray:
    """All undirected pairs with no measurement (the soft-constraint set)."""
    measured = set(map(tuple, measured_pairs.tolist()))
    iu = np.triu_indices(n_nodes, k=1)
    unmeasured = [
        (int(i), int(j))
        for i, j in zip(iu[0], iu[1])
        if (int(i), int(j)) not in measured
    ]
    if not unmeasured:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(unmeasured, dtype=np.int64)


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


def _setup(
    measurements,
    n_nodes: int,
    config: LssConfig,
    initial,
    fixed_positions: Optional[Dict[int, Sequence[float]]],
) -> _LssSetup:
    """Edge list, constraint pairs, init span, pins and starting
    configuration shared by :func:`lss_localize` and
    :func:`repro.engine.batch.lss_localize_multistart`."""
    edges = _prepare_edges(measurements, n_nodes)

    constraint_pairs = None
    if config.min_spacing_m is not None:
        constraint_pairs = _constraint_pairs(n_nodes, edges.pairs)

    span = config.init_span_m
    if span is None:
        # A square comfortably containing a configuration whose edges
        # have the measured lengths.
        span = max(1.0, float(np.median(edges.distances)) * math.sqrt(n_nodes))

    free_mask = np.ones(n_nodes, dtype=bool)
    pins: Dict[int, np.ndarray] = {}
    if fixed_positions:
        for node_id, pos in fixed_positions.items():
            node_id = int(node_id)
            if not 0 <= node_id < n_nodes:
                raise ValidationError(f"fixed node id {node_id} outside [0, {n_nodes})")
            arr = np.asarray(pos, dtype=float)
            if arr.shape != (2,):
                raise ValidationError("fixed positions must be (x, y) pairs")
            pins[node_id] = arr
            free_mask[node_id] = False

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


def _descend(
    pts: np.ndarray,
    edges: EdgeList,
    constraint_pairs: Optional[np.ndarray],
    config: LssConfig,
    trace: List[float],
    free_mask: np.ndarray,
) -> Tuple[np.ndarray, float, bool]:
    """One gradient-descent round through the engine's batched kernel.

    Runs :func:`repro.engine.batch.batch_lss_descend` with a batch of
    one — the same code path multi-seed campaigns batch over — so a
    single-configuration round and a stacked round follow identical
    per-configuration trajectories.
    """
    from ..engine.batch import batch_lss_descend

    traces: List[List[float]] = [trace]
    out, errors, converged = batch_lss_descend(
        pts[None, :, :],
        edges,
        constraint_pairs,
        min_spacing_m=config.min_spacing_m,
        constraint_weight=config.constraint_weight,
        step_size=config.step_size,
        max_epochs=config.max_epochs,
        tolerance=config.tolerance,
        free_mask=free_mask,
        traces=traces,
    )
    return out[0], float(errors[0]), bool(converged[0])


def _descend_scalar(
    pts: np.ndarray,
    edges: EdgeList,
    constraint_pairs: Optional[np.ndarray],
    config: LssConfig,
    trace: List[float],
    free_mask: np.ndarray,
) -> Tuple[np.ndarray, float, bool]:
    """One gradient-descent round from *pts*; returns (best, error, converged).

    The pre-engine scalar implementation, kept verbatim as the test
    oracle of the batched/scalar parity contract: :func:`_descend`
    reproduces it byte for byte, and tests substitute it for
    :func:`_descend` (which :func:`lss_localize` looks up at call time)
    to run the reference path end to end.
    """
    kwargs = dict(
        constraint_pairs=constraint_pairs,
        min_spacing_m=config.min_spacing_m,
        constraint_weight=config.constraint_weight,
    )
    current = lss_error(pts, edges, **kwargs)
    alpha = config.step_size
    momentum = 0.9
    velocity = np.zeros_like(pts)
    patience = 50
    stall = 0
    converged = False
    for _ in range(config.max_epochs):
        grad = lss_gradient(pts, edges, **kwargs)
        grad[~free_mask] = 0.0
        velocity = momentum * velocity - alpha * grad
        candidate = pts + velocity
        value = lss_error(candidate, edges, **kwargs)
        if value < current:
            improvement = (current - value) / max(current, 1e-12)
            pts = candidate
            current = value
            alpha *= 1.05
            stall = stall + 1 if improvement < config.tolerance else 0
        else:
            # Overshoot: damp the step and kill the momentum so the
            # next step is a plain (smaller) gradient step.
            alpha *= 0.5
            velocity[:] = 0.0
            stall += 1
            if alpha < 1e-14:
                converged = True
                trace.append(current)
                break
        trace.append(current)
        if stall >= patience:
            converged = True
            break
    return pts, current, converged


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
    """
    config = config if config is not None else LssConfig()
    rng = ensure_rng(rng)
    setup = _setup(measurements, n_nodes, config, initial, fixed_positions)
    edges, constraint_pairs = setup.edges, setup.constraint_pairs
    if setup.initial is not None:
        pts = setup.initial
    else:
        pts = rng.uniform(0.0, setup.span, size=(n_nodes, 2))
    setup.pin(pts)

    kwargs = dict(
        constraint_pairs=constraint_pairs,
        min_spacing_m=config.min_spacing_m,
        constraint_weight=config.constraint_weight,
    )
    trace: List[float] = []
    boundaries: List[int] = []
    best_pts = pts
    best_error = lss_error(pts, edges, **kwargs)
    converged = False
    for round_index in range(config.restarts):
        boundaries.append(len(trace))
        if round_index == 0:
            seed = best_pts
        else:
            seed = setup.pin(
                best_pts + rng.normal(0.0, config.perturbation_m, size=(n_nodes, 2))
            )
        out_pts, out_error, converged = _descend(
            seed, edges, constraint_pairs, config, trace, setup.free_mask
        )
        if out_error < best_error:
            best_pts = out_pts
            best_error = out_error

    stress = lss_error(
        best_pts,
        edges,
        constraint_pairs=None,
        min_spacing_m=None,
        constraint_weight=0.0,
    )
    return LssResult(
        positions=np.asarray(best_pts, dtype=float),
        error=float(best_error),
        stress=float(stress),
        error_trace=np.asarray(trace, dtype=float),
        round_boundaries=boundaries,
        epochs_run=len(trace),
        converged=converged,
    )


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
    looser threshold, mirroring
    :func:`repro.core.distributed.build_local_maps`.
    """
    if trim_residual_m <= 0:
        raise ValidationError("trim_residual_m must be positive")
    if max_trim_rounds < 0:
        raise ValidationError("max_trim_rounds must be non-negative")
    rng = ensure_rng(rng)
    edges = _prepare_edges(measurements, n_nodes)
    result = lss_localize(edges, n_nodes, config=config, rng=rng, **kwargs)
    for _ in range(max_trim_rounds):
        diff = result.positions[edges.pairs[:, 0]] - result.positions[edges.pairs[:, 1]]
        comp = np.hypot(diff[:, 0], diff[:, 1])
        residuals = np.abs(comp - edges.distances)
        drop = ((residuals > trim_residual_m) & (edges.weights < trim_max_weight)) | (
            residuals > 3.0 * trim_residual_m
        )
        if not np.any(drop) or (~drop).sum() < 3:
            break
        edges = EdgeList(
            pairs=edges.pairs[~drop],
            distances=edges.distances[~drop],
            weights=edges.weights[~drop],
        )
        result = lss_localize(
            edges,
            n_nodes,
            config=config,
            initial=result.positions,
            rng=rng,
            **kwargs,
        )
    return result
