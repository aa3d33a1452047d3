"""Distributed LSS localization (Section 4.3, Figures 24 and 25).

Three steps, each implemented as a separately testable stage:

1. **Local localization** — every node runs LSS over itself and its
   measurement neighbors, producing a *local relative coordinate
   system* (:func:`build_local_maps`; Section 4.3's per-node stage,
   whose sparse-data failure mode is Figure 24 and whose
   extended-measurement recovery is Figure 25).
2. **Pairwise transforms** — for each pair of neighboring nodes, a
   rigid transform between their local frames is estimated from their
   shared neighbors (:func:`build_transforms`), using the paper's
   closed-form center-of-mass method (Section 4.3.1).
3. **Alignment** — the root's frame is flooded through the network;
   each node composes the received frame with its pairwise transform
   and forwards it, ending with every reachable node knowing its
   position in the root's coordinate system
   (:func:`distributed_localize`).

The algorithm needs only two local data exchanges per node plus one
flood, making it scalable — at the cost the paper measures in Figure 24:
with sparse measurements a single bad pairwise transform corrupts the
whole subtree behind it.  The ``tree="best"`` option implements the
obvious mitigation (prefer low-residual transforms when building the
alignment tree), benchmarked as an ablation.

Execution paths
---------------
In the simulator this pipeline is embarrassingly batchable: a
deployment's local maps are many small independent LSS problems, and
its pairwise transforms many small independent closed-form fits, so
steps 1 and 2 run through the engine's stacked kernels — the local maps' MDS-MAP seeds
are computed stacked by neighborhood size
(:func:`repro.core.mds.mds_map_stack`, bytewise the scalar seeds), all
local maps advance through their perturbation-restart rounds in
lockstep (:func:`repro.engine.localmaps.solve_local_lss_stack`) and all
pairwise transforms are estimated in one vectorized pass
(:func:`repro.core.transforms.estimate_transforms_closed_form_batch`).
The one-map-at-a-time reference of step 1 lives in the test suite
(``solve_local_maps_scalar`` in ``tests/_oracles.py``), which
substitutes it for :func:`_solve_local_maps_batched`.  The two consume
perturbation randomness in different orders (batched phases fits before
trim-refits; the reference interleaves them per map), so they agree to
solver tolerance rather than bit-for-bit — ``tests/test_distributed.py``
and ``benchmarks/test_bench_distributed.py`` pin the agreement and the
speedup.  Both trim through :func:`repro.core.lss._refit_edges`, the
rule :func:`repro.core.lss.lss_localize_robust` applies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import telemetry
from .._validation import check_positive, ensure_rng
from ..errors import InsufficientDataError, ValidationError
from .geometry import apply_transform, compose_transforms
from .lss import LssConfig, _refit_edges
from .mds import mds_map_stack
from .measurements import EdgeList, as_graph_edges
from .transforms import TransformEstimate, estimate_transforms_closed_form_batch

__all__ = [
    "DistributedConfig",
    "LocalMap",
    "DistributedResult",
    "build_local_maps",
    "build_transforms",
    "distributed_localize",
]


@dataclass(frozen=True)
class DistributedConfig:
    """Parameters of the distributed localization pipeline.

    Attributes
    ----------
    local_lss : LssConfig
        Configuration for the per-node local LSS runs (smaller budgets
        than the centralized runs — neighborhoods are tiny).  Pairwise
        transforms always use the paper's mote-friendly closed-form
        estimator; the heavier Nelder-Mead minimization survives only
        as a test and ablation-benchmark oracle
        (``estimate_transform_minimize`` in ``tests/_oracles.py``).
    min_shared : int
        Minimum shared-map points required to trust a pairwise
        transform (2 is the geometric minimum; 3 rejects more bad
        transforms at the cost of graph connectivity).
    tree : {"bfs", "best"}
        Alignment-tree construction: ``"bfs"`` is the paper's plain
        flood (first frame heard wins); ``"best"`` builds a
        minimum-residual tree over transform quality (extension).
    min_spacing_m : float or None
        Deployment minimum node spacing; when set, it is applied as the
        soft constraint of every *local* LSS run (local neighborhoods
        fold just like global configurations do).
    residual_trim_m : float or None
        Node-local consistency check: after the first local fit, edges
        whose residual exceeds this threshold (and whose confidence
        weight is below 1) are discarded and the map is refit.  In a
        small neighborhood a single uncorroborated garbage range can
        warp the whole local frame; this is the local analogue of the
        paper's cross-node consistency checks.  ``None`` disables.

    *min_spacing_m* and *residual_trim_m*, when set, must be positive
    and finite (:class:`ValidationError` at construction).
    """

    local_lss: LssConfig = field(
        default_factory=lambda: LssConfig(max_epochs=800, restarts=6, perturbation_m=2.0)
    )
    min_shared: int = 2
    tree: str = "bfs"
    min_spacing_m: Optional[float] = None
    residual_trim_m: Optional[float] = 3.0

    def __post_init__(self):
        if self.min_shared < 2:
            raise ValidationError("min_shared must be >= 2")
        if self.tree not in ("bfs", "best"):
            raise ValidationError("tree must be 'bfs' or 'best'")
        if self.min_spacing_m is not None:
            check_positive(self.min_spacing_m, "min_spacing_m")
        if self.residual_trim_m is not None:
            check_positive(self.residual_trim_m, "residual_trim_m")

    @property
    def effective_local_lss(self) -> LssConfig:
        """The local LSS config with the deployment spacing folded in."""
        if self.min_spacing_m is None:
            return self.local_lss
        return replace(self.local_lss, min_spacing_m=self.min_spacing_m)


@dataclass
class LocalMap:
    """One node's local relative coordinate system.

    ``coordinates`` maps node id -> (x, y) in this node's frame; the
    owner always has an entry for itself.
    """

    owner: int
    coordinates: Dict[int, np.ndarray]

    @property
    def members(self) -> List[int]:
        return sorted(self.coordinates)

    def coords_for(self, node_ids: Sequence[int]) -> np.ndarray:
        return np.asarray([self.coordinates[n] for n in node_ids])


@dataclass
class DistributedResult:
    """Outcome of the distributed pipeline.

    Attributes
    ----------
    positions : ndarray of shape (n, 2)
        Coordinates in the root's frame; nan where alignment failed.
    localized : ndarray of bool
        Mask of nodes with a position.
    root : int
        Root node id.
    local_maps : dict
        Node id -> LocalMap.
    transforms : dict
        (a, b) -> TransformEstimate mapping b's frame into a's frame,
        for each usable neighbor pair.
    parents : dict
        Alignment-tree parent pointers (root -> None).
    """

    positions: np.ndarray
    localized: np.ndarray
    root: int
    local_maps: Dict[int, LocalMap]
    transforms: Dict[Tuple[int, int], TransformEstimate]
    parents: Dict[int, Optional[int]]


def _neighborhood_problems(
    edges: EdgeList, n_nodes: int
) -> List[Tuple[int, List[int], EdgeList]]:
    """Collect every node's one-hop local-map problem.

    Returns ``(owner, members, local_edges)`` triples in owner order;
    ``local_edges`` is indexed by position in ``members``.  Nodes with
    fewer than two neighbors (or fewer than three usable local edges)
    yield no problem.  The batched solve and its test oracle both take
    this problem set.
    """
    neighbor_map: Dict[int, Set[int]] = {i: set() for i in range(n_nodes)}
    edge_lookup: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for (i, j), d, w in zip(edges.pairs, edges.distances, edges.weights):
        i, j = int(i), int(j)
        neighbor_map[i].add(j)
        neighbor_map[j].add(i)
        edge_lookup[(min(i, j), max(i, j))] = (float(d), float(w))

    problems: List[Tuple[int, List[int], EdgeList]] = []
    for owner in range(n_nodes):
        members = sorted({owner} | neighbor_map[owner])
        if len(members) < 3:
            continue
        index = {node: k for k, node in enumerate(members)}
        local_pairs = []
        local_dists = []
        local_weights = []
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                key = (min(a, b), max(a, b))
                if key in edge_lookup:
                    d, w = edge_lookup[key]
                    local_pairs.append((index[a], index[b]))
                    local_dists.append(d)
                    local_weights.append(w)
        if len(local_pairs) < 3:
            continue
        local_edges = EdgeList(
            pairs=np.asarray(local_pairs, dtype=np.int64),
            distances=np.asarray(local_dists),
            weights=np.asarray(local_weights),
        )
        problems.append((owner, members, local_edges))
    return problems


#: Corroboration weights the MDS-MAP seed tries, in order: corroborated
#: edges only, then every edge.
_SEED_MIN_WEIGHTS = (0.5, 0.0)


def _edges_at_least(edges: EdgeList, min_weight: float) -> EdgeList:
    return edges.subset(edges.weights >= min_weight)


def _mds_initials(
    problems: List[Tuple[int, List[int], EdgeList]],
) -> List[Optional[np.ndarray]]:
    """MDS-MAP seed of every local minimization (None when impossible).

    Neighborhood graphs are dense enough that shortest-path completion
    plus classical MDS lands in the right basin nearly always, where a
    random start folds ~15% of the time.  A seed is built from
    corroborated edges only — shortest-path completion amplifies a
    single garbage underestimate into many wrong entries, so
    uncorroborated ranges are excluded here (they still participate,
    down-weighted, in the refinement).  When the corroborated edges do
    not connect the neighborhood, every edge is tried.

    Each neighborhood size is one :func:`repro.core.mds.mds_map_stack`
    call per corroboration weight; the all-edges call takes only the
    problems the corroborated one left disconnected.  The seeds are
    bytewise one :func:`repro.core.mds.mds_map` call per problem and
    weight (``mds_initial`` in ``tests/_oracles.py``).  Counts each
    seed's outcome under
    ``core.distributed.seeds.{corroborated,all_edges,random}`` (random:
    no seed, the map starts from a uniform draw).
    """
    by_size: Dict[int, List[int]] = {}
    for k, (_, members, _) in enumerate(problems):
        by_size.setdefault(len(members), []).append(k)
    seeds: List[Optional[np.ndarray]] = [None] * len(problems)
    seeded = [0] * len(_SEED_MIN_WEIGHTS)
    for n_members, pending in by_size.items():
        for level, min_weight in enumerate(_SEED_MIN_WEIGHTS):
            if not pending:
                break
            coordinates, connected = mds_map_stack(
                [_edges_at_least(problems[k][2], min_weight) for k in pending],
                n_members,
            )
            for k, coords, ok in zip(pending, coordinates, connected):
                if ok:
                    seeds[k] = coords
            seeded[level] += int(np.count_nonzero(connected))
            pending = [k for k, ok in zip(pending, connected) if not ok]
    corroborated, all_edges = seeded
    telemetry.count("core.distributed.seeds.corroborated", corroborated)
    telemetry.count("core.distributed.seeds.all_edges", all_edges)
    telemetry.count(
        "core.distributed.seeds.random", len(problems) - corroborated - all_edges
    )
    return seeds


def _solve_local_maps_batched(
    problems: List[Tuple[int, List[int], EdgeList]],
    config: DistributedConfig,
    rng,
) -> List[np.ndarray]:
    """Batched path: all maps descend in lockstep through the engine.

    The MDS-MAP seeds are computed stacked by neighborhood size
    (:func:`_mds_initials`).  Phase 1 stacks every neighborhood's
    multistart LSS into one
    :func:`repro.engine.localmaps.solve_local_lss_stack` call; phase 2
    re-runs the subset whose residual trim dropped edges
    (:func:`repro.core.lss._refit_edges`, edges of weight below 1 held
    to ``residual_trim_m``), again as one stack seeded from the phase-1
    configurations.
    """
    from ..engine.localmaps import LocalLssProblem, solve_local_lss_stack

    lss_config = config.effective_local_lss
    stack = [
        LocalLssProblem(n_nodes=len(members), edges=local_edges, initial=initial)
        for (_, members, local_edges), initial in zip(problems, _mds_initials(problems))
    ]
    solutions = solve_local_lss_stack(stack, config=lss_config, rng=rng)
    positions = [solution.positions for solution in solutions]

    if config.residual_trim_m is not None:
        refit_indices: List[int] = []
        refit_stack: List[LocalLssProblem] = []
        for k, (_, members, local_edges) in enumerate(problems):
            trimmed = _refit_edges(local_edges, positions[k], config.residual_trim_m, 1.0)
            if trimmed is not None:
                refit_indices.append(k)
                refit_stack.append(
                    LocalLssProblem(
                        n_nodes=len(members), edges=trimmed, initial=positions[k]
                    )
                )
        if refit_stack:
            refits = solve_local_lss_stack(refit_stack, config=lss_config, rng=rng)
            for k, solution in zip(refit_indices, refits):
                positions[k] = solution.positions
    return positions


def build_local_maps(
    measurements,
    n_nodes: int,
    *,
    config: Optional[DistributedConfig] = None,
    rng=None,
) -> Dict[int, LocalMap]:
    """Step 1: run LSS in every node's one-hop neighborhood.

    Nodes with fewer than two neighbors cannot form a useful local map
    and are skipped (they may still be localized if they appear in
    neighbors' maps — but have no frame of their own to align).

    Every neighborhood problem — padded to the largest neighborhood —
    advances through its perturbation-restart rounds in one stacked
    engine descent (:func:`_solve_local_maps_batched`).
    """
    config = config if config is not None else DistributedConfig()
    rng = ensure_rng(rng)
    edges = as_graph_edges(measurements, n_nodes)
    if len(edges) == 0:
        raise InsufficientDataError("no distance measurements supplied")
    problems = _neighborhood_problems(edges, n_nodes)
    positions = _solve_local_maps_batched(problems, config, rng)

    maps: Dict[int, LocalMap] = {}
    for (owner, members, _), pts in zip(problems, positions):
        coordinates = {node: pts[k].copy() for k, node in enumerate(members)}
        maps[owner] = LocalMap(owner=owner, coordinates=coordinates)
    return maps


def build_transforms(
    local_maps: Dict[int, LocalMap],
    *,
    config: Optional[DistributedConfig] = None,
) -> Dict[Tuple[int, int], TransformEstimate]:
    """Step 2: estimate frame transforms for every usable neighbor pair.

    Returns a dict keyed ``(a, b)`` holding the transform that maps
    coordinates in *b*'s frame into *a*'s frame.  Both directions are
    stored.  Pairs whose maps share fewer than ``config.min_shared``
    nodes are omitted.

    Every fit uses the paper's closed-form estimator; all pairs' fits —
    two directed problems per pair — are stacked into one
    :func:`repro.core.transforms.estimate_transforms_closed_form_batch`
    call.
    """
    config = config if config is not None else DistributedConfig()
    transforms: Dict[Tuple[int, int], TransformEstimate] = {}
    owners = sorted(local_maps)
    tasks: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
    for a in owners:
        map_a = local_maps[a]
        for b in map_a.members:
            if b <= a or b not in local_maps:
                continue
            map_b = local_maps[b]
            shared = sorted(set(map_a.members) & set(map_b.members))
            if len(shared) < config.min_shared:
                continue
            source_b = map_b.coords_for(shared)
            target_a = map_a.coords_for(shared)
            tasks.append((a, b, source_b, target_a))
    if not tasks:
        return transforms

    # Two directed problems per pair: (b -> a) then (a -> b).
    max_shared = max(task[2].shape[0] for task in tasks)
    n_problems = 2 * len(tasks)
    sources = np.zeros((n_problems, max_shared, 2))
    targets = np.zeros((n_problems, max_shared, 2))
    valid = np.zeros((n_problems, max_shared), dtype=bool)
    for t, (_, _, source_b, target_a) in enumerate(tasks):
        n_shared = source_b.shape[0]
        sources[2 * t, :n_shared] = source_b
        targets[2 * t, :n_shared] = target_a
        sources[2 * t + 1, :n_shared] = target_a
        targets[2 * t + 1, :n_shared] = source_b
        valid[2 * t : 2 * t + 2, :n_shared] = True
    estimates = estimate_transforms_closed_form_batch(sources, targets, valid)
    for t, (a, b, _, _) in enumerate(tasks):
        transforms[(a, b)] = estimates[2 * t]
        transforms[(b, a)] = estimates[2 * t + 1]
    return transforms


def _alignment_tree_bfs(
    root: int, transforms: Dict[Tuple[int, int], TransformEstimate]
) -> Dict[int, Optional[int]]:
    """Plain flood order: parent = first node you hear the frame from."""
    parents: Dict[int, Optional[int]] = {root: None}
    frontier = [root]
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for (a, b) in transforms:
                if a != node or b in parents:
                    continue
                parents[b] = node
                next_frontier.append(b)
        frontier = next_frontier
    return parents


def _alignment_tree_best(
    root: int, transforms: Dict[Tuple[int, int], TransformEstimate]
) -> Dict[int, Optional[int]]:
    """Minimum accumulated-transform-residual tree (Dijkstra).

    Extension over the paper: prefer paths through well-constrained
    transforms, reducing the error amplification seen in Figure 24.
    """
    parents: Dict[int, Optional[int]] = {root: None}
    cost: Dict[int, float] = {root: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, root)]
    visited: Set[int] = set()
    while heap:
        c, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for (a, b), estimate in transforms.items():
            if a != node:
                continue
            edge_cost = estimate.rmse
            candidate = c + edge_cost
            if b not in cost or candidate < cost[b]:
                cost[b] = candidate
                parents[b] = node
                heapq.heappush(heap, (candidate, b))
    return parents


def distributed_localize(
    measurements,
    n_nodes: int,
    root: int,
    *,
    config: Optional[DistributedConfig] = None,
    rng=None,
    local_maps: Optional[Dict[int, LocalMap]] = None,
) -> DistributedResult:
    """Run the full distributed pipeline.

    Parameters
    ----------
    measurements : MeasurementSet or EdgeList
        Range measurements.
    n_nodes : int
        Node count.
    root : int
        Node whose local frame becomes the global frame (the paper's
        Figure 24 used the node at (27, 36)).
    local_maps : dict, optional
        Precomputed step-1 output (lets callers reuse maps across
        experiments).
    """
    config = config if config is not None else DistributedConfig()
    rng = ensure_rng(rng)
    if not 0 <= root < n_nodes:
        raise ValidationError(f"root must be in [0, {n_nodes})")
    if local_maps is None:
        local_maps = build_local_maps(measurements, n_nodes, config=config, rng=rng)
    if root not in local_maps:
        raise InsufficientDataError(
            f"root node {root} has no local map (fewer than two neighbors)"
        )
    transforms = build_transforms(local_maps, config=config)

    if config.tree == "bfs":
        parents = _alignment_tree_bfs(root, transforms)
    else:
        parents = _alignment_tree_best(root, transforms)

    # Compose frame transforms down the tree: to_global[b] maps b-frame
    # row vectors into the root frame.
    to_global: Dict[int, np.ndarray] = {root: np.eye(3)}
    # Process nodes in tree order (parents before children).
    pending = [n for n in parents if n != root]
    progressed = True
    while pending and progressed:
        progressed = False
        remaining = []
        for node in pending:
            parent = parents[node]
            if parent in to_global:
                t_parent = to_global[parent]
                t_node_to_parent = transforms[(parent, node)].matrix
                to_global[node] = compose_transforms(t_node_to_parent, t_parent)
                progressed = True
            else:
                remaining.append(node)
        pending = remaining

    positions = np.full((n_nodes, 2), np.nan)
    for node, matrix in to_global.items():
        own = local_maps[node].coordinates[node].reshape(1, 2)
        positions[node] = apply_transform(own, matrix)[0]
    localized = np.all(np.isfinite(positions), axis=1)
    return DistributedResult(
        positions=positions,
        localized=localized,
        root=root,
        local_maps=local_maps,
        transforms=transforms,
        parents=parents,
    )
