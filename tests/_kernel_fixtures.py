"""Seeded kernel inputs shared by the golden byte pins.

The pins in ``tests/test_kernel_pins.py`` and the LSS descent byte pins
in ``tests/test_engine_batch.py`` need the *same* deterministic problem
stacks: each builder here derives every array from a fixed
``numpy.random.default_rng`` seed, so the inputs are bit-identical
across processes, test runs, and the pin-generation script that froze
the hashes.  Keep these builders pure (no global state, no time, no
platform queries) — the byte pins depend on it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.lss import LssConfig
from repro.core.measurements import EdgeList


def sha256_bytes(*arrays) -> str:
    """Stable content hash of a tuple of float/bool arrays.

    Arrays are coerced to C-contiguous canonical dtypes (float64 /
    bool) first so the hash reflects values, not incidental strides.
    """
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        if arr.dtype != np.bool_:
            arr = arr.astype(np.float64, copy=False)
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def multilateration_problems(seed: int = 20050, n_problems: int = 6):
    """Heterogeneous multilateration problems (anchor/dist/weight sets)."""
    rng = np.random.default_rng(seed)
    anchor_sets, dist_sets, weight_sets = [], [], []
    for b in range(n_problems):
        k = 3 + (b % 4)
        anchors = rng.uniform(0.0, 40.0, size=(k, 2))
        truth = rng.uniform(5.0, 35.0, size=2)
        dists = np.hypot(*(anchors - truth).T) + rng.normal(0.0, 0.3, size=k)
        weights = rng.uniform(0.5, 1.0, size=k)
        anchor_sets.append(anchors)
        dist_sets.append(np.abs(dists))
        weight_sets.append(weights)
    return anchor_sets, dist_sets, weight_sets


def shared_edge_problem(seed: int = 20051, n_nodes: int = 8, n_batch: int = 5):
    """One shared-edge LSS problem: edge list + stacked configurations."""
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0.0, 20.0, size=(n_nodes, 2))
    pairs = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.uniform() < 0.6:
                pairs.append((i, j))
    pairs = np.asarray(pairs, dtype=np.int64)
    diff = truth[pairs[:, 0]] - truth[pairs[:, 1]]
    dists = np.hypot(diff[:, 0], diff[:, 1]) + rng.normal(0.0, 0.2, size=len(pairs))
    edges = EdgeList(
        pairs=pairs,
        distances=np.abs(dists),
        weights=rng.uniform(0.5, 1.0, size=len(pairs)),
    )
    configs = rng.uniform(0.0, 20.0, size=(n_batch, n_nodes, 2))
    free_mask = np.ones(n_nodes, dtype=bool)
    free_mask[0] = False
    return edges, configs, free_mask


def padded_problem_stack(seed: int = 20052, n_problems: int = 5):
    """Heterogeneous padded LSS stacks with masked soft constraints."""
    rng = np.random.default_rng(seed)
    sizes = [4 + (b % 3) for b in range(n_problems)]
    max_nodes = max(sizes)
    edge_lists, constraint_lists = [], []
    for n in sizes:
        truth = rng.uniform(0.0, 12.0, size=(n, 2))
        measured, unmeasured = [], []
        for i in range(n):
            for j in range(i + 1, n):
                (measured if rng.uniform() < 0.7 else unmeasured).append((i, j))
        if not measured:  # pragma: no cover - seed-dependent guard
            measured, unmeasured = unmeasured[:3], unmeasured[3:]
        mp = np.asarray(measured, dtype=np.int64)
        diff = truth[mp[:, 0]] - truth[mp[:, 1]]
        d = np.abs(
            np.hypot(diff[:, 0], diff[:, 1]) + rng.normal(0.0, 0.15, size=len(mp))
        )
        edge_lists.append((mp, d, rng.uniform(0.5, 1.0, size=len(mp))))
        constraint_lists.append(np.asarray(unmeasured, dtype=np.int64).reshape(-1, 2))

    max_edges = max(len(e[0]) for e in edge_lists)
    pairs = np.zeros((n_problems, max_edges, 2), dtype=np.int64)
    dists = np.zeros((n_problems, max_edges))
    weights = np.zeros((n_problems, max_edges))
    for b, (mp, d, w) in enumerate(edge_lists):
        pairs[b, : len(mp)] = mp
        dists[b, : len(mp)] = d
        weights[b, : len(mp)] = w

    max_constraints = max(c.shape[0] for c in constraint_lists)
    constraint_pairs = None
    constraint_valid = None
    if max_constraints:
        constraint_pairs = np.zeros((n_problems, max_constraints, 2), dtype=np.int64)
        constraint_valid = np.zeros((n_problems, max_constraints), dtype=bool)
        for b, c in enumerate(constraint_lists):
            constraint_pairs[b, : c.shape[0]] = c
            constraint_valid[b, : c.shape[0]] = True

    configs = rng.uniform(0.0, 12.0, size=(n_problems, max_nodes, 2))
    for b, n in enumerate(sizes):
        configs[b, n:] = 0.0
    return {
        "configs": configs,
        "pairs": pairs,
        "dists": dists,
        "weights": weights,
        "constraint_pairs": constraint_pairs,
        "constraint_valid": constraint_valid,
        "min_spacing_m": 2.0,
        "sizes": sizes,
    }


def local_map_stack(seed: int = 20053, n_problems: int = 4):
    """LocalLssProblem-shaped stacks for ``solve_local_lss_stack``."""
    rng = np.random.default_rng(seed)
    problems = []
    for b in range(n_problems):
        n = 4 + (b % 3)
        truth = rng.uniform(0.0, 10.0, size=(n, 2))
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() < 0.8:
                    pairs.append((i, j))
        pairs = np.asarray(pairs, dtype=np.int64)
        diff = truth[pairs[:, 0]] - truth[pairs[:, 1]]
        d = np.abs(
            np.hypot(diff[:, 0], diff[:, 1]) + rng.normal(0.0, 0.1, size=len(pairs))
        )
        problems.append(
            {
                "n_nodes": n,
                "pairs": pairs,
                "distances": d,
                "weights": rng.uniform(0.5, 1.0, size=len(pairs)),
                "initial": rng.uniform(0.0, 10.0, size=(n, 2)),
            }
        )
    return problems


def local_lss_config() -> LssConfig:
    """Small, deterministic multistart budget for the stacked solver."""
    return LssConfig(restarts=2, max_epochs=150, min_spacing_m=1.5)


def transform_stacks(seed: int = 20054, n_problems: int = 7, max_shared: int = 6):
    """Padded rigid-transform correspondence stacks with validity masks."""
    rng = np.random.default_rng(seed)
    sources = np.zeros((n_problems, max_shared, 2))
    targets = np.zeros((n_problems, max_shared, 2))
    valid = np.zeros((n_problems, max_shared), dtype=bool)
    for p in range(n_problems):
        n = 2 + (p % (max_shared - 1))
        src = rng.uniform(-5.0, 5.0, size=(n, 2))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        if p % 3 == 0:
            rot = rot @ np.array([[1.0, 0.0], [0.0, -1.0]])
        tgt = src @ rot + rng.uniform(-3.0, 3.0, size=2)
        tgt += rng.normal(0.0, 0.05, size=tgt.shape)
        sources[p, :n] = src
        targets[p, :n] = tgt
        valid[p, :n] = True
    return sources, targets, valid
