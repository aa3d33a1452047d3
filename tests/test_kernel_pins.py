"""Golden SHA-256 pins of every public batched kernel's output bytes.

Each kernel runs on the seeded fixture stacks in
``tests/_kernel_fixtures.py`` and its outputs are hashed; any drift in a
kernel, however small, fails here.  A deliberate numeric change re-pins
these literals and says why.  The batched transform minimizer is pinned
too, and also checked against the scalar Nelder-Mead path it replaces.
"""

import numpy as np
import pytest

from _kernel_fixtures import (
    local_lss_config,
    local_map_stack,
    multilateration_problems,
    padded_problem_stack,
    shared_edge_problem,
    sha256_bytes,
    transform_stacks,
)
from repro.core.measurements import EdgeList
from repro.core.transforms import (
    estimate_transform_minimize,
    estimate_transforms_closed_form_batch,
    estimate_transforms_minimize_batch,
)
from repro.engine import (
    batch_lss_descend,
    batch_lss_descend_padded,
    batch_lss_error,
    batch_lss_error_padded,
    batch_lss_gradient,
    batch_lss_gradient_padded,
    solve_local_lss_stack,
    solve_multilateration_batch,
)
from repro.engine.localmaps import LocalLssProblem

#: The shared-edge ``batch_lss_error``/``batch_lss_descend`` pins (a B=5
#: stack) hold the scalar oracle's bytes: the objective is summed per
#: configuration in ``lss_error``'s pairwise order.
GOLDEN_PINS = {
    "solve_multilateration_batch": "dc6ac928c2665b073a5cbcbda3b3669bff8aa0d83acaf9c4e98b2b20cb179410",
    "batch_lss_error": "3137e75df6a302fe3cc34bc60ddb19560351928386e010badbcb33e245031ccb",
    "batch_lss_gradient": "5a59e8d691bcaa653d5778752a1334903f10c39ba88a808428db28986cb08af8",
    "batch_lss_descend": "023c59a1a3cadd01b83a8de4a55dbc8ce33dc13915ec0fc9ca3cc7e8f75490ca",
    "batch_lss_error_padded": "64911a43bd5f65ff91b76b64a33d46faa5fa0384a66d6514e047f18c93ae1dd6",
    "batch_lss_gradient_padded": "69df36262dc245c209a3cb583c8ecd808e85b80b396be6b22b7fe698da2fc027",
    "batch_lss_descend_padded": "2217390fc11f4d46e35c0086ae817c108ce1312f8791733e55794ecff1e8156c",
    "solve_local_lss_stack": "a9fdead66118b355d4043e8287bf8feb62c90ae06c6c2c31ba6c199f348451d1",
    "estimate_transforms_closed_form_batch": "0fa251e18f70e9d6de1c7a0da5dd1e666cec96266586c0c436005c23a49eb6e5",
}


class TestGoldenPins:
    def test_multilateration_pin(self):
        anchors, dists, weights = multilateration_problems()
        pos, solved, residuals = solve_multilateration_batch(anchors, dists, weights)
        assert (
            sha256_bytes(pos, solved, residuals)
            == GOLDEN_PINS["solve_multilateration_batch"]
        )

    def test_shared_edge_pins(self):
        edges, configs, free_mask = shared_edge_problem()
        error = batch_lss_error(configs, edges)
        grad = batch_lss_gradient(configs, edges)
        pts, err, conv = batch_lss_descend(
            configs,
            edges,
            None,
            min_spacing_m=None,
            constraint_weight=10.0,
            step_size=0.02,
            max_epochs=200,
            tolerance=1e-7,
            free_mask=free_mask,
        )
        assert sha256_bytes(error) == GOLDEN_PINS["batch_lss_error"]
        assert sha256_bytes(grad) == GOLDEN_PINS["batch_lss_gradient"]
        assert sha256_bytes(pts, err, conv) == GOLDEN_PINS["batch_lss_descend"]

    def test_padded_pins(self):
        problem = padded_problem_stack()
        stacks = (problem["configs"], problem["pairs"], problem["dists"], problem["weights"])
        kwargs = dict(
            constraint_pairs=problem["constraint_pairs"],
            constraint_valid=problem["constraint_valid"],
            min_spacing_m=problem["min_spacing_m"],
        )
        error = batch_lss_error_padded(*stacks, **kwargs)
        grad = batch_lss_gradient_padded(*stacks, **kwargs)
        pts, err, conv = batch_lss_descend_padded(
            *stacks, step_size=0.02, max_epochs=200, tolerance=1e-7, **kwargs
        )
        assert sha256_bytes(error) == GOLDEN_PINS["batch_lss_error_padded"]
        assert sha256_bytes(grad) == GOLDEN_PINS["batch_lss_gradient_padded"]
        assert sha256_bytes(pts, err, conv) == GOLDEN_PINS["batch_lss_descend_padded"]

    def test_localmaps_pin(self):
        problems = [
            LocalLssProblem(
                n_nodes=p["n_nodes"],
                edges=EdgeList(
                    pairs=p["pairs"], distances=p["distances"], weights=p["weights"]
                ),
                initial=p["initial"],
            )
            for p in local_map_stack()
        ]
        solutions = solve_local_lss_stack(
            problems, config=local_lss_config(), rng=np.random.default_rng(7)
        )
        digest = sha256_bytes(
            np.concatenate([s.positions.ravel() for s in solutions]),
            np.array([s.error for s in solutions]),
            np.array([s.stress for s in solutions]),
            np.array([s.converged for s in solutions]),
        )
        assert digest == GOLDEN_PINS["solve_local_lss_stack"]

    def test_transforms_pin(self):
        sources, targets, valid = transform_stacks()
        estimates = estimate_transforms_closed_form_batch(sources, targets, valid)
        digest = sha256_bytes(
            np.stack([e.matrix for e in estimates]),
            np.array([e.error for e in estimates]),
        )
        assert digest == GOLDEN_PINS["estimate_transforms_closed_form_batch"]


#: ``estimate_transforms_minimize_batch`` on the transform fixture stacks,
#: keyed by ``newton_steps``: 0 is the analytic seed alone, 3 the default
#: polish (one step already reaches the fixed point on these stacks).
MINIMIZE_BATCH_PINS = {
    0: "49127683a133ac7962b8afdf6dc873f3fb998bf1ad57ae9aa288e994ca7c131c",
    3: "48ab2c3d1f08604e1226ff3e9c3bddbe554dcd8594e08409e5aecdea74e1f4f8",
}


@pytest.mark.parametrize("newton_steps", sorted(MINIMIZE_BATCH_PINS))
def test_minimize_batch_pin(newton_steps):
    sources, targets, valid = transform_stacks()
    estimates = estimate_transforms_minimize_batch(
        sources, targets, valid, newton_steps=newton_steps
    )
    digest = sha256_bytes(
        np.stack([e.matrix for e in estimates]),
        np.array([e.error for e in estimates]),
    )
    assert digest == MINIMIZE_BATCH_PINS[newton_steps]


class TestMinimizeBatchMatchesScalar:
    """The batched analytic-argmin minimizer must agree with the scalar
    Nelder-Mead path it replaces (the per-pair ``scipy.optimize`` call)."""

    def test_against_scalar_minimize(self):
        sources, targets, valid = transform_stacks()
        batch = estimate_transforms_minimize_batch(sources, targets, valid)
        for p, est in enumerate(batch):
            pts = valid[p]
            scalar = estimate_transform_minimize(sources[p][pts], targets[p][pts])
            assert est.error == pytest.approx(scalar.error, rel=1e-7, abs=1e-9)
            if int(pts.sum()) >= 3:
                np.testing.assert_allclose(est.matrix, scalar.matrix, atol=1e-6)
