"""repro.engine — the vectorized batch execution layer.

The paper's headline results are statistics over many randomized
localization trials, but the reference solvers in :mod:`repro.core`
work one node (multilateration) or one configuration (LSS) at a time.
This subsystem provides the batched substrate those campaigns run on:

:mod:`repro.engine.batch`
    Stacked NumPy solvers.  Multilateration problems for a whole
    refinement round are packed into padded ``(n_problems, max_anchors,
    2)`` arrays with a validity mask and minimized in one vectorized
    adaptive-gradient-descent loop; LSS objective/gradient/descent
    kernels operate on ``(n_configs, n_nodes, 2)`` stacked
    configurations, so independent restarts or seeds advance in
    lockstep.  The ``*_padded`` variants stack *heterogeneous* LSS
    problems (per-problem node counts, edge lists, and constraint sets,
    padded with exact-zero slots) for the distributed pipeline; both
    layouts run one LSS body and one descent loop.  The body evaluates
    only real edge slots and the constraint pairs of a Verlet candidate
    list (pairs within ``1.5 d_min``, rebuilt once a node has moved
    ``d_min / 4``); every term it leaves out is an exact zero, so the
    results are the bytes of evaluating every slot.  One restart driver
    runs the paper's perturbation rounds for both layouts: centralized
    LSS (a stack of one), :func:`lss_localize_multistart` (one
    configuration per seed) and the local maps below.
:mod:`repro.engine.localmaps`
    The distributed-LSS local-map solver: every node's one-hop
    neighborhood problem of a refinement round is padded into one stack
    that the shared restart driver advances through its
    perturbation-restart rounds (:func:`solve_local_lss_stack`), the
    path ``repro.core.distributed`` routes through by default.
:mod:`repro.engine.campaign`
    A seeded Monte-Carlo campaign runner: independent trials fan out
    across ``multiprocessing`` workers, each trial drawing its own
    :class:`numpy.random.Generator` from a ``SeedSequence`` child of the
    master seed, and per-metric statistics are aggregated in trial
    order so results are reproducible bit-for-bit regardless of worker
    count.
:mod:`repro.engine.scheduler`
    The adaptive sibling of the campaign runner: trial chunks stream
    through the pool and the campaign stops early once a
    confidence-interval criterion on the target metric is met, while
    committed records remain a bit-identical prefix of the same-seed
    fixed-count campaign.

Batching layout
---------------
A batch of ``B`` multilateration problems with at most ``K`` anchors
each is four arrays: ``anchors (B, K, 2)``, ``distances (B, K)``,
``weights (B, K)`` and a boolean ``valid (B, K)`` mask.  Padded slots
carry zero weight, so they contribute exactly ``0.0`` to every
objective, gradient, and centroid computation — the padded problem is
numerically identical to the unpadded one.  Solved problems are
compacted out of the working arrays, so stragglers near the iteration
cap do not drag the whole batch's per-iteration cost with them.

Scalar/batched parity contract
------------------------------
For every batched kernel the per-problem update rule, acceptance test,
and termination condition are *the same operations in the same order*
as the scalar reference.  Each reference is a private test oracle that
tests substitute for the production function, and no production path
calls it: ``solve_batch_scalar`` in ``tests/_oracles.py`` for
:func:`repro.engine.batch.solve_multilateration_batch` (the
multilateration and APS callers), the scalar LSS round there too for
the restart driver's per-round seam
``repro.engine.batch._lss_round``, and ``solve_local_maps_scalar``
there as well for ``repro.core.distributed._solve_local_maps_batched``.
The intersection consistency filter
``repro.core.multilateration.intersection_consistency_filter`` is the
reference of the batched keep mask, checked with batches of one.  Batched and
scalar runs from the same seed must therefore agree to floating-point
reduction tolerance, and unpadded LSS stacks go further: their
objective, gradient and descent add every term in the scalar order, so
``lss_localize`` and ``lss_localize_multistart`` are bytewise the
scalar oracle.  The LSS body's sparse and dense paths (chosen per
call from how many constraint pairs its candidate list leaves out) give
identical bytes.  ``tests/test_engine_batch.py`` enforces this on
fixed-seed grid, random, and sparse networks, on random stacks, and
on random APS deployments.  An exactly mirror-symmetric multilateration
problem (DV-hop on a grid can pose one) is outside the tolerance: its
start lies on the symmetry axis, and reduction error decides which way,
if at all, the descent leaves it.
The one deliberate exception is the distributed pipeline's *multi-problem* orchestration:
its batched path phases residual-trim refits after all first fits
instead of interleaving them per map, so it consumes perturbation
randomness in a different order and agrees with the scalar loop to
solver tolerance instead (``tests/test_distributed.py``).  The scalar
oracles stay in the test suite precisely to keep these contracts
testable.
"""

from .batch import (
    batch_gradient_descent,
    batch_lss_descend,
    batch_lss_descend_padded,
    batch_lss_error,
    batch_lss_error_padded,
    batch_lss_gradient,
    batch_lss_gradient_padded,
    lss_localize_multistart,
    solve_multilateration_batch,
)
from .campaign import CampaignResult, TrialRecord, run_monte_carlo
from .localmaps import LocalLssProblem, LocalLssSolution, solve_local_lss_stack
from .scheduler import (
    ConfidenceStop,
    ScheduledCampaignResult,
    resolve_chunk_size,
    run_adaptive,
)
from .sharding import (
    ShardCampaignResult,
    ShardSpec,
    merge_shards,
    plan_shards,
    run_campaign_shard,
    shard_bounds,
)

__all__ = [
    "batch_gradient_descent",
    "batch_lss_descend",
    "batch_lss_descend_padded",
    "batch_lss_error",
    "batch_lss_error_padded",
    "batch_lss_gradient",
    "batch_lss_gradient_padded",
    "lss_localize_multistart",
    "solve_multilateration_batch",
    "LocalLssProblem",
    "LocalLssSolution",
    "solve_local_lss_stack",
    "CampaignResult",
    "TrialRecord",
    "run_monte_carlo",
    "ConfidenceStop",
    "ScheduledCampaignResult",
    "resolve_chunk_size",
    "run_adaptive",
    "ShardSpec",
    "ShardCampaignResult",
    "plan_shards",
    "shard_bounds",
    "run_campaign_shard",
    "merge_shards",
]
