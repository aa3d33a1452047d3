"""Pinned descent stacks for the ``kernels`` bench suite.

A ``kernel`` workload times one descent call on a pinned stack, so a
bench record shows the kernel's cost per epoch apart from the rest of
a trial.  Each stack is the first descent a paper workload makes:

- ``town-lss-b1`` — one trial of the registered ``town-lss`` scenario:
  centralized LSS, one configuration of 25 nodes (B=1);
- ``fig21-b3`` — fig21's town LSS: three seeded configurations of 59
  nodes with 1,400+ soft-constraint pairs each (B=3);
- ``town-distributed-lss-b49`` — the local-map stack of one
  ``town-distributed-lss`` trial: every node's neighbourhood problem,
  padded (B=49);
- ``sweep-gd`` — the multilateration descent (``batch_gradient_descent``)
  of one ``uniform-sparse-multilateration`` trial at 64 nodes, a 22 m
  radio range and 40% anchors, the multilateration sweep's largest
  cell: every non-anchor's anchor problem, padded (B=37 at seed 0).

A stack is captured by running the workload's own entry point up to its
first call of the descent kernel, so it is exactly what the pipeline
passes (including MDS starts and padding); the capture is not timed.

The capture swaps the kernel's name, for the duration of the entry
point, on the module the caller looks it up in (``KERNEL_STACKS`` names
that module).  It therefore relies on that lookup happening at call
time: every LSS restart round, centralized or local-map, calls the
kernel as a module global of ``engine.batch`` (in ``_lss_round``), and
``solve_multilateration_batch`` calls ``batch_gradient_descent`` the
same way.  A
caller that binds the kernel earlier, e.g. as a default argument, would
bypass the swap; ``capture_stack`` then raises instead of returning a
stack (``tests/test_perf.py::TestKernelStacks`` runs every capture).
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterator, Tuple

from ..errors import ValidationError

__all__ = ["KERNEL_STACKS", "capture_stack", "kernel_descent"]


class _Captured(Exception):
    """Stops the entry point once the kernel call has been recorded."""


def _scenario_trial(scenario_id: str, seed: int) -> None:
    from .._validation import ensure_rng
    from ..scenarios import get_scenario, scenario_trial

    scenario_trial(ensure_rng(seed), spec=get_scenario(scenario_id))


def _sweep_trial(seed: int) -> None:
    from .._validation import ensure_rng
    from ..scenarios import get_scenario, scenario_trial

    spec = get_scenario("uniform-sparse-multilateration").with_overrides(
        **{
            "deployment.n_nodes": 64,
            "ranging.max_range_m": 22.0,
            "anchors.fraction": 0.4,
        }
    )
    scenario_trial(ensure_rng(seed), spec=spec)


def _fig21(seed: int) -> None:
    # fig21's driver memoizes its solve; the uncached body always runs.
    from ..experiments.localization_experiments import _town_lss_impl

    _town_lss_impl(seed, True, attempts=3, restarts=30)


@contextmanager
def _swapped(module, name: str, stand_in: Callable) -> Iterator[None]:
    """Bind *name* on *module* to *stand_in* for the block."""
    original = getattr(module, name)
    setattr(module, name, stand_in)
    try:
        yield
    finally:
        setattr(module, name, original)


#: Stack id -> (entry point, module the entry point looks the kernel up
#: in, kernel name).
KERNEL_STACKS: Dict[str, Tuple[Callable[[int], None], str, str]] = {
    "town-lss-b1": (
        partial(_scenario_trial, "town-lss"),
        "repro.engine.batch",
        "batch_lss_descend",
    ),
    "fig21-b3": (_fig21, "repro.engine.batch", "batch_lss_descend"),
    "town-distributed-lss-b49": (
        partial(_scenario_trial, "town-distributed-lss"),
        "repro.engine.batch",
        "batch_lss_descend_padded",
    ),
    "sweep-gd": (_sweep_trial, "repro.engine.batch", "batch_gradient_descent"),
}


def capture_stack(target_id: str, seed: int) -> Tuple[Callable, tuple, dict]:
    """``(kernel, args, kwargs)`` of the first descent call the entry
    point of stack *target_id* makes at *seed*."""
    try:
        entry, module_name, name = KERNEL_STACKS[target_id]
    except KeyError:
        known = ", ".join(sorted(KERNEL_STACKS))
        raise ValidationError(
            f"unknown kernel stack {target_id!r}; known stacks: {known}"
        ) from None
    module = importlib.import_module(module_name)
    kernel = getattr(module, name)
    captured = {}

    def record(*args, **kwargs):
        captured.update(args=args, kwargs=kwargs)
        raise _Captured

    with _swapped(module, name, record):
        try:
            entry(seed)
        except _Captured:
            pass
    if not captured:
        raise ValidationError(f"kernel stack {target_id!r} made no {name} call")
    return kernel, captured["args"], captured["kwargs"]


def kernel_descent(target_id: str, seed: int) -> Callable[[], None]:
    """Capture stack *target_id* at *seed*; return a zero-argument
    callable that runs its descent once through the public kernel."""
    kernel, args, kwargs = capture_stack(target_id, seed)

    def descend() -> None:
        call = dict(kwargs)
        if call.get("traces") is not None:
            # Traces are appended in place: give every run fresh ones.
            call["traces"] = [[] for _ in call["traces"]]
        kernel(*args, **call)

    return descend
