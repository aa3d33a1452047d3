"""Registered benchmark suites: named sets of workloads to time.

A :class:`Workload` names one unit the harness knows how to execute —
a scenario campaign (through :func:`repro.scenarios.run_scenario`,
store-isolated), an experiment driver (through
:func:`repro.experiments.get_experiment`) or one LSS descent on a
pinned kernel stack (:mod:`repro.perf.kernels`) — with the seed and
trial budget pinned so every run of the suite does the same work.

Four suites ship by default:

- ``smoke`` — seconds-scale, one workload per solver family plus one
  figure driver; the CI perf gate (``tools/check_perf.py``) runs it on
  every push.
- ``full`` — the smoke workloads at larger trial budgets plus the
  remaining solver families and the signal-level acoustic ranging
  campaign; for local before/after comparisons.
- ``kernels`` — one descent per pinned stack (LSS at B=1, 3 and 49, and
  the multilateration descent of a sweep trial), timed per epoch
  (``us_per_epoch``); shows where the kernel's cost moved without the
  rest of a trial around it.
- ``paper`` — every registered experiment driver (each paper figure,
  in-text claim and extension claim) at ``DEFAULT_SEED``, one workload
  per registry id.

:func:`register_suite` is the extension point (mirrors
``scenarios/registry.py``); suite names share the bench-label alphabet
since ``repro bench run`` defaults the record label to the suite name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ValidationError
from ..experiments import DEFAULT_SEED, all_experiments
from .record import _LABEL_RE

__all__ = ["Workload", "register_suite", "get_suite"]

_WORKLOAD_KINDS = ("scenario", "experiment", "kernel")


@dataclass(frozen=True)
class Workload:
    """One benchmarkable unit with its execution parameters pinned.

    ``workload_id`` is the stable identity bench records key results on
    (regression checks match baseline to current by it); ``target_id``
    is the scenario or experiment registry id, or the kernel stack id,
    to execute.  ``n_trials`` applies to scenario campaigns only
    (experiments own their budgets, a kernel runs one descent).
    """

    workload_id: str
    kind: str
    target_id: str
    seed: int = 0
    n_trials: int = 0

    def __post_init__(self):
        if self.kind not in _WORKLOAD_KINDS:
            raise ValidationError(
                f"workload kind must be one of {_WORKLOAD_KINDS}; "
                f"got {self.kind!r}"
            )
        if self.kind == "scenario" and self.n_trials < 1:
            raise ValidationError(
                f"scenario workload {self.workload_id!r} needs n_trials >= 1"
            )
        if self.kind == "kernel":
            from .kernels import KERNEL_STACKS

            if self.target_id not in KERNEL_STACKS:
                raise ValidationError(
                    f"kernel workload {self.workload_id!r}: unknown stack "
                    f"{self.target_id!r}; known stacks: {', '.join(sorted(KERNEL_STACKS))}"
                )


_SUITES: Dict[str, Tuple[Workload, ...]] = {}


def register_suite(name: str, workloads: Tuple[Workload, ...]) -> None:
    """Register a named suite; duplicate names and ids are rejected."""
    if not _LABEL_RE.match(name):
        raise ValidationError(
            f"suite name must match {_LABEL_RE.pattern} (it becomes the "
            f"default bench label); got {name!r}"
        )
    if name in _SUITES:
        raise ValidationError(f"suite {name!r} is already registered")
    if not workloads:
        raise ValidationError(f"suite {name!r} must contain workloads")
    ids = [w.workload_id for w in workloads]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"suite {name!r} has duplicate workload ids")
    _SUITES[name] = tuple(workloads)


def get_suite(name: str) -> Tuple[Workload, ...]:
    """Look up a registered suite, naming the alternatives on a miss."""
    try:
        return _SUITES[name]
    except KeyError:
        known = ", ".join(sorted(_SUITES))
        raise ValidationError(
            f"unknown bench suite {name!r}; registered suites: {known}"
        ) from None


# -- shipped suites ------------------------------------------------------
# Budgets are sized so `smoke` finishes in a few seconds per repeat
# (it runs in CI on every push) while still touching each solver
# family: plain multilateration, centralized LSS via the town layout,
# the batched distributed-LSS pipeline, and one figure driver.

register_suite(
    "smoke",
    (
        Workload(
            workload_id="uniform-multilateration-8",
            kind="scenario",
            target_id="uniform-multilateration",
            n_trials=8,
        ),
        Workload(
            workload_id="town-multilateration-4",
            kind="scenario",
            target_id="town-multilateration",
            n_trials=4,
        ),
        Workload(
            workload_id="town-lss-2",
            kind="scenario",
            target_id="town-lss",
            n_trials=2,
        ),
        Workload(
            workload_id="town-distributed-lss-2",
            kind="scenario",
            target_id="town-distributed-lss",
            n_trials=2,
        ),
        Workload(
            workload_id="fig12-multilateration",
            kind="experiment",
            target_id="fig12",
            seed=2005,
        ),
    ),
)

register_suite(
    "full",
    (
        Workload(
            workload_id="uniform-multilateration-32",
            kind="scenario",
            target_id="uniform-multilateration",
            n_trials=32,
        ),
        Workload(
            workload_id="town-multilateration-16",
            kind="scenario",
            target_id="town-multilateration",
            n_trials=16,
        ),
        Workload(
            workload_id="town-lss-8",
            kind="scenario",
            target_id="town-lss",
            n_trials=8,
        ),
        Workload(
            workload_id="town-distributed-lss-4",
            kind="scenario",
            target_id="town-distributed-lss",
            n_trials=4,
        ),
        Workload(
            workload_id="uniform-dv-hop-16",
            kind="scenario",
            target_id="uniform-dv-hop",
            n_trials=16,
        ),
        Workload(
            workload_id="acoustic-grass-grid-2",
            kind="scenario",
            target_id="acoustic-grass-grid",
            n_trials=2,
        ),
        Workload(
            workload_id="fig12-multilateration",
            kind="experiment",
            target_id="fig12",
            seed=2005,
        ),
        Workload(
            workload_id="fig16-multilateration-extended",
            kind="experiment",
            target_id="fig16",
            seed=2005,
        ),
    ),
)

# One descent per pinned stack, on both sides of the LSS body's
# dense/sparse choice: B=1 stays dense, the B=3 and B=49 stacks leave
# most constraint pairs (and, at B=49, most padded slots) out.  The
# sweep-gd stack is the multilateration descent; its epochs are the
# batched loop's iterations (``engine.batch.gd_iterations``), so the
# straggler tail's cost is spread over them.
register_suite(
    "kernels",
    (
        Workload(workload_id="town-lss-b1", kind="kernel", target_id="town-lss-b1"),
        Workload(
            workload_id="fig21-b3", kind="kernel", target_id="fig21-b3", seed=2005
        ),
        Workload(
            workload_id="town-distributed-lss-b49",
            kind="kernel",
            target_id="town-distributed-lss-b49",
        ),
        Workload(workload_id="sweep-gd", kind="kernel", target_id="sweep-gd"),
    ),
)

register_suite(
    "paper",
    tuple(
        Workload(
            workload_id=experiment_id,
            kind="experiment",
            target_id=experiment_id,
            seed=DEFAULT_SEED,
        )
        for experiment_id in sorted(all_experiments())
    ),
)
