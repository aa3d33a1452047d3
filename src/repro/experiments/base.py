"""Experiment driver infrastructure.

Every figure (and quantitative in-text claim) of the paper has a driver
function returning an :class:`ExperimentResult`: the paper's reported
numbers, our measured numbers, and a list of *shape checks* — the
qualitative assertions that constitute successful reproduction (who
wins, by roughly what factor, where the transitions are).  Benchmarks
print the paper-vs-measured table; tests assert the checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

__all__ = ["ShapeCheck", "ExperimentResult", "register", "get_experiment", "all_experiments"]


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative reproduction criterion.

    Attributes
    ----------
    name : str
        What is being checked (e.g. "constraint beats no-constraint by
        >= 3x").
    passed : bool
        Whether the criterion held in this run.
    detail : str
        Human-readable evidence.
    """

    name: str
    passed: bool
    detail: str = ""


@dataclass
class ExperimentResult:
    """Outcome of one experiment driver.

    Attributes
    ----------
    experiment_id : str
        Figure/claim identifier ("fig18", "text-range", ...).
    title : str
        One-line description.
    paper : dict
        Metric name -> the paper's reported value (float or str).
    measured : dict
        Metric name -> our measured value.
    checks : list of ShapeCheck
        The reproduction criteria.
    extras : dict
        Auxiliary arrays (histograms, traces, scatters) for examples
        and plots; excluded from the summary table.
    """

    experiment_id: str
    title: str
    paper: Dict[str, Any] = field(default_factory=dict)
    measured: Dict[str, Any] = field(default_factory=dict)
    checks: List[ShapeCheck] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        """True when every shape check held."""
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        """Multi-line paper-vs-measured report."""
        lines = [f"[{self.experiment_id}] {self.title}"]
        keys = sorted(set(self.paper) | set(self.measured))
        for key in keys:
            paper_v = self.paper.get(key, "-")
            ours_v = self.measured.get(key, "-")
            paper_s = f"{paper_v:.3f}" if isinstance(paper_v, float) else str(paper_v)
            ours_s = f"{ours_v:.3f}" if isinstance(ours_v, float) else str(ours_v)
            lines.append(f"  {key:<42s} paper={paper_s:<12s} measured={ours_s}")
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            lines.append(f"  [{status}] {check.name}{detail}")
        return "\n".join(lines)


_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator adding a driver to the experiment registry."""

    def decorator(fn):
        _REGISTRY[experiment_id] = fn
        fn.experiment_id = experiment_id
        return fn

    return decorator


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up a driver by id; raises KeyError with the known ids."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_experiments() -> Dict[str, Callable[..., ExperimentResult]]:
    """The full id -> driver registry (copy)."""
    return dict(_REGISTRY)
