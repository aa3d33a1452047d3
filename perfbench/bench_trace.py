"""Outside-in layer tracing for the traced benchmark run.

The program is not changed: :func:`installed` wraps the public
functions of each layer's module with timing spans (name, start, end,
parent) and rebinds every module-level name in ``repro`` that refers to
the original function, because a module that did ``from x import f`` at
import time looks ``f`` up in its own namespace.  Wrapping only the
defining module would miss those calls.  Methods are wrapped on their
class.  Layer self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from bench_stats import self_time_by_name

#: ``(module, target, span name)``.  A target is a function name, a
#: ``Class.method``, or ``"*"`` for every other public function the
#: module defines.  Explicit targets take precedence over ``"*"``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.scenarios.trial", "scenario_trial", "trial"),
    ("repro.engine.campaign", "run_monte_carlo", "engine.campaign"),
    ("repro.deploy.anchors", "*", "deploy"),
    ("repro.deploy.grid", "*", "deploy"),
    ("repro.deploy.random_layout", "*", "deploy"),
    ("repro.acoustics.environment", "*", "ranging.acoustics"),
    ("repro.ranging.synthetic", "*", "ranging.synthetic"),
    ("repro.ranging.campaign", "run_campaign", "ranging.campaign"),
    ("repro.ranging.service", "RangingService.measure", "ranging.measure"),
    ("repro.ranging.service", "RangingService.calibrate", "ranging.calibrate"),
    ("repro.ranging.consistency", "*", "ranging.filter"),
    ("repro.ranging.filtering", "*", "ranging.filter"),
    ("repro.core.multilateration", "*", "core.multilateration"),
    ("repro.core.lss", "*", "core.lss"),
    ("repro.core.distributed", "build_local_maps", "core.distributed.local_maps"),
    ("repro.core.distributed", "*", "core.distributed.alignment"),
    ("repro.core.mds", "*", "core.mds"),
    ("repro.core.transforms", "*", "core.transforms"),
    ("repro.core.evaluation", "*", "core.evaluation"),
    ("repro.engine.batch", "batch_gradient_descent", "engine.batch.gd"),
    ("repro.engine.batch", "batch_lss_descend", "engine.batch.lss"),
    ("repro.engine.batch", "batch_lss_error", "engine.batch.lss"),
    ("repro.engine.batch", "batch_lss_gradient", "engine.batch.lss"),
    ("repro.engine.batch", "batch_lss_descend_padded", "engine.batch.lss_padded"),
    ("repro.engine.batch", "batch_lss_error_padded", "engine.batch.lss_padded"),
    ("repro.engine.batch", "batch_lss_gradient_padded", "engine.batch.lss_padded"),
    ("repro.engine.batch", "*", "engine.batch"),
    ("repro.engine.localmaps", "solve_local_lss_stack", "engine.localmaps"),
    ("repro.store.result_store", "ResultStore.get", "store.get"),
    ("repro.store.result_store", "ResultStore.put", "store.put"),
    ("repro.store.result_store", "encode_payload", "store.encode"),
    ("repro.store.result_store", "decode_payload", "store.decode"),
    ("repro.store.serialization", "*", "store.serialization"),
)

class Tracer:
    """In-memory span recorder for one thread.

    ``spans`` holds ``[name, start, end, parent]`` lists; ``obs`` holds
    per-layer sums that the hooks derive from call arguments and results.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.obs: Dict[str, float] = {}
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.obs[key] = self.obs.get(key, 0.0) + float(value)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


# -- hooks: per-layer quantities read from arguments and results -----------


def _hook_localmaps(tracer: Tracer, args, kwargs, result) -> None:
    problems = args[0] if args else kwargs["problems"]
    sizes = [len(problem.edges) for problem in problems]
    if sizes:
        tracer.add("pad_real", sum(sizes))
        tracer.add("pad_slots", len(sizes) * max(sizes))


def lss_bytes_per_epoch(n_configs: int, n_nodes: int, n_edges: int, n_constraints: int) -> int:
    """Computed float64 bytes one shared-edge LSS epoch moves.

    Per configuration: the objective pass gathers both endpoints of
    every edge and constraint pair (4 values), the gradient pass gathers
    them again and scatters into both endpoints (8 values), each edge
    also reads its distance and weight in both passes (4 values), and
    the update reads positions and gradient and writes positions
    (6 values per node).  Cache effects are ignored.
    """
    pair_slots = n_edges + n_constraints
    values = 12 * pair_slots + 4 * n_edges + 6 * n_nodes
    return 8 * n_configs * values


def _hook_lss_descend(tracer: Tracer, args, kwargs, result) -> None:
    configs = args[0] if args else kwargs["configs"]
    edges = args[1] if len(args) > 1 else kwargs["edges"]
    constraints = args[2] if len(args) > 2 else kwargs.get("constraint_pairs")
    n_configs, n_nodes = configs.shape[0], configs.shape[1]
    n_constraints = 0 if constraints is None else len(constraints)
    tracer.add("lss_bytes", lss_bytes_per_epoch(n_configs, n_nodes, len(edges), n_constraints))
    tracer.add("lss_descend_calls", 1)


def _hook_triangle_filter(tracer: Tracer, args, kwargs, result) -> None:
    measurements = args[0] if args else kwargs["measurements"]
    tracer.add("raw_measurements", len(measurements))


def _hook_weighted_edges(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("kept_edges", len(result))


def _hook_localize_network(tracer: Tracer, args, kwargs, result) -> None:
    non_anchor = ~result.is_anchor
    tracer.add("multilat_localized", int((result.localized & non_anchor).sum()))
    tracer.add("multilat_targets", int(non_anchor.sum()))


def _hook_encode(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("encoded_bytes", len(result))


HOOKS: Dict[Tuple[str, str], Callable] = {
    ("repro.engine.localmaps", "solve_local_lss_stack"): _hook_localmaps,
    ("repro.engine.batch", "batch_lss_descend"): _hook_lss_descend,
    ("repro.ranging.consistency", "triangle_filter"): _hook_triangle_filter,
    ("repro.ranging.filtering", "confidence_weighted_edges"): _hook_weighted_edges,
    ("repro.core.multilateration", "localize_network"): _hook_localize_network,
    ("repro.store.result_store", "encode_payload"): _hook_encode,
}


def _wrap(fn, name: str, tracer: Tracer, hook: Optional[Callable]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def _targets() -> Iterator[Tuple[str, str, Callable, str]]:
    """Resolve :data:`TARGETS` to ``(module, qualname, function, span)``."""
    explicit = {(module, target) for module, target, _ in TARGETS if target != "*"}
    for module_name, target, span in TARGETS:
        module = importlib.import_module(module_name)
        if target != "*":
            owner = module
            for part in target.split("."):
                owner = getattr(owner, part)
            yield module_name, target, owner, span
            continue
        for attr, value in sorted(vars(module).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module_name
                and (module_name, attr) not in explicit
            ):
                yield module_name, attr, value, span


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer target for the duration of the block."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for module_name, qualname, fn, span in _targets():
            wrapper = _wrap(fn, span, tracer, HOOKS.get((module_name, qualname)))
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(sys.modules[module_name], cls_name)
                undo.append((cls, method, fn))
                setattr(cls, method, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def span_calls(tracer: Tracer) -> Dict[str, int]:
    """Number of spans recorded per name."""
    calls: Dict[str, int] = {}
    for span in tracer.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    return calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, counters: Dict[str, float], untraced_trial_s: List[float], names: List[str]
) -> Dict[str, float]:
    """Per-layer metrics from one traced run.

    *names* are the benchmark's per-layer metric names; those ending in
    ``.self_s`` or ``.calls`` are read off the spans of that name, and a
    layer that never ran on this workload reads 0.  The tracing overhead
    compares median trial wall times, traced against *untraced_trial_s*,
    so one slow stretch of a shared machine does not decide it.  The
    setup and accuracy entries are left to the caller.
    """
    own = self_time_by_name(tracer.spans)
    calls = span_calls(tracer)
    obs = tracer.obs

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    def p50_ms(name: str) -> float:
        durations = tracer.durations(name)
        return median(durations) * 1000.0 if durations else 0.0

    hits = sum(v for k, v in counters.items() if k.startswith("store.") and k.endswith(".hit"))
    misses = sum(v for k, v in counters.items() if k.startswith("store.") and k.endswith(".miss"))
    trial_wall = sum(tracer.durations("trial"))
    out = {
        "engine.batch.lss_padded.epochs": counter("engine.batch.lss_padded_iterations"),
        "engine.batch.lss_padded.compactions": counter("engine.batch.lss_padded_compactions"),
        "engine.localmaps.problems": counter("engine.localmaps.problems"),
        "engine.localmaps.pad_efficiency": _ratio(obs.get("pad_real", 0), obs.get("pad_slots", 0)),
        "engine.batch.lss.epochs": counter("engine.batch.lss_iterations"),
        "engine.batch.lss.bytes_per_epoch": _ratio(obs.get("lss_bytes", 0), obs.get("lss_descend_calls", 0)),
        "ranging.edges_kept_frac": _ratio(obs.get("kept_edges", 0), obs.get("raw_measurements", 0)),
        "engine.batch.gd.iterations": counter("engine.batch.gd_iterations"),
        "core.multilateration.localized_frac": _ratio(
            obs.get("multilat_localized", 0), obs.get("multilat_targets", 0)
        ),
        "store.put.ms_p50": p50_ms("store.put"),
        "store.put.bytes": obs.get("encoded_bytes", 0.0),
        "store.get.ms_p50": p50_ms("store.get"),
        "store.hit_frac": _ratio(hits, hits + misses),
        "bench.trace_overhead_frac": median(tracer.durations("trial")) / median(untraced_trial_s) - 1.0,
        "bench.unattributed_frac": _ratio(own.get("trial", 0.0), trial_wall),
    }
    for name in names:
        if name in out:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = own.get(layer, 0.0)
        elif kind == "calls":
            out[name] = float(calls.get(layer, 0))
    return out
