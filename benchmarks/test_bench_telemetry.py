"""Benchmarks the disabled-telemetry overhead ceiling.

Instrumentation stays in the hot paths permanently (design rule 1 of
``repro/telemetry``), so the null-recorder path must be near-free: the
projected cost of every instrumentation call a Fig. 16 run makes —
measured null-path per-call cost × the run's actual call count — must
stay under 5% of the run's wall time.  Run with ``pytest
benchmarks/test_bench_telemetry.py -s`` to see the measured margin.
"""

import time

from repro import telemetry
from repro.experiments import DEFAULT_SEED, get_experiment

from _timing import best_of, quiet_machine_only

#: The acceptance ceiling: projected instrumentation overhead as a
#: fraction of the uninstrumented Fig. 16 wall time.
OVERHEAD_CEILING = 0.05


def _null_path_cost_per_call(iterations=200_000):
    """Measured cost of one module-level helper call against the null
    recorder — the exact shape instrumented hot paths use."""
    assert not telemetry.enabled()
    count = telemetry.count
    span = telemetry.span
    start = time.perf_counter()
    for _ in range(iterations):
        count("bench.noop", 1)
    counter_cost = (time.perf_counter() - start) / iterations
    start = time.perf_counter()
    for _ in range(iterations):
        with span("bench.noop"):
            pass
    span_cost = (time.perf_counter() - start) / iterations
    # Spans are the pricier shape (two protocol calls); charge every
    # instrumentation site at the worse rate to keep the bound honest.
    return max(counter_cost, span_cost)


@quiet_machine_only
def test_disabled_telemetry_overhead_on_fig16():
    driver = get_experiment("fig16")

    baseline_s = best_of(lambda: driver(DEFAULT_SEED))

    # One traced run counts how many instrumentation calls the same
    # workload actually routes through the recorder.
    with telemetry.recording() as recorder:
        driver(DEFAULT_SEED)
    calls = recorder.instrumentation_calls
    assert calls > 0, "fig16 exercised no instrumented code paths"

    per_call_s = _null_path_cost_per_call()
    projected_overhead_s = per_call_s * calls
    ratio = projected_overhead_s / baseline_s

    print()
    print(
        f"fig16 baseline: {baseline_s * 1000:.1f} ms, "
        f"{calls} instrumentation calls, "
        f"null path {per_call_s * 1e9:.0f} ns/call, "
        f"projected overhead {projected_overhead_s * 1000:.3f} ms "
        f"({ratio:.2%} of baseline, ceiling {OVERHEAD_CEILING:.0%})"
    )
    assert ratio <= OVERHEAD_CEILING, (
        f"disabled-telemetry overhead projects to {ratio:.2%} of the "
        f"Fig. 16 wall time (ceiling {OVERHEAD_CEILING:.0%}); either the "
        f"null path got slower or hot loops gained per-iteration "
        f"instrumentation calls"
    )
