"""Benchmarks the content-addressed result store.

The store's reason to exist: a repeated campaign must be dramatically
cheaper than a cold run, because the warm path does zero simulation
work — it re-reads a few kilobytes of compressed trial records.  Run
with ``pytest benchmarks/test_bench_store.py -s`` to see the measured
speedup.
"""

import time

from repro.scenarios import get_scenario, run_scenario
from repro.store import ResultStore

from _timing import quiet_machine_only

SPEEDUP_FLOOR = 20.0


@quiet_machine_only
def test_store_hit_speedup(tmp_path):
    store = ResultStore(tmp_path, code_version="bench")
    spec = get_scenario("town-multilateration")

    start = time.perf_counter()
    cold = run_scenario(spec, master_seed=0, store=store)
    cold_s = time.perf_counter() - start

    warm_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        warm = run_scenario(spec, master_seed=0, store=store)
        warm_s = min(warm_s, time.perf_counter() - start)

    assert warm.records == cold.records
    assert warm.aggregate() == cold.aggregate()
    speedup = cold_s / warm_s
    print(
        f"\nstore: cold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.3f} ms "
        f"({speedup:.0f}x, floor {SPEEDUP_FLOOR:.0f}x), "
        f"stats {store.stats.as_dict()}"
    )
    assert speedup >= SPEEDUP_FLOOR
