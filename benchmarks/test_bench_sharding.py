"""Benchmarks cross-host campaign sharding.

The sharding layer's reason to exist: N hosts each running one shard of
a campaign should each do ~1/N of the single-host work, with the merge
step costing practically nothing (it re-reads and concatenates a few
kilobytes of compressed records).  This simulates an N-host run on one
machine — each "host" executes its shard serially against a shared
store — and asserts near-linear scaling of the per-host wall clock plus
the byte-identity of the merged entry.  Run with ``pytest
benchmarks/test_bench_sharding.py -s`` to see the measured split.
"""

import time

from repro.engine.sharding import ShardSpec
from repro.scenarios import (
    get_scenario,
    run_scenario,
    run_scenario_shard,
    scenario_run_key,
)
from repro.store import ResultStore

from _timing import quiet_machine_only

N_SHARDS = 3
N_TRIALS = 24
#: Interleaved repeats: each times the single-host run and then every
#: shard, on fresh stores, and the best time of each side is compared.
REPEATS = 2

#: Per-host speedup floor for the N-way split.  Perfect scaling is N x;
#: trial costs vary by deployment draw, so the slowest shard legally
#: carries somewhat more than 1/N of the work.
SPEEDUP_FLOOR = N_SHARDS / 1.6


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@quiet_machine_only
def test_shard_scaling_near_linear(tmp_path):
    spec = get_scenario("town-multilateration")
    key_parts = scenario_run_key(spec, master_seed=0, n_trials=N_TRIALS)
    single_times = []
    shard_times = [[] for _ in range(N_SHARDS)]
    for repeat in range(REPEATS):
        single_store = ResultStore(tmp_path / f"single-{repeat}", code_version="bench")
        shard_store = ResultStore(tmp_path / f"sharded-{repeat}", code_version="bench")
        full, seconds = _timed(
            lambda: run_scenario(spec, master_seed=0, n_trials=N_TRIALS, store=single_store)
        )
        single_times.append(seconds)
        merged = None
        for k in range(N_SHARDS):
            (_, merged), seconds = _timed(
                lambda: run_scenario_shard(
                    spec,
                    ShardSpec(index=k, n_shards=N_SHARDS),
                    master_seed=0,
                    n_trials=N_TRIALS,
                    store=shard_store,
                )
            )
            shard_times[k].append(seconds)

        assert merged is not None
        assert merged.records == full.records
        key = shard_store.key_for(key_parts)
        assert (
            shard_store.path_for(key).read_bytes()
            == single_store.path_for(key).read_bytes()
        )

    # A simulated multi-host run's wall clock is its slowest host (the
    # last shard also pays the auto-merge, which must stay negligible).
    single_s = min(single_times)
    best_shards = [min(times) for times in shard_times]
    slowest_s = max(best_shards)
    speedup = single_s / slowest_s
    print(
        f"\nsharding (best of {REPEATS}): single-host {single_s * 1e3:.0f} ms; "
        f"{N_SHARDS} shards "
        f"{', '.join(f'{t * 1e3:.0f}' for t in best_shards)} ms; "
        f"slowest-host speedup {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR:.2f}x, perfect {N_SHARDS}x)"
    )
    assert speedup >= SPEEDUP_FLOOR
