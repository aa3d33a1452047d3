"""Benchmarks the store backends against each other.

The SQLite backend's reason to exist: store-wide listings (`list_shards`,
`repro store ls`, the CLI shard status) are answered from the metadata
index instead of decompressing and parsing every entry, so on a
1000-entry store they must be at least 5x faster than the filesystem
full scan — while the warm-hit ``get`` path (one indexed BLOB read)
stays within 1.5x of the filesystem backend's single-file read.  Run
with ``pytest benchmarks/test_bench_store_backends.py -s`` to see the
measured ratios.
"""

from repro.engine.campaign import TrialRecord
from repro.engine.sharding import ShardCampaignResult, ShardSpec
from repro.store import ResultStore, shard_to_payload

from _timing import best_of, interleaved_best_of, quiet_machine_only

LISTING_SPEEDUP_FLOOR = 5.0
WARM_GET_RATIO_CEILING = 1.5
N_ENTRIES = 1000
N_RECORDS = 100


def _shard_payload(i):
    """A realistic campaign-shard payload (~100 trial records)."""
    result = ShardCampaignResult(
        master_seed=i,
        records=tuple(
            TrialRecord(
                index=j,
                metrics={"mean_error_m": 0.125 * j + i, "localized_fraction": 1.0},
            )
            for j in range(N_RECORDS)
        ),
        campaign_trials=N_RECORDS * 4,
        shard=ShardSpec(index=i % 4, n_shards=4),
    )
    return shard_to_payload(
        result,
        context={
            "scenario_id": f"bench-{i % 7}",
            "spec_hash": "ab" * 32,
            "code_version": "bench",
        },
    )


def _populate(store, n_entries):
    for i in range(n_entries):
        store.put(store.key_for(("bench-entry", i)), _shard_payload(i))


@quiet_machine_only
def test_sqlite_indexed_listing_speedup(tmp_path):
    fs = ResultStore(tmp_path / "fs", code_version="bench")
    sq = ResultStore(tmp_path / "store.sqlite", code_version="bench")
    _populate(fs, N_ENTRIES)
    _populate(sq, N_ENTRIES)

    fs_listing = best_of(fs.list_shards)
    sq_listing = best_of(sq.list_shards)
    assert len(fs.list_shards()) == len(sq.list_shards()) == N_ENTRIES

    # len() rides the same index (COUNT vs directory walk).
    fs_len = best_of(lambda: len(fs))
    sq_len = best_of(lambda: len(sq))

    speedup = fs_listing / sq_listing
    print(
        f"\nlist_shards over {N_ENTRIES} entries: filesystem "
        f"{fs_listing * 1e3:.1f} ms, sqlite {sq_listing * 1e3:.2f} ms "
        f"({speedup:.0f}x, floor {LISTING_SPEEDUP_FLOOR:.0f}x); "
        f"len: {fs_len * 1e3:.2f} ms vs {sq_len * 1e3:.3f} ms"
    )
    assert speedup >= LISTING_SPEEDUP_FLOOR


@quiet_machine_only
def test_sqlite_warm_get_stays_close_to_filesystem(tmp_path):
    fs = ResultStore(tmp_path / "fs", code_version="bench")
    sq = ResultStore(tmp_path / "store.sqlite", code_version="bench")
    _populate(fs, 50)
    _populate(sq, 50)
    keys = [fs.key_for(("bench-entry", i)) for i in range(50)]

    def read_all(store):
        def run():
            for key in keys:
                assert store.get(key) is not None

        return run

    fs_get, sq_get = interleaved_best_of([read_all(fs), read_all(sq)], repeats=5)
    ratio = sq_get / fs_get
    print(
        f"\nwarm get x50: filesystem {fs_get * 1e3:.2f} ms, sqlite "
        f"{sq_get * 1e3:.2f} ms (ratio {ratio:.2f}, ceiling "
        f"{WARM_GET_RATIO_CEILING:.1f}x)"
    )
    assert ratio <= WARM_GET_RATIO_CEILING
