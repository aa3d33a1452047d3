#!/usr/bin/env python3
"""CI gate: a 3-shard + merge round-trip must match the single-host golden.

Drives the real CLI (``python -m repro run --shard K/N`` three times,
then ``python -m repro merge``) against a temporary store, runs the same
campaign single-host into a second temporary store, and asserts the two
canonical campaign entries are byte-identical.  The entry the last shard
auto-merged is removed before the explicit merge, so the compared bytes
are the ones ``merge`` published.  The first shard and the
single-host run use two worker processes, so the round trip crosses the
pooled trial stream in both the shard and the fixed-count runner.
Exits non-zero with a diagnostic on any mismatch.

Usage::

    PYTHONPATH=src python tools/check_shard_roundtrip.py
    PYTHONPATH=src python tools/check_shard_roundtrip.py --scenario town-multilateration --trials 9
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from _gate_common import canonical_key, entry_bytes, run_cli

from repro.store import ResultStore


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="uniform-multilateration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=6)
    parser.add_argument("--shards", type=int, default=3)
    args = parser.parse_args()

    base = ["run", args.scenario, "--seed", str(args.seed), "--trials", str(args.trials)]
    with tempfile.TemporaryDirectory() as tmp:
        sharded = Path(tmp) / "sharded"
        single = Path(tmp) / "single"
        for k in range(1, args.shards + 1):
            workers = ["--workers", "2"] if k == 1 else []
            run_cli([*base, "--shard", f"{k}/{args.shards}", *workers], sharded)
        # Auto-merge published the canonical entry with the last shard.
        # Remove it, so the bytes compared below come from the explicit
        # merge (the CI path under test) alone.
        store = ResultStore(sharded)
        if not store.invalidate(
            canonical_key(store, args.scenario, args.seed, args.trials)
        ):
            print("FAIL: the last shard published no canonical entry", file=sys.stderr)
            return 1
        run_cli(
            [
                "merge",
                args.scenario,
                "--seed",
                str(args.seed),
                "--trials",
                str(args.trials),
                "--shards",
                str(args.shards),
            ],
            sharded,
        )
        run_cli([*base, "--workers", "2"], single)
        merged = entry_bytes(sharded, args.scenario, args.seed, args.trials)
        golden = entry_bytes(single, args.scenario, args.seed, args.trials)
    if merged != golden:
        print(
            f"FAIL: {args.shards}-shard merge of {args.scenario} "
            f"(seed={args.seed}, trials={args.trials}) is not byte-identical "
            f"to the single-host entry ({len(merged)} vs {len(golden)} bytes)",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: {args.shards}-shard + merge round-trip of {args.scenario} "
        f"(seed={args.seed}, trials={args.trials}) is byte-identical to the "
        f"single-host golden ({len(golden)} bytes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
