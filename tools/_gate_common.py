"""Shared plumbing for the CI gate scripts in this directory.

The gates (`check_shard_roundtrip.py`, `check_store_sync.py`,
`check_trace_schema.py`) drive the real CLI as subprocesses; the
invoke-and-exit-on-failure and golden-entry-lookup logic lives here
once so the gates cannot silently diverge.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import List, Optional


def run_cli(args: List[str], store: Optional[Path] = None) -> None:
    """Run ``python -m repro <args>`` (appending ``--store`` when given);
    exits the gate with the command's output on any failure."""
    run_cli_output(args, store)


def run_cli_output(args: List[str], store: Optional[Path] = None) -> str:
    """Like :func:`run_cli`, but returns the command's stdout so gates
    can assert on what the CLI printed (``check_trace_schema.py``)."""
    command = [sys.executable, "-m", "repro", *args]
    if store is not None:
        command += ["--store", str(store)]
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(
            f"command failed ({result.returncode}): {' '.join(command)}\n"
            f"{result.stdout}{result.stderr}"
        )
    return result.stdout


def canonical_key(result_store, scenario_id: str, seed: int, trials: int) -> str:
    """The store key of a fixed-count campaign's canonical entry."""
    from repro.scenarios import get_scenario, scenario_run_key

    return result_store.key_for(
        scenario_run_key(get_scenario(scenario_id), master_seed=seed, n_trials=trials)
    )


def entry_bytes(store: Path, scenario_id: str, seed: int, trials: int) -> bytes:
    """The canonical campaign entry's stored bytes (any backend), or a
    gate failure when the entry is missing."""
    from repro.store import ResultStore

    result_store = ResultStore(store)
    data = result_store.get_bytes(canonical_key(result_store, scenario_id, seed, trials))
    if data is None:
        sys.exit(f"no canonical campaign entry for {scenario_id} in {store}")
    return data
