"""Campaign benchmark: one workload, untraced or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload distributed-lss --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every output check passed, 1 when one failed, and
2 when the benchmark could not run at all.

Each run uses fresh interpreters (so ``setup_s`` is real and module
caches start cold), a throwaway result store under ``.perfbench_tmp``
in the checkout, an environment without ``REPRO_TRACE`` or
``REPRO_ARRAY_BACKEND``, and one BLAS thread per process.  Timings are
scaled to the reference host speed (``host_speed.py``).  See
``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from host_speed import probe, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("distributed-lss", "centralized-lss", "acoustic-ranging", "multilateration-sweep")

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Seconds any one child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 160


def child_env(tmp: Path) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_TRACE", "REPRO_ARRAY_BACKEND", "PYTHONPATH")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    # Two sweep workers on two cores must not each start a BLAS pool.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["REPRO_STORE_DIR"] = str(tmp / "default-store")
    return env


def measure_command(*args: str) -> list:
    return [sys.executable, str(HERE / "measure.py"), *args]


def time_setup(workload: str, env: dict) -> dict:
    """One fresh interpreter: seconds from launch until imports are done
    and the workload's specs are resolved, plus the child's own split.

    The launch-to-ready time is scaled by host-speed probes taken just
    before the launch and after the child has exited.
    """
    before = probe()
    start = time.perf_counter()
    proc = subprocess.Popen(
        measure_command("--workload", workload, "--setup-only"),
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    split = json.loads(line)
    split["setup_s"] = setup_s * scale(before, probe())
    return split


def run_measure(args, tmp: Path, env: dict) -> dict:
    """The measuring child: echo its report lines, return its JSON result."""
    proc = subprocess.run(
        measure_command(
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--tmp", str(tmp),
        ),
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Campaign benchmark (see README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        env = child_env(tmp)
        setups = [time_setup(args.workload, env) for _ in range(SETUP_SAMPLES)]
        result = run_measure(args, tmp, env)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace:
        metrics["setup.import_s"] = median([s["import_s"] for s in setups])
        metrics["setup.warmup_s"] = median([s["warmup_s"] for s in setups])
    else:
        metrics["setup_s"] = median([s["setup_s"] for s in setups])
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = units["per_layer"] if args.trace else units["end_to_end"]
    result["metrics"] = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in table
    }
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
