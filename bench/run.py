"""Benchmark entry point.

    python3 bench/run.py --workload dense_exec --seed 1 --seconds 50 --trace 0

Each run starts a fresh worker process (``bench/worker.py``) with the BLAS
and OpenMP thread variables set to 1, so the pipeline runs on one thread.
With ``--trace 0`` the set-up is also timed in two more fresh processes and
``setup_s`` is the median of the three. Before the result the launcher prints
one ``env`` line: core count, Python, numpy and scipy versions, and the load
average before and after the run. The last line is the result as JSON.

``--workload all`` runs every workload in turn, prints one result line per
workload and exits non-zero if any of them failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("dense_exec", "cluttered", "fuzz_small")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_PROBES = 2
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    def __init__(self, code: int, result=None):
        super().__init__(f"worker exited with code {code}")
        self.code = code
        self.result = result


def run_worker(args: list[str], timeout: float) -> dict:
    """Run the worker to completion; its last stdout line is its result."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {timeout:.0f} s", file=sys.stderr)
        raise WorkerFailed(3) from None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None:
        raise WorkerFailed(proc.returncode or 2, result)
    return result


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def environment(load_before) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    load_before = list(os.getloadavg())
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker([*common, "--setup-only"], DEADLINE_S)["setup_s"])
    remaining = DEADLINE_S - (time.monotonic() - started)
    result = run_worker([*common, "--trace", str(trace)], remaining)
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps({"env": environment(load_before), "setup_samples_s": setups}))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="swapmotion benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        try:
            result = run_one(name, args.seed, args.seconds, args.trace)
        except WorkerFailed as e:
            code = max(code, e.code)
            if e.result is None:
                continue
            result = e.result
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
