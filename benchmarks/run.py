"""Seeded benchmark of nedist over three workloads.

    python3 benchmarks/run.py [--workload ted_pair|knn_index|deanon|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from its ``src``.
``--seconds`` sizes the runs (see ``worker.py``) and defaults to
``run_seconds`` in the checkout's ``BENCHMARK.json``.
Each workload runs in a fresh child process (see ``worker.py``) with BLAS
and OpenMP capped at one thread.  The child prints a report with units, the
input fingerprint and an output digest, and as its last line a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  With ``--workload all`` a combined JSON line, metric names
prefixed by workload, comes last.

Exits non-zero without a result line when any workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("ted_pair", "knn_index", "deanon")
SINGLE_THREAD = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process; its report goes to our stdout."""
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds),
           str(trace)]
    # a run takes about ``seconds``; allow for a host several times slower
    proc = subprocess.run(cmd, env={**os.environ, **SINGLE_THREAD},
                          stdout=subprocess.PIPE, text=True, timeout=30 + 4 * seconds)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"workload {name} exited with code {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(f"{name}: {json.dumps(res)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
