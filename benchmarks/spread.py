"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 benchmarks/spread.py [--workload W ...] [--runs 10] [--first-seed 1]
                                 [--out FILE]

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for each metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  ``--out`` writes the same figures, with the bounds from
``BENCHMARK.json`` and the machine's description, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=names, default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"seconds": spec["run_seconds"], "seeds": list(range(args.first_seed,
                                                           args.first_seed + args.runs)),
              "workloads": {}}
    for name in args.workload:
        runs = []
        for seed in report["seeds"]:
            result, lines = one_run(name, seed)
            if not result["correct"]:
                print("\n".join(lines))
                raise SystemExit(f"{name} seed {seed}: outputs failed their checks")
            runs.append(result["metrics"])
            report.setdefault("environment", next(
                (ln.split("env: ", 1)[1] for ln in lines if "env: " in ln), ""))
            counts = next((ln.split("digest: ", 1)[1].split(None, 1)[1]
                           for ln in lines if "digest: " in ln), "")
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f"  ({counts})", flush=True)
        stats = {}
        for key in runs[0]:
            stats[key] = summarize([r[key]["value"] for r in runs])
            s = stats[key]
            flag = "" if s["spread"] < bounds[key] / 3 else "  WIDE"
            print(f"  {name:10s} {key:12s} median {s['median']:10.4g}  "
                  f"q1 {s['q1']:10.4g}  q3 {s['q3']:10.4g}  spread {s['spread']:.3f}  "
                  f"bound {bounds[key]}{flag}", flush=True)
        report["workloads"][name] = stats
    if args.out:
        report["bounds"] = bounds
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
