"""Run one workload in this process and print its result.

Usage: python3 benchmarks/worker.py WORKLOAD SEED SECONDS TRACE

``run.py`` starts one of these per workload, so that peak memory and warm
caches do not leak from one workload into the next.  The last line of
standard output is the result as JSON.

Both kinds of run make a fixed number of ops, sized from SECONDS, so that
every run and every commit measures the same work for a given seed.

Untraced (TRACE=0): set up ``setup_repeats`` times in a row and report the
fastest set-up, then run the ops back to back (a closed loop, one client)
and report latency percentiles, throughput and peak memory.  The op stream
cycles through a workload's distinct ops, and an op's latency is the
fastest of its runs.  The host this was built on switches between speed
modes up to 2x apart, for stretches of a fraction of a second to minutes,
which a mean or median over all runs carries into the figures; the fastest
run of identical work does not.  ``deanon`` never repeats an op (its shared
cache changes every op's work), so its latencies are single runs.
Throughput is every op of the run over the time spent in ops, so it keeps
costs that fall on only some runs of an op, such as cyclic collections.

Traced (TRACE=1): run a quarter of those ops twice from a fresh set-up:
untraced, then with every layer hooked.  The counts repeat exactly for a
given seed and SECONDS, and the ratio of the two throughputs is
``trace.overhead``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# ops whose outputs are checked and digested: the first CHECKED of the stream
CHECKED = {"ted_pair": 32, "knn_index": 32, "deanon": 16}
# ops of an untraced run per second of SECONDS, so that a run with its
# set-ups and checks takes about SECONDS on a 2-core Xeon; at least MIN_OPS,
# so that at least ten ops lie beyond p90
OPS_PER_S = {"ted_pair": 200.0, "knn_index": 160.0, "deanon": 3.4}
MIN_OPS = 100
# peak_rss_mb is read when this many ops have completed: knn queries leave
# reference cycles that only a full collection frees, and a high-water mark
# read later depends on where the collections fall
RSS_AT_OP = {"ted_pair": 1000, "knn_index": 1000, "deanon": 60}


def op_count(name: str, seconds: float) -> int:
    return max(MIN_OPS, round(OPS_PER_S[name] * seconds))


def import_library():
    """Import nedist from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import nedist
    except ImportError as exc:
        raise SystemExit(f"cannot import nedist from {SRC}: {exc}")
    if Path(nedist.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"nedist was imported from {nedist.__file__}, not {SRC}")
    return nedist


def environment(api) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nedist": api.__version__}


def peak_rss_mb() -> float:
    """High-water resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Pass:
    """Ops of one pass over a state: latencies, failures and checked outputs.

    ``best[j]`` is the fastest run of distinct op ``j``.
    """

    def __init__(self, workload, state, checked: int):
        self.workload = workload
        self.state = state
        self.checked = checked
        self.outputs: list = []
        self.latencies: list[float] = []
        self.best: dict[int, float] = {}
        self.errors: list[str] = []
        self.ops_per_s = 0.0   # ops per second of op time, set by run_count

    def run_op(self, i: int) -> None:
        j = i % self.workload.distinct
        t0 = time.perf_counter()
        try:
            out = self.workload.op(self.state, j)
        except Exception as exc:  # an op that raises counts as failed
            out = exc
            self.errors.append(f"op {j} raised {type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        self.latencies.append(latency)
        if latency < self.best.get(j, float("inf")):
            self.best[j] = latency
        if i < self.checked:
            self.outputs.append(out)

    def run_count(self, n: int, between=None) -> None:
        """Run ops 0..n-1; ``between(i)``, if given, runs untimed after op i."""
        for i in range(n):
            self.run_op(i)
            if between is not None:
                between(i)
        self.ops_per_s = n / sum(self.latencies)

    def finish(self) -> list[str]:
        """Run any checked op the timed part did not reach, then check them all.

        Returns the failures; ops that raised are already in ``errors``.
        """
        for i in range(len(self.outputs), self.checked):
            self.run_op(i)
        failures = []
        for i, out in enumerate(self.outputs):
            if not isinstance(out, Exception):
                failures.extend(self.workload.check(self.state, i, out))
        return failures

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.outputs:
            text = ("error" if isinstance(out, Exception)
                    else self.workload.digest_item(out))
            h.update(text.encode() + b"\n")
        return h.hexdigest()[:16]


def run_untraced(workload, n_ops: int, checked: int, rss_at_op: int) -> dict:
    setups = []
    for _ in range(workload.setup_repeats):
        state = None   # release the previous state before building the next
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - t0)
    rss = []

    def between(i):
        if i + 1 == rss_at_op:
            rss.append(peak_rss_mb())

    run = Pass(workload, state, checked)
    run.run_count(n_ops, between)
    best = sorted(run.best.values())
    failures = run.finish()
    failed = len(run.errors) + len(failures)
    return {
        "attempted": n_ops, "failed": failed, "problems": run.errors + failures,
        "digest": run.digest(),
        "samples": {"ops": n_ops, "distinct_ops": len(best), "setups": len(setups),
                    "rss_at_op": min(rss_at_op, n_ops)},
        "metrics": {
            "setup_s": (min(setups), "s"),
            "op_p50_ms": (percentile(best, 0.5) * 1000, "ms"),
            "op_p90_ms": (percentile(best, 0.9) * 1000, "ms"),
            "ops_per_s": (run.ops_per_s, "1/s"),
            "peak_rss_mb": (rss[0] if rss else peak_rss_mb(), "MB"),
        },
        "error_rate": failed / n_ops,
    }


def run_traced(workload, n_ops: int, checked: int) -> dict:
    from tracer import Tracer

    plain = Pass(workload, workload.setup(), checked)
    plain.run_count(n_ops)
    plain_digest = plain.digest()
    plain_rate = plain.ops_per_s
    plain.state = None

    tracer = Tracer().install()
    try:
        state = workload.setup()
        traced = Pass(workload, state, checked)
        traced.run_count(n_ops)
    finally:
        tracer.uninstall()
    caches = workload.caches(state)
    metrics = layer_metrics(tracer, caches)
    metrics["trace.overhead"] = (traced.ops_per_s / plain_rate, "ratio")

    failures = traced.finish()
    if traced.digest() != plain_digest:
        failures.append(f"traced digest {traced.digest()} != untraced {plain_digest}")
    failed = len(plain.errors) + len(traced.errors) + len(failures)
    return {
        "attempted": 2 * n_ops, "failed": failed,
        "problems": plain.errors + traced.errors + failures,
        "digest": traced.digest(), "samples": {"ops": n_ops, "passes": 2},
        "metrics": metrics, "error_rate": failed / (2 * n_ops),
    }


def layer_metrics(t, caches) -> dict:
    """Per-layer metrics of one traced set-up plus its traced ops."""
    c = t.counts
    evaluations = sum(cache.evaluations for cache in caches)
    computations = sum(cache.computations for cache in caches)
    # the cache exposes no size; its memo table holds one entry per tree pair
    entries = sum(len(getattr(cache, "_memo", ())) for cache in caches)
    distance_calls = t.calls("ted.distance")
    matchings = t.calls("assignment.matching")

    def per(num, den):
        return num / den if den else 0.0

    knn_q, range_q = c.get("vptree.knn.queries", 0), c.get("vptree.range.queries", 0)
    return {
        "graph.parse_s": (t.inclusive("graph.parse"), "s"),
        "tree.extract.calls": (t.calls("tree.extract"), "count"),
        "tree.extract_s": (t.inclusive("tree.extract"), "s"),
        "tree.canonical.calls": (t.calls("tree.canonical"), "count"),
        "tree.canonical_s": (t.inclusive("tree.canonical"), "s"),
        "tree.parse.calls": (t.calls("tree.parse"), "count"),
        "ted.distance.calls": (distance_calls, "count"),
        "ted.distance_s": (t.inclusive("ted.distance"), "s"),
        "ted.self_s": (t.self_time("ted.distance"), "s"),
        "ted.canonize.calls": (t.calls("ted.canonize"), "count"),
        "ted.canonize_s": (t.inclusive("ted.canonize"), "s"),
        "ted.level_solves_per_distance": (per(matchings, distance_calls), "ratio"),
        "ted.bipartite_s": (t.inclusive("ted.bipartite"), "s"),
        "ted.bipartite.cells": (c.get("ted.bipartite.cells", 0), "count"),
        "assignment.matching.calls": (matchings, "count"),
        "assignment.matching_s": (t.inclusive("assignment.matching"), "s"),
        "assignment.mean_n": (per(c.get("assignment.n_sum", 0), matchings), "count"),
        "assignment.max_n": (c.get("assignment.max_n", 0), "count"),
        "ned.cache.evaluations": (evaluations, "count"),
        "ned.cache.computations": (computations, "count"),
        "ned.cache.hit_ratio": (per(evaluations - computations, evaluations), "ratio"),
        "ned.cache_s": (t.self_time("ned.cache"), "s"),
        "ned.cache.entries": (entries, "count"),
        "vptree.build.evals": (c.get("vptree.build.evals", 0), "count"),
        "vptree.build_s": (t.self_time("vptree.build"), "s"),
        "vptree.knn.evals_per_query": (per(c.get("vptree.knn.evals", 0), knn_q), "count"),
        "vptree.range.evals_per_query":
            (per(c.get("vptree.range.evals", 0), range_q), "count"),
        "vptree.query_self_s":
            (t.self_time("vptree.knn") + t.self_time("vptree.range"), "s"),
        "experiments.anonymize_s": (t.inclusive("experiments.anonymize"), "s"),
        "experiments.evals_per_query":
            (per(c.get("experiments.evals", 0), c.get("experiments.queries", 0)), "count"),
        "experiments.deanonymize_self_s":
            (t.self_time("experiments.deanonymize"), "s"),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    api = import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](api, seed)
    checked = CHECKED[name]
    n_ops = op_count(name, seconds)
    if trace:
        res = run_traced(workload, max(checked, n_ops // 4), checked)
    else:
        res = run_untraced(workload, n_ops, checked, RSS_AT_OP[name])

    env = environment(api)
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print("   env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"   inputs: {workload.fingerprint}  digest: {res['digest']}  "
          + "  ".join(f"{k}={v}" for k, v in res["samples"].items()))
    for key, (value, unit) in res["metrics"].items():
        print(f"   {key:34s} {value:14.6g} {unit}")
    print(f"   {'error_rate':34s} {res['error_rate']:14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} ops)")
    for problem in res["problems"][:20]:
        print(f"   FAILED: {problem}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
