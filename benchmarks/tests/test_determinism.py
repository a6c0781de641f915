"""Determinism self-test of the benchmark at a small size.

    python3 -m pytest -q benchmarks/tests

Each workload runs twice with the same seed.  Every count metric and the
output digest must repeat exactly, the traced and untraced passes must give
the same digest, and every checked output must pass its checks.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import worker  # noqa: E402
import workloads  # noqa: E402

api = worker.import_library()

SMALL = {
    "ted_pair": workloads.TedPairShape(sizes=(25, 50), pairs=8),
    "knn_index": workloads.KnnShape(nodes=400, edges=1000, stream=64),
    "deanon": workloads.DeanonShape(nodes=120, edges=240, stream=16),
}
COUNT_SUFFIXES = (".calls", ".cells", ".evals", "evals_per_query")


def is_count(name: str) -> bool:
    return name.startswith("ned.cache.") or name.endswith(COUNT_SUFFIXES)


def traced_run(name: str, seed: int) -> dict:
    workload = workloads.WORKLOADS[name](api, seed, SMALL[name])
    return worker.run_traced(workload, n_ops=12, checked=6)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_and_digest_repeat(name):
    first, second = traced_run(name, 5), traced_run(name, 5)
    assert first["failed"] == 0, first["problems"]
    assert first["digest"] == second["digest"]
    counts = {k for k in first["metrics"] if is_count(k)}
    assert {"tree.canonical.calls", "ted.distance.calls", "ted.bipartite.cells",
            "ned.cache.evaluations", "vptree.build.evals"} <= counts
    for key in sorted(counts):
        assert first["metrics"][key] == second["metrics"][key], key


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_matches_traced_digest(name):
    workload = workloads.WORKLOADS[name](api, 5, SMALL[name])
    untraced = worker.run_untraced(workload, n_ops=12, checked=6, rss_at_op=3)
    assert untraced["failed"] == 0, untraced["problems"]
    assert untraced["digest"] == traced_run(name, 5)["digest"]


def test_other_seed_changes_inputs():
    a = workloads.WORKLOADS["deanon"](api, 5, SMALL["deanon"])
    b = workloads.WORKLOADS["deanon"](api, 6, SMALL["deanon"])
    assert a.fingerprint != b.fingerprint
