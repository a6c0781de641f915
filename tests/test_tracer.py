"""The benchmark's per-layer tracer still finds every name it hooks.

``benchmarks/tracer.py`` wraps library functions at the names their callers
look them up by, so renaming one of them breaks traced benchmark runs.  These
tests install and remove the hooks without running the benchmark, and check
that a traced distance deep enough to be matched counts its matrices and
that building an index is traced as one extraction per tree it reads: none
at k <= 2, where a node's degree along each side's edges is its group key;
at k = 3 one per root and side (in or out, when directed) with a parent
choice, the other trees being keyed from the adjacency.
"""

import importlib.util
from pathlib import Path

import pytest

from nedist import ted
from nedist.experiments import random_graph
from nedist.tree import parse_tree_literal
from nedist.vptree import build_index

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer().Tracer().install()
    patched = list(tracer._patches)
    assert patched
    try:
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_traced_depth_four_distance_counts_its_matrices():
    a = parse_tree_literal("(((())())(()))")
    b = parse_tree_literal("(((()))(()()))")
    for weights in (ted.UNIT, ted.W_PLUS):
        tracer = load_tracer().Tracer().install()
        try:
            ted.ted_star(a, b, weights)
        finally:
            tracer.uninstall()
        # levels 3 and 2 are matched: a 3 x 3 and a 2 x 2 matrix
        assert tracer.calls("ted.bipartite") == tracer.calls("assignment.matching") == 2
        assert tracer.counts["ted.bipartite.cells"] == 13


@pytest.mark.parametrize("directed", [False, True])
def test_traced_index_build_counts_one_extraction_per_tree(directed):
    g = random_graph(30, 60 if directed else 45, seed=3, directed=directed)
    for k in (2, 3):
        tracer = load_tracer().Tracer().install()
        try:
            index = build_index(g, k)
        finally:
            tracer.uninstall()
        # k = 2 groups nodes by degree and builds each representative from
        # its key; k = 3 extracts the trees of the 10 roots with a parent
        # choice when undirected, and of the 2 in-tree and 2 out-tree roots
        # with one when directed
        trees = 0 if k == 2 else 4 if directed else 10
        assert 1 < len(index.groups) < g.n
        assert tracer.calls("tree.extract") == trees
