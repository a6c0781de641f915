import gc
import random

import pytest

from nedist.errors import UsageError
from nedist.experiments import random_graph
from nedist.ned import TreeDistanceCache, tree_for
from nedist.vptree import VpIndex, build_index


def int_metric(a, b):
    return abs(a - b)


def make_index(n, seed=0, bucket=4):
    rng = random.Random(seed)
    items = [rng.randrange(100) for _ in range(n)]
    return VpIndex(items, int_metric, seed=seed, bucket_size=bucket), items


def test_knn_matches_linear_scan():
    index, _ = make_index(300, seed=1)
    rng = random.Random(2)
    for _ in range(50):
        q = rng.randrange(100)
        for l in (1, 3, 10):
            got, _ = index.knn(q, l)
            assert got == index.linear_scan(q, l=l)


def test_queries_leave_no_reference_cycles():
    index, _ = make_index(300, seed=5)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for q in range(0, 100, 2):
            index.knn(q, 5)
            index.range_query(q, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_range_matches_linear_scan():
    index, _ = make_index(300, seed=3)
    rng = random.Random(4)
    for _ in range(50):
        q = rng.randrange(100)
        for r in (0, 2, 7, 50):
            got, _ = index.range_query(q, r)
            assert got == index.linear_scan(q, r=r)


def test_ties_resolve_by_index():
    index = VpIndex([5, 5, 5, 5], int_metric, seed=0)
    got, _ = index.knn(5, 2)
    assert got == [(0, 0), (1, 0)]


def test_l_beyond_size_returns_everything():
    index, items = make_index(10, seed=5)
    got, _ = index.knn(0, 50)
    assert len(got) == len(items)


def test_pruning_saves_evaluations():
    index, _ = make_index(2000, seed=6, bucket=8)
    total = 0
    for q in range(0, 100, 5):
        _, evals = index.knn(q, 3)
        total += evals
    assert total < 20 * len(index)   # strictly better than scanning every time


def test_query_argument_validation():
    index, _ = make_index(10)
    with pytest.raises(UsageError):
        index.knn(0, 0)
    with pytest.raises(UsageError):
        index.range_query(0, -1)
    with pytest.raises(UsageError):
        VpIndex([], int_metric)


def test_all_equal_items_degenerate_build():
    index = VpIndex([7] * 40, int_metric, seed=0, bucket_size=4)
    got, _ = index.knn(7, 5)
    assert [lab for lab, _ in got] == [0, 1, 2, 3, 4]


def test_build_deterministic_given_seed():
    idx1, _ = make_index(200, seed=9)
    idx2, _ = make_index(200, seed=9)
    for q in (0, 13, 99):
        assert idx1.knn(q, 4)[0] == idx2.knn(q, 4)[0]


def test_graph_index_round_trip():
    g = random_graph(80, 160, seed=10)
    cache = TreeDistanceCache()
    index = build_index(g, 2, seed=0, cache=cache)
    q = tree_for(g, 17, 2)
    got, _ = index.knn(q, 5)
    assert got == index.linear_scan(q, l=5)
    assert got[0][1] == 0   # node 17 itself is indexed at distance zero


def test_graph_index_directed():
    g = random_graph(40, 120, seed=11, directed=True)
    index = build_index(g, 2, seed=1)
    q = (tree_for(g, 5, 2, "in"), tree_for(g, 5, 2, "out"))
    got, _ = index.knn(q, 3)
    assert got == index.linear_scan(q, l=3)
    assert ("v5", 0) in got
