import gc
import random
from fractions import Fraction

import pytest

from nedist.errors import UsageError
from nedist.experiments import random_graph, random_tree
from nedist.graph import parse_edge_list
from nedist.ned import TreeDistanceCache, _signature_groups, ned, signature, tree_for
from nedist.oracle import enumerate_trees
from nedist.ted import UNIT, W_PLUS, WeightScheme, ted_star_distance_only
from nedist.tree import parse_tree_literal as P
from nedist.vptree import SignatureBound, VpIndex, build_index
from schemes import criterion_1_random_scheme

FRACTION_SCHEME = WeightScheme(leaf=lambda L: Fraction(L, 3),
                               move=lambda L: Fraction(2 * L + 1, 7), name="fraction")
BOUND_SCHEMES = [UNIT, W_PLUS, criterion_1_random_scheme(), FRACTION_SCHEME]
FLOAT_SCHEME = WeightScheme(leaf=lambda L: 0.1 * L + 0.07, move=lambda L: 0.3 * L + 0.11,
                            name="float")
# integer values, but TED* returns Fractions under it
INT_FRACTION_SCHEME = WeightScheme(leaf=lambda L: Fraction(1),
                                   move=lambda L: Fraction(2 * L), name="int-fraction")


def int_metric(a, b):
    return abs(a - b)


class HalfGap:
    """An exact lower bound on |q - x| per group value x: half the gap."""
    unit = 1
    exact = True

    def __init__(self, values):
        self.values = values

    def __call__(self, q):
        return [abs(q - x) // 2 for x in self.values]

    def is_distance(self, q):
        return False


class InexactHalfGap(HalfGap):
    """The same values, flagged as a bound that may not prune (as under
    float weights): it only orders the groups."""
    exact = False


def int_index(items, groups=None, bound=HalfGap):
    """An index over ints under |a - b|, bounded by half the gap to each
    group's value."""
    firsts = [m[0] for m in groups] if groups is not None else range(len(items))
    return VpIndex(items, int_metric, groups, bound([items[i] for i in firsts]))


def make_index(n, seed=0, bound=HalfGap):
    """Random ints in 0..99, grouped by value."""
    rng = random.Random(seed)
    items = [rng.randrange(100) for _ in range(n)]
    groups: dict = {}
    for i, x in enumerate(items):
        groups.setdefault(x, []).append(i)
    return int_index(items, list(groups.values()), bound), items


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
    g = random_graph(60, 150, seed=6)
    graph_index = build_index(g, 3, cache=TreeDistanceCache(W_PLUS))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for q in range(0, 100, 2):
            index.knn(q, 5)
            index.range_query(q, 3)
        for v in range(0, 60, 6):
            graph_index.knn(tree_for(g, v, 3), 5)
            graph_index.range_query(tree_for(g, v, 3), 4)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_range_matches_linear_scan():
    index, _ = make_index(300, seed=3)
    rng = random.Random(4)
    for _ in range(50):
        q = rng.randrange(100)
        for r in (0, 2, 7, 50, 2.5, float("inf")):
            got, _ = index.range_query(q, r)
            assert got == index.linear_scan(q, r=r)


def test_ties_resolve_by_index():
    for groups in (None, [[0, 1, 2, 3]], [[0, 2], [1, 3]]):
        index = int_index([5, 5, 5, 5], groups)
        got, _ = index.knn(5, 2)
        assert got == [(0, 0), (1, 0)]
        assert index.range_query(5, 0)[0] == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_l_beyond_size_returns_everything():
    index, items = make_index(10, seed=5)
    got, _ = index.knn(0, 50)
    assert len(got) == len(items)


def test_pruning_saves_evaluations():
    index, _ = make_index(2000, seed=6)
    assert len(index.groups) == 100
    for q in range(0, 100, 5):
        _, evals = index.knn(q, 3)
        assert evals <= 3   # q's own group of about 20 entries, and q - 1, q + 1
        _, evals = index.range_query(q, 4)
        assert evals <= 19   # the values within 9 are bounded by 4

def test_an_inexact_bound_refines_every_group():
    index, _ = make_index(300, seed=7, bound=InexactHalfGap)
    for q in range(0, 100, 9):
        for l in (1, 5):
            got, evals = index.knn(q, l)
            assert got == index.linear_scan(q, l=l)
            assert evals == len(index.groups)
        for r in (0, 3, 2.5):
            got, evals = index.range_query(q, r)
            assert got == index.linear_scan(q, r=r)
            assert evals == len(index.groups)


def test_query_argument_validation():
    index, _ = make_index(10)
    with pytest.raises(UsageError):
        index.knn(0, 0)
    with pytest.raises(UsageError):
        index.range_query(0, -1)
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(UsageError):
            index.knn(0, bad)
    for bad in (float("nan"), "1", None):
        with pytest.raises(UsageError):
            index.range_query(0, bad)
    with pytest.raises(UsageError):
        VpIndex([], int_metric, None, HalfGap([]))
    for groups in ([[0]], [[1, 0]], [[0, 1], [1]], [[0, 1, 2]]):
        with pytest.raises(UsageError):
            VpIndex([3, 3], int_metric, groups, HalfGap([3]))
    with pytest.raises(UsageError):
        SignatureBound([], UNIT, 2)


def test_linear_scan_checks_its_arguments_as_the_queries_do():
    index, _ = make_index(10)
    for bad in (0, -1, 2.5, "2"):
        with pytest.raises(UsageError):
            index.linear_scan(0, l=bad)
    for bad in (-1, float("nan"), "x"):
        with pytest.raises(UsageError):
            index.linear_scan(0, r=bad)
    assert len(index.linear_scan(0)) == len(index)
    assert index.linear_scan(0, l=3) == index.knn(0, 3)[0]
    assert index.linear_scan(0, r=5) == index.range_query(0, 5)[0]


def test_build_index_rejects_an_empty_graph():
    with pytest.raises(UsageError, match="empty graph"):
        build_index(parse_edge_list(""), 2)


def test_all_equal_items_degenerate_build():
    for groups in (None, [list(range(40))]):
        index = int_index([7] * 40, groups)
        got, _ = index.knn(7, 5)
        assert [lab for lab, _ in got] == [0, 1, 2, 3, 4]


def test_graph_index_round_trip():
    g = random_graph(80, 160, seed=10)
    cache = TreeDistanceCache()
    index = build_index(g, 2, seed=0, cache=cache)
    q = tree_for(g, 17, 2)
    got, _ = index.knn(q, 5)
    assert got == index.linear_scan(q, l=5)
    assert got[0][1] == 0   # node 17 itself is indexed at distance zero
    assert build_index(g, 2, seed=5, cache=cache).knn(q, 5)[0] == got   # seed is unused
    with pytest.raises(UsageError):
        build_index(g, 1.5)


def assert_index_is_exact(g, k, scheme, nodes, radii):
    """knn and range queries equal the scan; under an exact bound, each
    refines exactly the signatures whose LB is at most ``unit`` times the
    5th distance or the radius, no more (the walk stays lazy).  Returns the
    signatures refined per knn query."""
    index = build_index(g, k, cache=TreeDistanceCache(scheme))
    distinct = len(_signature_groups(g, range(g.n), k))
    assert len(index.groups) == distinct
    bound = index._bound
    refined = []
    for v in nodes:
        q = signature(g, v, k)
        lbs = list(bound(q))
        got, evals = index.knn(q, 5)
        assert got == index.linear_scan(q, l=5), (g.labels[v], got)
        assert evals <= distinct
        if bound.exact:
            assert evals == sum(lb <= bound.unit * got[-1][1] for lb in lbs)
        refined.append(evals)
        for r in radii:
            got, evals = index.range_query(q, r)
            assert got == index.linear_scan(q, r=r), (g.labels[v], r)
            assert evals <= distinct
            if bound.exact:
                assert evals == sum(lb <= bound.unit * r for lb in lbs)
    return refined


def test_graph_index_directed():
    g = random_graph(40, 120, seed=11, directed=True)
    index = build_index(g, 2, seed=1)
    q = (tree_for(g, 5, 2, "in"), tree_for(g, 5, 2, "out"))
    got, _ = index.knn(q, 3)
    assert got == index.linear_scan(q, l=3)
    assert ("v5", 0) in got
    assert_index_is_exact(g, 4, W_PLUS, range(0, 40, 3), (2, 7))


def test_graph_repro_where_the_triangle_inequality_fails():
    # the VP-tree's build_index(g, 4, seed=3) returned v383 instead of v315
    g = random_graph(400, 700, seed=41)
    nodes = [g.resolve("v36")] + random.Random(42).sample(range(g.n), 20)
    index = build_index(g, 4, cache=TreeDistanceCache(W_PLUS))
    assert index.knn(tree_for(g, "v36", 4), 5)[0] == [
        ("v36", 0), ("v307", 6), ("v64", 11), ("v315", 11), ("v110", 12)]
    refined = assert_index_is_exact(g, 4, W_PLUS, nodes, (6, 12))
    assert sum(refined) / len(refined) < 0.5 * len(index.groups)


def test_pool_repro_where_the_triangle_inequality_fails():
    # criterion 1's pool; the VP-tree gave [(23, 0), (44, 13), (58, 13)]
    rng = random.Random(11)
    pool = [random_tree(rng.randint(2, 60), rng.randint(2, 6),
                        seed=rng.randrange(1 << 30)) for _ in range(60)]
    cache = TreeDistanceCache(W_PLUS)
    index = VpIndex(pool, cache.distance, None, SignatureBound(pool, W_PLUS, 6))
    assert index.knn(pool[23], 3)[0] == [(23, 0), (35, 13), (44, 13)]
    for q in (23, 0, 35, 44, 58):
        for l in (1, 3, 8):
            assert index.knn(pool[q], l)[0] == index.linear_scan(pool[q], l=l)
        for r in (0, 13, 20):
            assert index.range_query(pool[q], r)[0] == index.linear_scan(pool[q], r=r)


def test_float_schemes_refine_every_signature():
    g = random_graph(50, 100, seed=12)
    index = build_index(g, 3, cache=TreeDistanceCache(FLOAT_SCHEME))
    for v in range(0, 50, 7):
        q = tree_for(g, v, 3)
        got, evals = index.knn(q, 4)
        assert got == index.linear_scan(q, l=4)
        assert evals == len(index.groups)
        assert index.range_query(q, 0.5)[0] == index.linear_scan(q, r=0.5)


def test_huge_weights_stay_exact():
    g = random_graph(50, 100, seed=13)
    huge = WeightScheme(leaf={2: 2 ** 62 + 1, 3: 3}, move={1: 2 ** 70, 2: 2 ** 61 + 7})
    index = build_index(g, 3, cache=TreeDistanceCache(huge))
    for v in range(0, 50, 7):
        q = tree_for(g, v, 3)
        assert index.knn(q, 4)[0] == index.linear_scan(q, l=4)
        assert index.range_query(q, 2 ** 62)[0] == index.linear_scan(q, r=2 ** 62)


def test_graph_index_takes_its_scheme_from_the_cache():
    # x and p are 1 apart under unit weights and 2 apart under W_PLUS
    g = parse_edge_list("x y\nx z\ny y1\ny y2\np q\np r\nq q1\nr r1\n")
    index = build_index(g, 3, cache=TreeDistanceCache(W_PLUS))
    got, _ = index.range_query(tree_for(g, "x", 3), 2)
    assert ("p", 2) in got
    assert ned(g, "x", g, "p", 3, W_PLUS) == 2


def check_bound(a_trees, b_trees, scheme, bound_of):
    """LB == TED* where both trees have depth <= 3, LB <= TED* elsewhere."""
    for a in a_trees:
        for b, lb in zip(b_trees, bound_of(a)):
            d = ted_star_distance_only(a, b, scheme)
            if max(a.depth, b.depth) <= 3:
                assert lb == bound_of.unit * d, (a, b)
            else:
                assert lb <= bound_of.unit * d, (a, b)


@pytest.mark.parametrize("scheme", BOUND_SCHEMES, ids=lambda s: s.name)
def test_bound_on_all_small_trees(scheme):
    trees = list(enumerate_trees(6))
    bound = SignatureBound(trees, scheme, 6)
    assert bound.exact
    check_bound(trees, trees, scheme, bound)


@pytest.mark.parametrize("scheme", BOUND_SCHEMES, ids=lambda s: s.name)
def test_bound_on_random_tree_pairs(scheme):
    rng = random.Random(17)
    for _ in range(40):
        a, b = (random_tree(rng.randint(2, 120), rng.randint(2, 7), rng) for _ in "ab")
        bound = SignatureBound([b], scheme, max(a.depth, b.depth))
        check_bound([a], [b], scheme, bound)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("scheme", [UNIT, W_PLUS, criterion_1_random_scheme(), FRACTION_SCHEME,
                                    FLOAT_SCHEME, INT_FRACTION_SCHEME], ids=lambda s: s.name)
def test_distances_read_from_the_bound_equal_refined_ones(scheme, directed):
    g = random_graph(40, 80, seed=14, directed=directed)
    for k in (1, 2, 3, 4):
        cache = TreeDistanceCache(scheme)
        index = build_index(g, k, cache=cache)
        from_bound = k <= 3 and scheme in (UNIT, W_PLUS)
        for v in range(0, g.n, 4):
            q = signature(g, v, k)
            assert index._bound.is_distance(q) == from_bound
            before = cache.evaluations
            got, _ = index.knn(q, 5)
            radii = (0, got[-1][1], 2.5)
            ranges = [index.range_query(q, r)[0] for r in radii]
            if from_bound:   # no TED*, not even a cache lookup
                assert cache.evaluations == before
            assert repr(got) == repr(index.linear_scan(q, l=5)), (k, v)
            for r, out in zip(radii, ranges):
                assert repr(out) == repr(index.linear_scan(q, r=r)), (k, v, r)


def test_a_query_deeper_than_the_index_is_refined():
    g = random_graph(60, 120, seed=15)
    cache = TreeDistanceCache(W_PLUS)
    index = build_index(g, 2, cache=cache)
    for v in range(0, g.n, 6):
        q = tree_for(g, v, 4)
        assert q.depth == 4
        assert not index._bound.is_distance(q)
        before = cache.evaluations
        got, evals = index.knn(q, 5)
        assert cache.evaluations - before == evals > 0
        assert repr(got) == repr(index.linear_scan(q, l=5))
        assert repr(index.range_query(q, 3)[0]) == repr(index.linear_scan(q, r=3))


def test_a_signature_deeper_than_k_keeps_the_bound_a_bound():
    shallow, deep = P("(()(()))"), P("((((()))))")
    assert not SignatureBound([shallow, deep], UNIT, 3).is_distance(shallow)
    assert SignatureBound([shallow], UNIT, 3).is_distance(shallow)
    assert not SignatureBound([shallow], UNIT, 4).is_distance(shallow)
