import gc
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nedist.errors import UsageError
from nedist.experiments import random_graph, random_tree
from nedist.graph import build_graph, parse_edge_list, to_edge_list
from nedist.ned import (
    TreeDistanceCache,
    ned,
    signature,
    signature_distance,
    signature_trees,
    tree_for,
)
from nedist.oracle import enumerate_trees
from nedist.ted import UNIT, W_PLUS, WeightScheme, ted_star_distance_only
from nedist.tree import LevelTree, parse_tree_literal as P
from nedist.vptree import (
    SignatureBound,
    VpIndex,
    _adjacency_keys,
    _node_groups,
    _signature_groups,
    build_index,
    hausdorff_graph_distance,
)
from schemes import criterion_1_random_scheme

FRACTION_SCHEME = WeightScheme(leaf=lambda L: Fraction(L, 3),
                               move=lambda L: Fraction(2 * L + 1, 7), name="fraction")
FLOAT_SCHEME = WeightScheme(leaf=lambda L: 0.1 * L + 0.07, move=lambda L: 0.3 * L + 0.11,
                            name="float")
BOUND_SCHEMES = [UNIT, W_PLUS, criterion_1_random_scheme(), FRACTION_SCHEME, FLOAT_SCHEME]
# whole weights given as Fractions: its whole distances are ints all the same
INT_FRACTION_SCHEME = WeightScheme(leaf=lambda L: Fraction(1),
                                   move=lambda L: Fraction(2 * L), name="int-fraction")


def int_metric(a, b):
    return abs(a - b)


class HalfGap:
    """An exact lower bound on |q - x| per group value x: half the gap."""
    unit = 1

    def __init__(self, values):
        self.values = values

    def __call__(self, q):
        return [abs(q - x) // 2 for x in self.values]

    def is_distance(self, q):
        return False


def singletons(items):
    """One group per entry."""
    return [[i] for i in range(len(items))]


def int_index(items, groups=None):
    """An index over ints under |a - b|, bounded by half the gap to each
    group's value (one group per item when None)."""
    groups = singletons(items) if groups is None else groups
    return VpIndex(items, int_metric, groups, HalfGap([items[m[0]] for m in groups]))


def make_index(n, seed=0):
    """Random ints in 0..99, grouped by value."""
    rng = random.Random(seed)
    items = [rng.randrange(100) for _ in range(n)]
    groups: dict = {}
    for i, x in enumerate(items):
        groups.setdefault(x, []).append(i)
    return int_index(items, list(groups.values())), items


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
        VpIndex([], int_metric, [], HalfGap([]))
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


def test_a_bool_is_not_a_count():
    # a bool is an int, but True is not a depth of 1 nor a neighbor count of 1
    g = parse_edge_list("a b\nb c\n")
    index = build_index(g, 2)
    for bad in (True, False):
        with pytest.raises(UsageError, match="k must be an integer >= 1"):
            tree_for(g, 0, bad)
        with pytest.raises(UsageError, match="k must be an integer >= 1"):
            build_index(g, bad)
        with pytest.raises(UsageError, match="l must be an integer >= 1"):
            index.knn(tree_for(g, 0, 2), bad)
    # the index builds its representatives from degrees: only the query's tree is extracted
    assert g._tree_cache.keys() == {(0, 2, "undirected")}


def test_a_bool_is_not_a_radius():
    # True once read as radius 1
    g = parse_edge_list("a b\nb c\n")
    index = build_index(g, 2)
    q = tree_for(g, 0, 2)
    for bad in (True, False):
        for call in (lambda: index.range_query(q, bad), lambda: next(index.walk(q, bad)),
                     lambda: index.linear_scan(q, r=bad)):
            with pytest.raises(UsageError, match="radius must be a real number"):
                call()
    assert index.range_query(q, 1)[0] == [("a", 0), ("c", 0), ("b", 1)]


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
    """knn and range queries equal the scan, and each refines exactly the
    signatures whose LB is at most ``unit`` times the 5th distance or the
    radius (a float one read as its decimal), no more (the walk stays
    lazy).  Returns the signatures refined per knn query."""
    index = build_index(g, k, cache=TreeDistanceCache(scheme))
    distinct = len(_signature_groups([signature(g, v, k) for v in range(g.n)]))
    assert len(index.groups) == distinct
    bound = index._bound
    refined = []
    for v in nodes:
        q = signature(g, v, k)
        lbs = list(bound(q))
        got, evals = index.knn(q, 5)
        assert got == index.linear_scan(q, l=5), (g.labels[v], got)
        assert evals <= distinct
        assert evals == sum(lb <= bound.unit * got[-1][1] for lb in lbs)
        refined.append(evals)
        for r in radii:
            got, evals = index.range_query(q, r)
            assert got == index.linear_scan(q, r=r), (g.labels[v], r)
            assert evals <= distinct
            assert evals == sum(lb <= bound.unit * Fraction(str(r)) for lb in lbs)
    return refined


def test_graph_index_directed():
    g = random_graph(40, 120, seed=11, directed=True)
    index = build_index(g, 2, seed=1)
    q = (tree_for(g, 5, 2, "in"), tree_for(g, 5, 2, "out"))
    got, _ = index.knn(q, 3)
    assert got == index.linear_scan(q, l=3)
    assert ("v5", 0) in got
    assert_index_is_exact(g, 4, W_PLUS, range(0, 40, 3), (2, 7))


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("index_directed", [False, True],
                         ids=["undirected-index", "directed-index"])
def test_mixed_signatures_are_usage_errors(index_directed, k):
    # a mixed pair once got a wrong answer (an undirected index ranked a
    # directed query by its in-tree alone) or an AttributeError, ValueError
    # or TypeError
    g = random_graph(20, 30, seed=1, directed=index_directed)
    q = signature(random_graph(20, 30, seed=1, directed=not index_directed), 3, k)
    index = build_index(g, k)
    distance = signature_distance(TreeDistanceCache().distance)
    for call in (lambda: next(index.walk(q)), lambda: index.knn(q, 3),
                 lambda: index.range_query(q, 1), lambda: index.linear_scan(q),
                 lambda: distance(q, index.items[0]), lambda: distance(index.items[0], q)):
        with pytest.raises(UsageError, match="directed node signature with an undirected"):
            call()
    with pytest.raises(UsageError, match="directed node signature with an undirected"):
        SignatureBound([index.items[0], q], UNIT, k)


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
    index = VpIndex(pool, cache.distance, singletons(pool), SignatureBound(pool, W_PLUS, 6))
    assert index.knn(pool[23], 3)[0] == [(23, 0), (35, 13), (44, 13)]
    for q in (23, 0, 35, 44, 58):
        for l in (1, 3, 8):
            assert index.knn(pool[q], l)[0] == index.linear_scan(pool[q], l=l)
        for r in (0, 13, 20):
            assert index.range_query(pool[q], r)[0] == index.linear_scan(pool[q], r=r)


def test_float_schemes_prune_as_exact_ones_do():
    # a float weight is read as its decimal Fraction, so the bound is exact
    # and skips groups: a float index once refined all 47 per query
    g = random_graph(50, 100, seed=12)
    index = build_index(g, 3, cache=TreeDistanceCache(FLOAT_SCHEME))
    assert len(index.groups) == 47
    for v in range(0, 50, 7):
        q = tree_for(g, v, 3)
        got, evals = index.knn(q, 4)
        assert got == index.linear_scan(q, l=4)
        assert evals <= 4
        assert index.range_query(q, 0.5)[0] == index.linear_scan(q, r=0.5)
    assert_index_is_exact(g, 3, FLOAT_SCHEME, range(0, 50, 7), (0.5, 0.37, Fraction(37, 100)))


def test_a_float_radius_is_read_as_its_decimal_as_a_weight_is():
    # one level-2 move apart: 3/10 under move={2: 0.3}, which a radius 0.3
    # read as the binary float below 3/10 would drop
    scheme = WeightScheme(move={2: 0.3})
    pool = [P("((()())())"), P("((())(()))"), P("(()()())")]
    index = VpIndex(pool, TreeDistanceCache(scheme).distance, singletons(pool),
                    SignatureBound(pool, scheme, 3))
    near = [(0, 0), (1, Fraction(3, 10))]
    for r in (0.3, np.float64(0.3), np.float32(0.3), Fraction(3, 10)):
        assert index.range_query(pool[0], r)[0] == near
        assert index.linear_scan(pool[0], r=r) == near
    for r in (0.29, 0.2999999999):
        assert index.range_query(pool[0], r)[0] == [(0, 0)]
        assert index.linear_scan(pool[0], r=r) == [(0, 0)]
    g = parse_edge_list("x y\nx z\ny y1\ny y2\np q\np r\nq q1\nr r1\n")
    graph_index = build_index(g, 3, cache=TreeDistanceCache(scheme))
    assert graph_index.range_query(tree_for(g, "x", 3), 0.3)[0] == [("x", 0), ("p", Fraction(3, 10))]


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
        from_bound = k <= 3
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


def assert_rows_are_vectors(reps, scheme, k):
    """The representatives' rows, built in one array pass, equal ``_vector``
    of each, and each width is its level's widest child count."""
    bound = SignatureBound(reps, scheme, k)
    trees = [signature_trees(s) for s in reps]
    assert bound._rows.dtype == np.int64
    assert bound._rows.tolist() == [bound._vector(t) for t in trees]
    for side, widths in enumerate(bound._widths):
        assert widths == [max((max(t[side].child_counts()[i], default=0)
                               for t in trees if i < t[side].depth), default=0)
                          for i in range(k - 1)]


@pytest.mark.parametrize("directed", [False, True])
def test_bulk_rows_equal_each_representatives_vector(directed):
    g = random_graph(60, 90, seed=16, directed=directed)
    for k in range(1, 7):
        reps = [s for s, _ in _signature_groups([signature(g, v, k) for v in range(g.n)])]
        if k == 6:   # a sparse graph leaves some neighborhoods shallower than k
            assert any(t.depth < k for s in reps for t in signature_trees(s))
        assert_rows_are_vectors(reps, UNIT, k)
    # criterion 1's pool, its trees deeper and shallower than k
    rng = random.Random(11)
    pool = [random_tree(rng.randint(2, 60), rng.randint(2, 6),
                        seed=rng.randrange(1 << 30)) for _ in range(60)]
    for k in (3, 6):
        assert_rows_are_vectors(pool, W_PLUS, k)
    assert_rows_are_vectors([P("()"), P("(())"), P("(()())")], UNIT, 4)
    # weights past int64 leave the rows counts
    huge = WeightScheme(leaf={2: 2 ** 62 + 1, 3: 3}, move={1: 2 ** 70, 2: 2 ** 61 + 7})
    reps = [s for s, _ in _signature_groups([signature(g, v, 3) for v in range(g.n)])]
    assert_rows_are_vectors(reps, huge, 3)


def literal_partition(g, k):
    """The nodes of ``g`` grouped by their signatures' AHU literals."""
    parts: dict = {}
    for v in range(g.n):
        key = tuple(t.canonical_literal() for t in signature_trees(signature(g, v, k)))
        parts.setdefault(key, []).append(v)
    return sorted(parts.values())


def with_isolated_nodes(g):
    """``g`` with an isolated node before its first node and after its last."""
    labels = ["iso0", *g.labels, "iso1"]
    return build_graph(labels, [(i + 1, j + 1) for i, j in g.edges()], g.directed)


def choice_roots(g, down):
    """The roots of ``g`` whose depth-3 tree along ``down`` has a node with
    two or more candidate parents."""
    roots = []
    for r in range(g.n):
        near = {r, *down[r]}
        reach = Counter(w for u in down[r] for w in down[u] if w not in near)
        if any(c >= 2 for c in reach.values()):
            roots.append(r)
    return roots


def sides(g):
    """The edges each of a node's trees follows, with its extraction mode."""
    return [(g.radj, "in"), (g.adj, "out")] if g.directed else [(g.adj, "undirected")]


@pytest.mark.parametrize("directed", [False, True])
def test_shallow_node_groups_equal_the_extracted_signature_groups(directed):
    # at k <= 2 nodes are grouped by degree, and at k = 3 keyed from the
    # adjacency with no tree extracted but those of roots with a parent
    # choice, per side: the same groups and members as keying every node's
    # extracted signature, and representatives of the same classes, built
    # from their keys
    side_choices = [0, 0] if directed else [0]   # roots with a parent choice, per side
    for seed, n, m in ((1, 40, 60), (2, 40, 60), (3, 40, 60), (4, 30, 90)):
        edges = to_edge_list(random_graph(n, m, seed=seed, directed=directed))
        for k in (1, 2, 3):
            g = with_isolated_nodes(parse_edge_list(edges, directed=directed))
            got = _node_groups(g, k)
            extracted = len(g._tree_cache)
            want = _signature_groups([signature(g, v, k) for v in range(g.n)])
            assert [members for _, members in got] == [members for _, members in want]
            assert ([[t.class_key() for t in signature_trees(rep)] for rep, _ in got]
                    == [[t.class_key() for t in signature_trees(rep)] for rep, _ in want])
            for rep, _ in got:   # the preset counts are the levels'
                for t in signature_trees(rep):
                    assert t.node_ids is None
                    assert LevelTree(t.levels).child_counts() == t.child_counts()
            if k == 3:
                chosen = [len(choice_roots(g, down)) for down, _ in sides(g)]
                side_choices = [a + b for a, b in zip(side_choices, chosen)]
                assert extracted == sum(chosen)
                if not directed:
                    assert extracted > 0
                    assert any(set(g.adj[u]) & set(g.adj[v]) for u, v in g.edges())   # triangles
            else:
                assert extracted == 0
            assert_rows_are_vectors([rep for rep, _ in got], UNIT, k)
            if k >= 2:
                assert [0, g.n - 1] in [members for _, members in got]
            nodes = [0, g.n - 1, *range(1, g.n, 7)]
            for scheme in (UNIT, FRACTION_SCHEME):   # the bound, then refining
                assert_index_is_exact(g, k, scheme, nodes, (0, 1, 2.5))
    # extracted trees are mixed with keyed ones on every side
    assert all(side_choices)


@pytest.mark.parametrize("directed", [False, True])
def test_adjacency_keys_equal_the_extracted_class_keys(directed):
    # each side's key is its extracted tree's class key, and None exactly
    # for the roots with a parent choice; the directed graphs hold
    # reciprocal edges, sources, sinks and isolated nodes
    graphs = [with_isolated_nodes(random_graph(n, m, seed=seed, directed=directed))
              for seed, n, m in ((1, 30, 40), (2, 30, 80), (3, 40, 160))]
    if directed:
        assert any(u in g.adj[v] for g in graphs for u, v in g.edges())
        assert any(g.adj[v] and not g.radj[v] for g in graphs for v in range(g.n))
        assert any(g.radj[v] and not g.adj[v] for g in graphs for v in range(g.n))
    keyed = chosen = 0
    for g in graphs:
        for down, mode in sides(g):
            choice = set(choice_roots(g, down))
            for v, key in enumerate(_adjacency_keys(g, down)):
                assert (key is None) == (v in choice)
                if key is not None:
                    assert key == tree_for(g, v, 3, mode).class_key()
            keyed += g.n - len(choice)
            chosen += len(choice)
    assert keyed > 0 and chosen > 0


@pytest.mark.parametrize("inward", [False, True])
def test_directed_hub_is_keyed_per_edge(inward):
    # a hub with 3,000 leaves on one side of its edges: the leaves' paths
    # through it are few, though the pairs of leaves sharing it are 9e6; a
    # reciprocal leaf and a path past the hub give level 3 and a choice
    h = 3000
    edges = [(i, 0) for i in range(1, h + 1)]
    edges += [(0, 1), (0, h + 1), (0, h + 2), (h + 1, h + 2), (1, h + 1)]
    g = build_graph(list(range(h + 3)), edges if inward else [(v, u) for u, v in edges], True)
    for down, mode in sides(g):
        choice = set(choice_roots(g, down))
        assert choice
        for v, key in enumerate(_adjacency_keys(g, down)):
            assert (key is None) == (v in choice)
            if key is not None:
                assert key == tree_for(g, v, 3, mode).class_key()
    got = _node_groups(g, 3)
    want = _signature_groups([signature(g, v, 3) for v in range(g.n)])
    assert [members for _, members in got] == [members for _, members in want]
    assert ([[t.class_key() for t in signature_trees(rep)] for rep, _ in got]
            == [[t.class_key() for t in signature_trees(rep)] for rep, _ in want])


@pytest.mark.parametrize("directed", [False, True])
def test_shallow_hausdorff_values_are_pinned(directed):
    # each (UNIT, W_PLUS, FRACTION_SCHEME) value per seed and k, as keying
    # every node's extracted signature gave them
    want = {
        False: {1: ((0, 0, 0), (4, 5, Fraction(71, 21))),
                2: ((1, 1, Fraction(2, 3)), (6, 9, Fraction(101, 21))),
                3: ((3, 3, 2), (8, 8, Fraction(149, 21)))},
        True: {1: ((2, 2, Fraction(4, 3)), (7, 7, Fraction(19, 3))),
               2: ((3, 3, 2), (9, 9, Fraction(46, 7))),
               3: ((3, 3, 2), (10, 10, Fraction(28, 3)))},
    }[directed]
    for seed, (at_2, at_3) in want.items():
        a = with_isolated_nodes(random_graph(40, 60, seed=seed, directed=directed))
        b = random_graph(36, 70, seed=seed + 10, directed=directed)
        for k, pinned in ((1, (0, 0, 0)), (2, at_2), (3, at_3)):
            got = tuple(hausdorff_graph_distance(a, b, k, cache=TreeDistanceCache(scheme))
                        for scheme in (UNIT, W_PLUS, FRACTION_SCHEME))
            assert repr(got) == repr(pinned), (seed, k)


class Refining:
    """``bound`` vouching for no distance, so a walk refines each group."""

    def __init__(self, bound):
        self._bound, self.unit = bound, bound.unit

    def __call__(self, query):
        return self._bound(query)

    def is_distance(self, query):
        return False


@pytest.mark.parametrize("directed", [False, True])
def test_the_walk_over_runs_equals_the_refining_walk(directed):
    # where the bound is the distance the walk yields runs of equal bounds
    # with no heap: the same stream, and the same groups taken by each yield,
    # as refining each group by TED*
    g = random_graph(40, 80, seed=18, directed=directed)

    def stream(index, q, r):
        index.eval_count = 0
        out = [(repr(d), members, index.eval_count) for d, members in index.walk(q, r)]
        return out, index.eval_count

    merged = 0   # yields that merge several groups
    for k in (1, 2, 3):
        for scheme in (UNIT, FRACTION_SCHEME):
            direct = build_index(g, k, cache=TreeDistanceCache(scheme))
            refining = VpIndex(direct.items, direct._distance, direct.groups,
                               Refining(direct._bound), labels=g.labels)
            for v in range(0, g.n, 5):
                q = signature(g, v, k)
                assert direct._bound.is_distance(q)
                for r in (None, 0, 1, 2.5):
                    got = stream(direct, q, r)
                    assert got == stream(refining, q, r), (k, scheme.name, v, r)
                    taken = [0] + [count for _, _, count in got[0]]
                    merged += sum(b - a > 1 for a, b in zip(taken, taken[1:]))
    assert merged > 0


@pytest.mark.parametrize("directed", [False, True])
def test_group_keys_partition_as_canonical_literals(directed):
    # a random graph and a 3-node path: at k = 4 and 5 the path's trees have
    # depth <= 3 and count keys, the others literals, in one index
    g = parse_edge_list(to_edge_list(random_graph(30, 50, seed=16, directed=directed))
                        + "p0 p1\np1 p2\n", directed=directed)
    path = [g.resolve(p) for p in ("p0", "p1", "p2")]
    for k in range(1, 6):
        groups = _signature_groups([signature(g, v, k) for v in range(g.n)])
        assert sorted(members for _, members in groups) == literal_partition(g, k), k
        if k >= 4:
            kinds = {type(t.class_key()) for s, _ in groups for t in signature_trees(s)}
            assert kinds == {tuple, str}
            assert_index_is_exact(g, k, UNIT, list(range(0, 30, 6)) + path, (1, 3))
