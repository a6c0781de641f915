import random
from fractions import Fraction

import pytest

from nedist.errors import UsageError
from nedist.experiments import random_graph, random_tree
from nedist.graph import parse_edge_list
from nedist.ned import (
    TreeDistanceCache,
    ned,
    ned_directed,
    signature,
    signature_distance,
    tree_for,
)
from nedist.ted import UNIT, W_PLUS, WeightScheme, ted_star, ted_star_distance_only
from nedist.tree import parse_tree_literal as P
from nedist.vptree import SignatureBound, VpIndex, _signature_groups, hausdorff_graph_distance

PATH5 = "a b\nb c\nc d\nd e\n"


def star(n, prefix):
    return "".join(f"{prefix}hub {prefix}{i}\n" for i in range(n))


def test_isomorphic_neighborhoods_at_zero():
    g1 = parse_edge_list(PATH5)
    g2 = parse_edge_list("v w\nw x\nx y\ny z\n")
    assert ned(g1, "a", g2, "v", 3) == 0
    assert ned(g1, "c", g2, "x", 4) == 0


def test_star_centers():
    g3 = parse_edge_list(star(3, "a"))
    g4 = parse_edge_list(star(4, "b"))
    assert ned(g3, "ahub", g4, "bhub", 2) == 1


def test_path_end_vs_center():
    g = parse_edge_list(PATH5)
    assert ned(g, "a", g, "c", 2) == 1   # "(())" vs "(()())"


def test_non_integer_k_is_a_usage_error():
    g = parse_edge_list(PATH5)
    tree_for(g, "a", 2)   # a cached k = 2 tree does not let k = 2.0 through
    for bad in (2.0, 2.5, "2"):
        with pytest.raises(UsageError):
            tree_for(g, "a", bad)
        with pytest.raises(UsageError):
            ned(g, "a", g, "c", bad)


def test_ned_rejects_directed():
    g = parse_edge_list("a b\n", directed=True)
    with pytest.raises(UsageError):
        ned(g, "a", g, "b", 2)


def test_directed_distance_sums_both_trees():
    g1 = parse_edge_list("p u\nq u\n", directed=True)   # u has 2 in-edges
    g2 = parse_edge_list("x y\n", directed=True)
    # in-trees (()()) vs () cost 2; out-trees () vs (()) cost 1
    assert ned_directed(g1, "u", g2, "x", 2) == 3


def test_directed_halves_sum_to_an_int():
    # a's in-tree () and out-tree (()) against b's (()) and (): one level-2
    # leaf each way, 1/2 apiece, and the whole sum is the int 1
    g = parse_edge_list("a b\n", directed=True)
    w = WeightScheme(leaf={2: Fraction(1, 2)})
    assert repr(ned_directed(g, "a", g, "b", 2, w)) == "1"


def test_ned_directed_rejects_undirected():
    g = parse_edge_list("a b\n")
    with pytest.raises(UsageError):
        ned_directed(g, "a", g, "b", 2)


def test_tree_for_memoizes():
    g = parse_edge_list(PATH5)
    t1 = tree_for(g, "a", 3)
    t2 = tree_for(g, "a", 3)
    assert t1 is t2


def test_distance_cache_counts():
    g = parse_edge_list(PATH5)
    cache = TreeDistanceCache()
    ta, tc = tree_for(g, "a", 2), tree_for(g, "c", 2)
    assert cache.distance(ta, tc) == 1
    assert cache.distance(tc, ta) == 1   # symmetric key, no recompute
    assert cache.evaluations == 2
    assert cache.computations == 1


def test_distance_cache_keys_mixed_depths():
    # depth <= 3 keys are sorted child counts and deeper ones the AHU pass's
    # shapes, both of one kind, so a pair of one of each orders by value
    scheme = HAUSDORFF_SCHEMES[2]
    rng = random.Random(17)
    pool = [P("()")] + [random_tree(rng.randint(2, 12), depth, rng)
                        for depth in range(2, 7) for _ in range(3)]
    assert {t.depth <= 3 for t in pool} == {True, False}
    assert {type(t.class_key()) for t in pool} == {tuple}
    cache = TreeDistanceCache(scheme)
    for a in pool:
        for b in pool:
            assert cache.distance(a, b) == ted_star_distance_only(a, b, scheme)


def test_distance_cache_keys_isomorphic_trees_once():
    a, b = P("((())(()()))"), P("((()())(()))")
    assert a.levels != b.levels
    cache = TreeDistanceCache()
    other = P("(()()())")
    assert cache.distance(a, other) == cache.distance(other, b)
    assert (cache.evaluations, cache.computations, len(cache._memo)) == (2, 1, 1)


def test_hausdorff_identity_and_symmetry():
    g1 = parse_edge_list(PATH5)
    g2 = parse_edge_list(star(4, ""))
    assert hausdorff_graph_distance(g1, g1, 3) == 0
    d12 = hausdorff_graph_distance(g1, g2, 3)
    d21 = hausdorff_graph_distance(g2, g1, 3)
    assert d12 == d21 > 0


def test_hausdorff_rejects_mixed_directedness():
    g1 = parse_edge_list("a b\n")
    g2 = parse_edge_list("a b\n", directed=True)
    with pytest.raises(UsageError):
        hausdorff_graph_distance(g1, g2, 2)


def test_hausdorff_rejects_an_empty_graph():
    g = parse_edge_list(PATH5)
    empty = parse_edge_list("")
    for a, b in ((g, empty), (empty, g)):
        with pytest.raises(UsageError, match="empty graph"):
            hausdorff_graph_distance(a, b, 2)


def test_hausdorff_takes_its_scheme_from_the_cache():
    # x and p are 1 apart under unit weights and 2 apart under W_PLUS
    g1 = parse_edge_list("x y\nx z\ny y1\ny y2\n")
    g2 = parse_edge_list("p q\np r\nq q1\nr r1\n")
    assert hausdorff_graph_distance(g1, g2, 3) == 1
    assert hausdorff_graph_distance(g1, g2, 3, cache=TreeDistanceCache(UNIT)) == 1
    assert hausdorff_graph_distance(g1, g2, 3, cache=TreeDistanceCache(W_PLUS)) == 2


def test_hausdorff_directed():
    g1 = parse_edge_list("a b\nb c\n", directed=True)
    g2 = parse_edge_list("x y\ny z\n", directed=True)
    assert hausdorff_graph_distance(g1, g2, 2) == 0


HAUSDORFF_SCHEMES = [
    UNIT,
    W_PLUS,
    WeightScheme(leaf=lambda lv: Fraction(lv, 3), move=lambda lv: Fraction(2 * lv + 1, 7),
                 name="fraction"),
    WeightScheme(leaf=lambda lv: 0.1 * lv + 0.07, move=lambda lv: 0.3 * lv + 0.11,
                 name="float"),
]


def brute_force_hausdorff(a, b, k, cache):
    """max-min over every pair of nodes, one distance per pair."""
    dist = signature_distance(cache.distance)
    sig_a = [signature(a, u, k) for u in range(a.n)]
    sig_b = [signature(b, v, k) for v in range(b.n)]
    rows = [[dist(x, y) for y in sig_b] for x in sig_a]
    return max(max(min(row) for row in rows),
               max(min(row[j] for row in rows) for j in range(len(sig_b))))


@pytest.mark.parametrize("scheme", HAUSDORFF_SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize("directed", [False, True])
def test_hausdorff_equals_a_brute_force_max_min(directed, scheme):
    a = random_graph(30, 50, seed=31, directed=directed)
    b = random_graph(34, 60, seed=32, directed=directed)
    reference = TreeDistanceCache(scheme)
    for k in (2, 3, 4, 5):
        got = hausdorff_graph_distance(a, b, k, cache=TreeDistanceCache(scheme))
        want = brute_force_hausdorff(a, b, k, reference)
        assert repr(got) == repr(want), k


@pytest.mark.parametrize("scheme", HAUSDORFF_SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize("directed", [False, True])
def test_shallow_hausdorff_computes_no_ted_star(directed, scheme):
    # at k <= 3 the bound is the distance under every scheme
    a = random_graph(30, 50, seed=31, directed=directed)
    b = random_graph(34, 60, seed=32, directed=directed)
    for k in (1, 2, 3):
        cache = TreeDistanceCache(scheme)
        hausdorff_graph_distance(a, b, k, cache=cache)
        assert cache.evaluations == 0, k


@pytest.mark.parametrize("scheme", HAUSDORFF_SCHEMES, ids=lambda s: s.name)
def test_signature_distance_keeps_a_tree_distance_and_its_type(scheme):
    # undirected signatures sum one tree distance, 0 + d: under the Fraction
    # scheme whole distances are ints and the others Fractions
    trees = [P(s) for s in ("()", "(())", "(()())", "((())())", "(((()))())", "((((()))))")]
    trees += [random_tree(30, 5, seed=seed) for seed in range(4)]
    for f in (lambda a, b: ted_star_distance_only(a, b, scheme),
              TreeDistanceCache(scheme).distance):
        for t1 in trees:
            for t2 in trees:
                assert repr(signature_distance(f)(t1, t2)) == repr(f(t1, t2))


def distinct_signatures(g, k):
    return [s for s, _ in _signature_groups([signature(g, v, k) for v in range(g.n)])]


def nearest_per_source_hausdorff(a, b, k, cache):
    """The max-min with every source's nearest distance found: the first
    step of a walk over the other side's distinct signatures."""
    dist = signature_distance(cache.distance)

    def directed(sources, targets):
        index = VpIndex(targets, dist, [[i] for i in range(len(targets))],
                        SignatureBound(targets, cache.weights, k))
        return max(next(index.walk(s))[0] for s in sources)

    sig_a, sig_b = distinct_signatures(a, k), distinct_signatures(b, k)
    return max(directed(sig_a, sig_b), directed(sig_b, sig_a))


def test_hausdorff_refines_fewer_pairs_than_all():
    a = random_graph(30, 50, seed=31)
    b = random_graph(34, 60, seed=32)
    for k in (4, 5):
        cache = TreeDistanceCache(W_PLUS)
        got = hausdorff_graph_distance(a, b, k, cache=cache)
        pairs = len(distinct_signatures(a, k)) * len(distinct_signatures(b, k))
        # the full matrix asks for every pair
        assert 0 < cache.computations <= cache.evaluations < pairs
        # the early break skips most of what finding every nearest distance takes
        walked = TreeDistanceCache(W_PLUS)
        assert repr(nearest_per_source_hausdorff(a, b, k, walked)) == repr(got)
        assert cache.computations < walked.computations
    # at depth <= 3 every distance is read from the bound
    cache = TreeDistanceCache(W_PLUS)
    hausdorff_graph_distance(a, b, 3, cache=cache)
    assert cache.computations == 0


def test_weights_must_be_a_weight_scheme():
    g = parse_edge_list(PATH5)
    t1, t2 = P("(()())"), P("(()()())")
    for bad in ("wplus", None, {2: 3}):
        with pytest.raises(UsageError):
            ted_star(t1, t2, bad)
        with pytest.raises(UsageError):
            ned(g, "a", g, "c", 2, weights=bad)
        with pytest.raises(UsageError):
            TreeDistanceCache(bad)
