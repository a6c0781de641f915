import random
from fractions import Fraction

import pytest

from nedist.errors import UsageError
from nedist.experiments import random_graph
from nedist.graph import parse_edge_list
from nedist.ned import (
    TreeDistanceCache,
    _signature_groups,
    hausdorff_graph_distance,
    ned,
    ned_directed,
    signature,
    signature_distance,
    tree_for,
)
from nedist.ted import UNIT, W_PLUS, WeightScheme, ted_star
from nedist.tree import parse_tree_literal as P

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


def test_hausdorff_sampling_deterministic():
    g1 = parse_edge_list(PATH5)
    g2 = parse_edge_list(star(5, ""))
    runs = {hausdorff_graph_distance(g1, g2, 2, sample=3, seed=42)
            for _ in range(4)}
    assert len(runs) == 1
    for bad in (0, -1, 2.5):
        with pytest.raises(UsageError):
            hausdorff_graph_distance(g1, g2, 2, sample=bad)


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


def brute_force_hausdorff(a, b, k, sample, seed, cache):
    """max-min over every pair of (sampled) nodes, one distance per pair."""
    def nodes(g, salt):
        if sample is not None and sample < g.n:
            return random.Random(seed * 2 + salt).sample(list(range(g.n)), sample)
        return range(g.n)

    dist = signature_distance(a.directed, cache.distance)
    sig_a = [signature(a, u, k) for u in nodes(a, 0)]
    sig_b = [signature(b, v, k) for v in nodes(b, 1)]
    rows = [[dist(x, y) for y in sig_b] for x in sig_a]
    return max(max(min(row) for row in rows),
               max(min(row[j] for row in rows) for j in range(len(sig_b))))


@pytest.mark.parametrize("scheme", HAUSDORFF_SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize("directed", [False, True])
def test_hausdorff_equals_a_brute_force_max_min(directed, scheme):
    a = random_graph(30, 50, seed=31, directed=directed)
    b = random_graph(34, 60, seed=32, directed=directed)
    reference = TreeDistanceCache(scheme)
    for k in (2, 3, 4):
        for sample, seed in ((None, 0), (12, 5)):
            got = hausdorff_graph_distance(a, b, k, sample=sample, seed=seed,
                                           cache=TreeDistanceCache(scheme))
            want = brute_force_hausdorff(a, b, k, sample, seed, reference)
            assert repr(got) == repr(want), (k, sample)


def test_hausdorff_refines_fewer_pairs_than_all():
    a = random_graph(30, 50, seed=31)
    b = random_graph(34, 60, seed=32)
    cache = TreeDistanceCache(W_PLUS)
    hausdorff_graph_distance(a, b, 4, cache=cache)
    pairs = len(_signature_groups(a, range(a.n), 4)) * len(_signature_groups(b, range(b.n), 4))
    # the full matrix asks for every pair
    assert 0 < cache.computations <= cache.evaluations < pairs
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
