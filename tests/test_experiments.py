import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nedist.errors import UsageError
from nedist.experiments import (
    AnonymizationSpec,
    anonymize,
    deanonymize,
    k_effect_study,
    random_graph,
    random_tree,
    scaling_study,
    ted_closeness_study,
)
from nedist import experiments
from nedist.graph import parse_edge_list
from nedist.ned import TreeDistanceCache, signature, signature_distance, tree_for
from nedist.ted import UNIT, W_PLUS, WeightScheme
from nedist.oracle import enumerate_trees
from nedist.vptree import VpIndex

REFERENCE_SCHEMES = {
    "unit": UNIT,
    "wplus": W_PLUS,
    "float": WeightScheme(leaf=lambda lv: 0.1 * lv + 0.07, move=lambda lv: 0.3 * lv + 0.11),
    "fraction": WeightScheme(leaf=lambda lv: Fraction(lv, 3),
                             move=lambda lv: Fraction(2 * lv + 1, 7)),
}


def test_spec_validation():
    with pytest.raises(UsageError):
        AnonymizationSpec("shuffle")
    with pytest.raises(UsageError):
        AnonymizationSpec("perturb", p=1.5)


def test_random_tree_shape():
    t = random_tree(30, 4, seed=1)
    assert t.size == 30
    assert t.depth <= 4
    t.validate()
    assert random_tree(1, 1, seed=0).size == 1
    with pytest.raises(UsageError):
        random_tree(5, 1, seed=0)   # a single level cannot hold 5 nodes


def test_generators_reject_bad_counts():
    for bad in (0, -1, 2.5):
        with pytest.raises(UsageError, match="n must"):
            random_tree(bad, 3, seed=0)
        with pytest.raises(UsageError, match="depth_max"):
            random_tree(3, bad, seed=0)
        with pytest.raises(UsageError, match="n must"):
            random_graph(bad, 1, seed=0)
    for bad in (-1, 2.5, 11):
        with pytest.raises(UsageError, match="edge count"):
            random_graph(5, bad, seed=0)
    assert random_graph(5, 10, seed=0).n == 5


def test_random_graph_shape():
    g = random_graph(50, 100, seed=2)
    assert g.n == 50
    assert g.edge_count == 100
    with pytest.raises(UsageError):
        random_graph(3, 10, seed=0)


def test_naive_anonymization_is_isomorphic():
    g = random_graph(30, 60, seed=3)
    anon, truth = anonymize(g, AnonymizationSpec("naive", seed=4))
    assert anon.n == g.n
    assert anon.edge_count == g.edge_count
    assert sorted(truth.values()) == sorted(g.labels)
    for v in range(anon.n):
        orig = g.resolve(truth[anon.labels[v]])
        assert (tree_for(anon, v, 3).canonical_literal()
                == tree_for(g, orig, 3).canonical_literal())


def test_sparsify_zero_equals_naive():
    g = random_graph(30, 60, seed=3)
    a1, t1 = anonymize(g, AnonymizationSpec("sparsify", p=0.0, seed=7))
    a2, t2 = anonymize(g, AnonymizationSpec("naive", seed=7))
    assert sorted(a1.edges()) == sorted(a2.edges())
    assert t1 == t2


def test_sparsify_removes_requested_fraction():
    g = random_graph(30, 60, seed=3)
    anon, _ = anonymize(g, AnonymizationSpec("sparsify", p=0.25, seed=7))
    assert anon.edge_count == 45


def test_perturb_preserves_edge_count():
    g = random_graph(20, 40, seed=8)
    anon, _ = anonymize(g, AnonymizationSpec("perturb", p=1.0, seed=9))
    assert anon.edge_count == 40


def test_edit_streams_nest_across_p():
    g = random_graph(30, 60, seed=3)
    small, _ = anonymize(g, AnonymizationSpec("sparsify", p=0.1, seed=7))
    large, _ = anonymize(g, AnonymizationSpec("sparsify", p=0.3, seed=7))
    assert set(large.edges()) <= set(small.edges())


def test_deanonymize_naive_perfect():
    g = random_graph(40, 80, seed=10)
    anon, truth = anonymize(g, AnonymizationSpec("naive", seed=11))
    for l in (1, 3):
        report = deanonymize(g, anon, truth, k=3, l=l)
        assert report.precision == 1.0
        assert all(r.top_distances[0] == 0 for r in report.rows)


def test_deanonymize_precision_nondecreasing_in_l():
    g = random_graph(40, 80, seed=10)
    anon, truth = anonymize(g, AnonymizationSpec("perturb", p=0.1, seed=11))
    p1 = deanonymize(g, anon, truth, k=3, l=1).precision
    p5 = deanonymize(g, anon, truth, k=3, l=5).precision
    assert p1 <= p5


def test_tie_policies_differ_only_at_cutoff():
    g = random_graph(40, 80, seed=10)
    anon, truth = anonymize(g, AnonymizationSpec("naive", seed=11))
    inc = deanonymize(g, anon, truth, k=1, l=1, tie_policy="inclusive")
    exc = deanonymize(g, anon, truth, k=1, l=1, tie_policy="exclusive")
    # at k=1 all trees are identical, so everything ties at distance zero
    assert inc.precision == 1.0
    assert exc.precision <= inc.precision


def test_deanonymize_sampling_and_determinism():
    g = random_graph(40, 80, seed=10)
    anon, truth = anonymize(g, AnonymizationSpec("perturb", p=0.05, seed=12))
    r1 = deanonymize(g, anon, truth, k=2, l=3, sample_size=15, seed=6)
    r2 = deanonymize(g, anon, truth, k=2, l=3, sample_size=15, seed=6)
    assert r1.sample_size == 15
    assert [(x.anon_node, x.rank, x.hit) for x in r1.rows] == \
        [(x.anon_node, x.rank, x.hit) for x in r2.rows]
    for bad in (0, -1, 2.5):
        with pytest.raises(UsageError):
            deanonymize(g, anon, truth, k=2, l=3, sample_size=bad)
        with pytest.raises(UsageError):
            deanonymize(g, anon, truth, k=2, l=bad)
    empty = parse_edge_list("")
    for train, query in ((g, empty), (empty, anon)):
        with pytest.raises(UsageError):
            deanonymize(train, query, truth, k=2, l=1)


def test_deanonymize_rejects_bad_options():
    g = random_graph(20, 40, seed=10)
    anon, truth = anonymize(g, AnonymizationSpec("naive", seed=11))
    with pytest.raises(UsageError, match="unknown tie policy"):
        deanonymize(g, anon, truth, k=2, l=3, tie_policy="loose")
    with pytest.raises(UsageError, match="unknown ranking method"):
        deanonymize(g, anon, truth, k=2, l=3, method="pagerank")
    directed = random_graph(20, 40, seed=10, directed=True)
    for train, query in ((g, directed), (directed, anon)):
        with pytest.raises(UsageError, match="share directedness"):
            deanonymize(train, query, truth, k=2, l=3)


def test_deanonymize_checks_its_truth_map():
    g = random_graph(20, 40, seed=10)
    anon, truth = anonymize(g, AnonymizationSpec("naive", seed=11))
    missing = dict(truth)
    del missing[anon.labels[0]]
    stranger = dict(truth, **{anon.labels[0]: "not-a-node"})
    for bad in (missing, stranger):
        with pytest.raises(UsageError):
            deanonymize(g, anon, bad, k=2, l=3)


def test_deanonymize_takes_its_scheme_from_the_cache():
    # x and p are 1 apart under unit weights and 2 apart under W_PLUS
    g = parse_edge_list("x y\nx z\ny y1\ny y2\np q\np r\nq q1\nr r1\n")
    anon, truth = anonymize(g, AnonymizationSpec("naive", seed=3))
    weighted = deanonymize(g, anon, truth, k=3, l=g.n, cache=TreeDistanceCache(W_PLUS))
    unit = deanonymize(g, anon, truth, k=3, l=g.n)
    assert unit.rows == deanonymize(g, anon, truth, k=3, l=g.n,
                                    cache=TreeDistanceCache()).rows
    assert weighted.rows != unit.rows


def reference_deanonymize(train, anon, truth, k, l, sample_size, seed, tie_policy, cache):
    """deanonymize's ned rows from a sort of every (distance, label)."""
    distance = signature_distance(train.directed, cache.distance)
    queries = sorted(random.Random(seed).sample(range(anon.n), sample_size))
    rows = []
    for u in queries:
        s = signature(anon, u, k)
        ranked = sorted((distance(s, signature(train, v, k)), lab)
                        for v, lab in enumerate(train.labels))
        true_id = truth[anon.labels[u]]
        rank = [lab for _, lab in ranked].index(true_id) + 1
        if tie_policy == "inclusive" and l <= len(ranked):
            hit = ranked[rank - 1][0] <= ranked[l - 1][0]
        else:
            hit = rank <= l
        rows.append(experiments.DeanonRow(anon.labels[u], true_id, rank, hit,
                                          [d for d, _ in ranked[:l]]))
    return rows


@pytest.mark.parametrize("scheme", sorted(REFERENCE_SCHEMES))
@pytest.mark.parametrize("directed", [False, True])
def test_deanonymize_equals_a_full_sort(directed, scheme):
    # at k = 4 the index's lower bound sits below TED* for some pairs, so
    # that depth also checks the refinement past the bound's first guess
    w = REFERENCE_SCHEMES[scheme]
    g = random_graph(40, 75, seed=21, directed=directed)
    anon, truth = anonymize(g, AnonymizationSpec("perturb", p=0.15, seed=22))
    cache = TreeDistanceCache(w)
    for k in (2, 3, 4):
        for tie_policy in ("inclusive", "exclusive"):
            for l in (1, 5, g.n + 10):
                report = deanonymize(g, anon, truth, k=k, l=l, sample_size=10,
                                     seed=k + l, tie_policy=tie_policy, cache=cache)
                expected = reference_deanonymize(g, anon, truth, k, l, 10, k + l,
                                                 tie_policy, TreeDistanceCache(w))
                assert repr(report.rows) == repr(expected), (k, tie_policy, l)
                assert [[type(d) for d in r.top_distances] for r in report.rows] == \
                    [[type(d) for d in r.top_distances] for r in expected]


def test_deanonymize_builds_one_index_per_graph_k_and_cache(monkeypatch):
    built = []
    build_index = experiments.build_index

    def counting_build_index(g, k, seed=0, cache=None):
        built.append((g, k, cache))
        return build_index(g, k, seed, cache)

    monkeypatch.setattr(experiments, "build_index", counting_build_index)
    g = random_graph(30, 60, seed=10)
    anon, truth = anonymize(g, AnonymizationSpec("perturb", p=0.1, seed=11))
    cache, other = TreeDistanceCache(), TreeDistanceCache()
    first = deanonymize(g, anon, truth, k=3, l=2, sample_size=5, seed=1, cache=cache)
    again = deanonymize(g, anon, truth, k=3, l=2, sample_size=5, seed=1, cache=cache)
    assert built == [(g, 3, cache)]
    assert again.rows == first.rows and again.evaluations == first.evaluations > 0
    deanonymize(g, anon, truth, k=3, l=2, sample_size=5, seed=1, cache=other)
    deanonymize(g, anon, truth, k=2, l=2, sample_size=5, seed=1, cache=cache)
    assert built == [(g, 3, cache), (g, 3, other), (g, 2, cache)]
    deanonymize(g, anon, truth, k=3, l=2, sample_size=5, seed=1, cache=other)
    assert len(built) == 3
    # without a cache there is nothing a later call could share
    deanonymize(g, anon, truth, k=3, l=2, sample_size=5, seed=1)
    deanonymize(g, anon, truth, k=3, l=2, sample_size=5, seed=1)
    assert len(built) == 5


def record_refinements(monkeypatch):
    """Every (query, signature group) the index refines, in order; a query
    is keyed by the identity of its (memoized) trees."""
    refined = []
    refine = VpIndex._refine

    def recording_refine(self, query, g):
        trees = query if isinstance(query, tuple) else (query,)
        refined.append((tuple(map(id, trees)), g))
        return refine(self, query, g)

    monkeypatch.setattr(VpIndex, "_refine", recording_refine)
    return refined


@pytest.mark.parametrize("directed", [False, True])
def test_no_signature_group_is_refined_twice_per_query(monkeypatch, directed):
    refined = record_refinements(monkeypatch)
    g = random_graph(40, 75, seed=21, directed=directed)
    anon, truth = anonymize(g, AnonymizationSpec("perturb", p=0.15, seed=22))
    for k in (2, 3, 4):
        for l in (1, 5):
            refined.clear()
            deanonymize(g, anon, truth, k=k, l=l, sample_size=10, seed=k + l,
                        cache=TreeDistanceCache(W_PLUS))
            if k <= 3:   # the bound is the distance: nothing to refine
                assert refined == [], (k, l)
            else:
                assert refined and len(set(refined)) == len(refined), (k, l)
    if not directed:   # only k = 4 refines
        refined.clear()
        k_effect_study(g, random_graph(45, 90, seed=14), num_queries=12,
                       k_range=range(1, 5), l=5, seed=3)
        assert refined and len(set(refined)) == len(refined)


def test_degree_baseline_runs():
    g = random_graph(40, 80, seed=10)
    anon, truth = anonymize(g, AnonymizationSpec("naive", seed=11))
    report = deanonymize(g, anon, truth, k=2, l=5, method="degree")
    assert report.method == "degree"
    assert 0 <= report.precision <= 1
    for bad in (0, 2.5):
        with pytest.raises(UsageError):
            deanonymize(g, anon, truth, k=bad, l=5, method="degree")


def test_pinned_degree_rankings():
    digest = hashlib.sha256()
    for directed in (False, True):
        g = random_graph(60, 120, seed=3, directed=directed)
        anon, truth = anonymize(g, AnonymizationSpec("perturb", p=0.1, seed=4))
        for l in (1, 5):
            report = deanonymize(g, anon, truth, k=2, l=l, method="degree")
            digest.update(repr(report).encode())
    assert digest.hexdigest() == \
        "80425cd2084d4f17a36f6b80389db918aeafd14bbb9aa3cbb79f383875fa890f"


def test_closeness_identical_pairs():
    trees = list(enumerate_trees(4))
    stats = ted_closeness_study(pairs=[(t, t) for t in trees])
    assert stats.mean_relative_error == 0
    assert stats.equality_ratio == 1.0
    with pytest.raises(UsageError):
        ted_closeness_study(pairs=[])


def test_closeness_default_corpus():
    stats = ted_closeness_study(n_max=5)
    assert stats.pairs == 17 * 18 // 2
    assert 0 <= stats.mean_relative_error
    assert 0 < stats.equality_ratio <= 1
    assert set(stats.per_depth_equality) <= set(range(1, 6))
    for bad in (0, -1, 2.5):
        with pytest.raises(UsageError):
            ted_closeness_study(n_max=bad)


def test_scaling_rows():
    rows = scaling_study(sizes=(1, 30), ks=(2, 3), pairs_per_bucket=2, seed=0)
    assert len(rows) == 4
    floor = next(r for r in rows if r["size"] == 1)
    assert floor["median_ms"] >= 0
    assert all(r["pairs"] == 2 for r in rows)


def test_scaling_rejects_zero_pairs():
    for bad in (0, -1):
        with pytest.raises(UsageError):
            scaling_study(sizes=(5,), ks=(2,), pairs_per_bucket=bad)


def test_scaling_rejects_bad_sizes_and_depths():
    for bad in (0, -1, 2.5):
        with pytest.raises(UsageError, match="size"):
            scaling_study(sizes=(5, bad), ks=(2,), pairs_per_bucket=1)
        with pytest.raises(UsageError, match="k must"):
            scaling_study(sizes=(1,), ks=(2, bad), pairs_per_bucket=1)


def test_k_effect_counts():
    g1 = random_graph(25, 50, seed=13)
    g2 = random_graph(25, 50, seed=14)
    rows = k_effect_study(g1, g2, num_queries=8, k_range=range(1, 4), l=3, seed=0)
    for bad in (0, -1, 2.5):
        with pytest.raises(UsageError):
            k_effect_study(g1, g2, num_queries=bad)
        with pytest.raises(UsageError):
            k_effect_study(g1, g2, num_queries=3, l=bad)
    empty = parse_edge_list("")
    for a, b in ((empty, g2), (g1, empty)):
        with pytest.raises(UsageError):
            k_effect_study(a, b, num_queries=3)
    directed = random_graph(25, 50, seed=13, directed=True)
    for a, b in ((directed, g2), (g1, directed)):
        with pytest.raises(UsageError, match="undirected"):
            k_effect_study(a, b, num_queries=3)
    assert rows[0]["k"] == 1
    assert rows[0]["mean_nn0"] == g2.n   # depth-1 trees are all identical
    nn0 = [r["mean_nn0"] for r in rows]
    assert all(x >= y for x, y in zip(nn0, nn0[1:]))


@pytest.mark.parametrize("l", [1, 5, 60])
def test_k_effect_equals_a_full_sort(l):
    g1 = random_graph(40, 80, seed=13)
    g2 = random_graph(45, 90, seed=14)
    rows = k_effect_study(g1, g2, num_queries=12, k_range=range(1, 5), l=l, seed=3)
    queries = sorted(random.Random(3).sample(range(g1.n), 12))
    cache = TreeDistanceCache()
    for row, k in zip(rows, range(1, 5)):
        nn0, ties = [], []
        for u in queries:
            dists = sorted(cache.distance(tree_for(g1, u, k), tree_for(g2, v, k))
                           for v in range(g2.n))
            nn0.append(dists.count(0))
            ties.append(sum(d <= dists[l - 1] for d in dists) - l if l <= g2.n else 0)
        assert row == {"k": k, "queries": 12, "mean_nn0": sum(nn0) / 12,
                       "mean_ties": sum(ties) / 12}


SRC = Path(__file__).resolve().parent.parent / "src"


def run_bounded(*argv):
    """Run a fresh interpreter on ``src``; a stall fails the test after 60 s
    (subprocess.TimeoutExpired) instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=60, env=env)


def test_perturb_refuses_a_graph_without_enough_absent_pairs():
    # a triangle, and a directed 2-cycle, have no absent pair; the insertion
    # loop once drew forever
    done = run_bounded("-c", (
        "from nedist import AnonymizationSpec, UsageError, anonymize, parse_edge_list\n"
        "for text, directed in (('a b\\na c\\nb c\\n', False), ('a b\\nb a\\n', True)):\n"
        "    try:\n"
        "        g = parse_edge_list(text, directed)\n"
        "        anonymize(g, AnonymizationSpec('perturb', 0.5, 1))\n"
        "    except UsageError as exc:\n"
        "        print('refused:', exc)\n"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "refused: perturb needs 2 absent node pairs to insert, the graph has 0\n"
        "refused: perturb needs 1 absent node pairs to insert, the graph has 0\n")


def test_cli_deanon_perturb_on_a_complete_graph_is_a_usage_error(tmp_path):
    path = tmp_path / "k6.el"
    path.write_text("".join(f"v{i} v{j}\n" for i in range(6) for j in range(i + 1, 6)))
    done = run_bounded("-m", "nedist.cli", "deanon", "--graph", str(path), "--method",
                       "perturb", "--p", "0.2", "--k", "2", "-l", "1")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: perturb needs 3 absent node pairs")


def test_perturb_inserts_into_the_last_absent_pairs():
    path = parse_edge_list("a b\nb c\n")   # one absent pair, a c
    anon, truth = anonymize(path, AnonymizationSpec("perturb", 0.5, 3))
    assert len(list(anon.edges())) == 2
    cycle = parse_edge_list("a b\nb c\nc a\n", directed=True)   # three absent pairs
    anon, _ = anonymize(cycle, AnonymizationSpec("perturb", 1.0, 3))
    assert len(list(anon.edges())) == 3
