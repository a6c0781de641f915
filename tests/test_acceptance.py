"""Release gate: one check per shipped guarantee, one verdict line each.

Every test prints a single ``criterion N ...: PASS/FAIL`` line with the
measured numbers, bypassing capture so the verdicts always reach the
terminal.  Tolerances are pinned here and nowhere else.  Seeds are fixed;
reruns are byte-identical.
"""

import random
import statistics
import time

from nedist.experiments import (
    AnonymizationSpec,
    anonymize,
    deanonymize,
    random_graph,
    random_tree,
    ted_closeness_study,
)
from nedist.ned import TreeDistanceCache, ned, tree_for
from nedist.oracle import (
    enumerate_trees,
    exact_ged_on_trees,
    exact_ted_star,
    exact_unordered_ted,
)
from nedist.ted import UNIT, W_PLUS, ted_star_distance_only
from nedist.vptree import build_index
from schemes import criterion_1_random_scheme


def _verdict(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n{text}: {'PASS' if ok else 'FAIL'}")
    assert ok, text


SCHEMES = [UNIT, W_PLUS, criterion_1_random_scheme()]


def test_criterion_1_metric_axioms(capsys):
    t0 = time.perf_counter()
    rng = random.Random(11)
    pool = [random_tree(rng.randint(2, 60), rng.randint(2, 6),
                        seed=rng.randrange(1 << 30)) for _ in range(60)]
    lits = [t.canonical_literal() for t in pool]
    n = len(pool)
    tally: dict = {}
    tree_triples = 0
    matrices = {}
    for scheme in SCHEMES:
        d = [[scheme.leaf_cost(1) * 0 for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    d[i][j] = ted_star_distance_only(pool[i], pool[j], scheme)
        for i in range(n):
            for j in range(i + 1, n):
                if d[i][j] < 0:
                    tally[(scheme.name, "nonneg")] = tally.get((scheme.name, "nonneg"), 0) + 1
                if d[i][j] != d[j][i]:
                    tally[(scheme.name, "sym")] = tally.get((scheme.name, "sym"), 0) + 1
                if (d[i][j] == 0) != (lits[i] == lits[j]):
                    tally[(scheme.name, "id")] = tally.get((scheme.name, "id"), 0) + 1
        trng = random.Random(13)
        for _ in range(3400):
            i, j, k = trng.randrange(n), trng.randrange(n), trng.randrange(n)
            if d[i][j] + d[j][k] < d[i][k]:
                tally[(scheme.name, "tri")] = tally.get((scheme.name, "tri"), 0) + 1
            tree_triples += 1
        matrices[scheme.name] = d

    graphs = [random_graph(120, 260, seed=31 + i) for i in range(3)]
    refs = [(g, v) for g in graphs for v in range(0, g.n, 3)]
    trees = {(id(g), v): tree_for(g, v, 3) for g, v in refs}
    node_triples = 0
    for scheme in SCHEMES:
        cache = TreeDistanceCache(scheme)

        def nd(a, b):
            return cache.distance(trees[(id(a[0]), a[1])], trees[(id(b[0]), b[1])])

        nrng = random.Random(17)
        for _ in range(3400):
            x, y, z = (nrng.choice(refs) for _ in range(3))
            dxy, dyz, dxz = nd(x, y), nd(y, z), nd(x, z)
            if dxy < 0 or dxy + dyz < dxz:
                tally[(scheme.name, "node")] = tally.get((scheme.name, "node"), 0) + 1
            sx = trees[(id(x[0]), x[1])].canonical_literal()
            sy = trees[(id(y[0]), y[1])].canonical_literal()
            if (dxy == 0) != (sx == sy):
                tally[(scheme.name, "node-id")] = tally.get((scheme.name, "node-id"), 0) + 1
            node_triples += 1
    srng = random.Random(19)
    for _ in range(100):
        (gx, x), (gy, y) = srng.choice(refs), srng.choice(refs)
        if ned(gx, x, gy, y, 3) != ned(gy, y, gx, x, 3):
            tally[("unit", "ned-sym")] = tally.get(("unit", "ned-sym"), 0) + 1

    elapsed = time.perf_counter() - t0
    # every ordered triple of the pool, outside the timed part: reported, not gated
    pool_failures = {s: sum(d[i][j] + d[j][k] < d[i][k] for i in range(n)
                            for j in range(n) for k in range(n))
                     for s, d in matrices.items()}
    with capsys.disabled():
        print(f"\ncriterion 1 triangle failures over all {n ** 3} ordered triples of "
              "the tree pool (not gated): "
              + ", ".join(f"{s} {c}" for s, c in pool_failures.items()))
    detail = ", ".join(f"{s}/{kind}: {c}" for (s, kind), c in sorted(tally.items())) \
        or "none"
    _verdict(capsys, not tally and elapsed < 120,
             f"criterion 1 metric axioms ({tree_triples} tree triples, "
             f"{node_triples} node triples, 3 schemes, {elapsed:.1f}s, "
             f"limit 120s; violations: {detail})")


def test_criterion_2_oracle_equality(capsys):
    trees = list(enumerate_trees(7, 3))
    mismatches = []
    pairs = 0
    for i in range(len(trees)):
        for j in range(i, len(trees)):
            pairs += 1
            if ted_star_distance_only(trees[i], trees[j]) != \
                    exact_ted_star(trees[i], trees[j]):
                mismatches.append((trees[i].canonical_literal(),
                                   trees[j].canonical_literal()))
    rng = random.Random(0)
    for _ in range(1000):
        a = random_tree(rng.randint(1, 8), rng.randint(2, 5),
                        seed=rng.randrange(1 << 30))
        b = random_tree(rng.randint(1, 8), rng.randint(2, 5),
                        seed=rng.randrange(1 << 30))
        pairs += 1
        exact = exact_ted_star(a, b, budget=16)
        if exact is not None and ted_star_distance_only(a, b) != exact:
            mismatches.append((a.canonical_literal(), b.canonical_literal()))
    _verdict(capsys, not mismatches,
             f"criterion 2 oracle equality ({pairs} pairs, "
             f"{len(mismatches)} mismatches{': ' if mismatches else ''}"
             f"{mismatches[:3] if mismatches else ''})")


def test_criterion_3_distance_bounds(capsys):
    trees = list(enumerate_trees(6))
    ged_bad = ted_bad = pairs = 0
    for i in range(len(trees)):
        for j in range(i, len(trees)):
            a, b = trees[i], trees[j]
            pairs += 1
            if exact_ged_on_trees(a, b) > 2 * ted_star_distance_only(a, b):
                ged_bad += 1
            if exact_unordered_ted(a, b) > ted_star_distance_only(a, b, W_PLUS):
                ted_bad += 1
    _verdict(capsys, ged_bad == 0 and ted_bad == 0,
             f"criterion 3 bounds on {pairs} oracle pairs "
             f"(GED<=2*d: {ged_bad} violations, TED<=d_W+: {ted_bad} violations)")


def test_criterion_4_monotone_in_k(capsys):
    # graphs large enough that depth-6 neighborhoods do not swallow them
    g1 = random_graph(400, 700, seed=41)
    g2 = random_graph(400, 700, seed=42)
    cache = TreeDistanceCache()
    rng = random.Random(43)
    violations = 0
    for _ in range(1000):
        u, v = rng.randrange(g1.n), rng.randrange(g2.n)
        prev = 0
        for k in range(1, 7):
            cur = cache.distance(tree_for(g1, u, k), tree_for(g2, v, k))
            if cur < prev:
                violations += 1
            prev = cur
    _verdict(capsys, violations == 0,
             f"criterion 4 monotonicity in k (1000 node pairs, k=1..6, "
             f"{violations} violations)")


def test_criterion_5_closeness_to_exact_ted(capsys):
    stats = ted_closeness_study(n_max=6)
    ok = stats.equality_ratio >= 0.5
    _verdict(capsys, ok,
             f"criterion 5 closeness on exhaustive <=6-node corpus "
             f"(equality ratio {stats.equality_ratio:.3f} >= 0.5, "
             f"mean relative error {stats.mean_relative_error:.3f})")


def test_criterion_6_performance(capsys):
    def median_ms(size, seed0, reps=12):
        times = []
        rng = random.Random(seed0)
        for _ in range(reps):
            a = random_tree(size, 3, seed=rng.randrange(1 << 30))
            b = random_tree(size, 3, seed=rng.randrange(1 << 30))
            t0 = time.perf_counter()
            ted_star_distance_only(a, b)
            times.append((time.perf_counter() - t0) * 1000)
        return statistics.median(times)

    m500 = median_ms(500, 61)
    m250 = median_ms(250, 62)
    ratio = m500 / m250
    ok = m500 <= 10.0 and ratio <= 10.0
    _verdict(capsys, ok,
             f"criterion 6 performance (500-node depth-3 median {m500:.2f}ms "
             f"<= 10ms; width-doubling ratio {ratio:.1f}x <= 10x)")


def test_criterion_7_index_exactness(capsys):
    g = random_graph(10_000, 25_000, seed=71)
    cache = TreeDistanceCache()
    index = build_index(g, 2, seed=72, cache=cache)
    rng = random.Random(73)
    bad = 0
    evals = []
    for _ in range(200):
        q = tree_for(g, rng.randrange(g.n), 2)
        got, used = index.knn(q, 5)
        if got != index.linear_scan(q, l=5):
            bad += 1
        evals.append(used)
    for _ in range(200):
        q = tree_for(g, rng.randrange(g.n), 2)
        r = rng.choice((0, 1, 2, 3))
        got, _ = index.range_query(q, r)
        if got != index.linear_scan(q, r=r):
            bad += 1
    frac = statistics.mean(evals) / len(index)
    _verdict(capsys, bad == 0 and frac < 0.60,
             f"criterion 7 index exactness (400 probes, {bad} mismatches; "
             f"knn evals {100 * frac:.1f}% of scan < 60%)")


def test_criterion_8_deanonymization(capsys):
    g = random_graph(1000, 2000, seed=81)
    cache = TreeDistanceCache()
    anon, truth = anonymize(g, AnonymizationSpec("naive", seed=82))
    naive = deanonymize(g, anon, truth, k=3, l=5, sample_size=80, seed=83,
                        cache=cache)
    sweep = []
    for p in (0.0, 0.02, 0.05, 0.10):
        anon, truth = anonymize(g, AnonymizationSpec("perturb", p=p, seed=82))
        sweep.append(deanonymize(g, anon, truth, k=3, l=5, sample_size=80,
                                 seed=83, cache=cache).precision)
    monotone = all(a >= b for a, b in zip(sweep, sweep[1:]))
    ok = naive.precision == 1.0 and monotone
    _verdict(capsys, ok,
             f"criterion 8 de-anonymization (naive precision "
             f"{naive.precision:.3f} == 1.0; perturbation sweep "
             f"{[round(x, 3) for x in sweep]} non-increasing)")


def test_criterion_9_hausdorff_metric(capsys):
    from nedist.vptree import hausdorff_graph_distance as hgd

    violations = 0
    for i in range(50):
        g = random_graph(10 + i % 40 + 1, 2 * (10 + i % 40 + 1), seed=91 + i)
        if hgd(g, g, 2) != 0:
            violations += 1

    cache = TreeDistanceCache()
    pool = [random_graph(20 + 2 * i, 3 * (20 + 2 * i) // 2, seed=191 + i)
            for i in range(12)]
    n = len(pool)
    h = [[hgd(pool[i], pool[j], 2, cache=cache) for j in range(n)]
         for i in range(n)]
    rng = random.Random(93)
    triples = 0
    for _ in range(1000):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if h[i][j] != h[j][i] or h[i][j] + h[j][k] < h[i][k]:
            violations += 1
        triples += 1
    _verdict(capsys, violations == 0,
             f"criterion 9 Hausdorff metric (50 identities, {triples} graph "
             f"triples, {violations} violations)")
