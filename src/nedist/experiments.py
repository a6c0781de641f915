"""Seeded desk-scale experiment harnesses.

Every routine here takes an explicit seed and replays byte-identically:
anonymization edit streams, query sampling, and synthetic generators all
draw from their own random.Random instances.  Results come back as plain
dataclasses / row dicts so the CLI can render them as text or CSV.
"""

from __future__ import annotations

import math
import random
import statistics
import time
import warnings
from dataclasses import dataclass

from .errors import UsageError
from .graph import Graph, build_graph
from .ned import TreeDistanceCache, signature, signature_distance, tree_for
from .oracle import enumerate_trees, exact_unordered_ted
from .ted import UNIT, WeightScheme, ted_star_distance_only
from .tree import LevelTree, TreeNode

ANON_METHODS = ("naive", "sparsify", "perturb")


# ---------------------------------------------------------------------------
# synthetic generators

def random_tree(n: int, depth_max: int, seed=0) -> LevelTree:
    """Seeded random tree: nodes attach to a uniformly chosen earlier node
    whose depth stays below ``depth_max``."""
    if n < 1 or depth_max < 1:
        raise UsageError("random_tree needs n >= 1 and depth_max >= 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    levels: list[list[TreeNode]] = [[TreeNode(parent=None)]]
    depths = [0]
    per_level = [1]
    within = [0]                       # index of each node inside its level
    candidates = [0] if depth_max > 1 else []
    for _ in range(n - 1):
        if not candidates:
            raise UsageError("depth_max too small for the requested node count")
        p = rng.choice(candidates)
        d = depths[p] + 1
        if d == len(levels):
            levels.append([])
            per_level.append(0)
        levels[d].append(TreeNode(parent=within[p]))
        depths.append(d)
        within.append(per_level[d])
        per_level[d] += 1
        if d + 1 < depth_max:
            candidates.append(len(depths) - 1)
    return LevelTree(levels=levels)


def random_graph(n: int, m: int, seed=0, directed: bool = False) -> Graph:
    """Uniform simple graph with n nodes and m distinct edges (no self-loops)."""
    if n < 1:
        raise UsageError("random_graph needs n >= 1")
    limit = n * (n - 1) if directed else n * (n - 1) // 2
    if m < 0 or m > limit:
        raise UsageError(f"edge count {m} outside 0..{limit}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if not directed and i > j:
            i, j = j, i
        chosen.add((i, j))
    labels = [f"v{i}" for i in range(n)]
    return build_graph(labels, sorted(chosen), directed)


# ---------------------------------------------------------------------------
# anonymization

@dataclass(frozen=True)
class AnonymizationSpec:
    """How to derive an anonymous copy of a graph.

    naive relabels nodes by a seeded permutation; sparsify also deletes a
    fraction p of edges; perturb deletes a fraction p and inserts the same
    number of previously absent edges.
    """
    method: str
    p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.method not in ANON_METHODS:
            raise UsageError(f"unknown anonymization method {self.method!r}")
        if not 0 <= self.p <= 1:
            raise UsageError(f"ratio p must lie in [0,1], got {self.p}")


def anonymize(g: Graph, spec: AnonymizationSpec):
    """Anonymous copy plus ground truth {anonymous label: original label}.

    Edge edits are drawn as seeded streams, so sweeps over growing p with a
    fixed seed apply nested edit sets: everything removed at p1 < p2 is also
    removed at p2, and likewise for insertions.
    """
    rng = random.Random(spec.seed)
    perm = list(range(g.n))            # new index -> old index
    rng.shuffle(perm)
    old_to_new = [0] * g.n
    for new, old in enumerate(perm):
        old_to_new[old] = new

    edges = sorted(g.edges())
    n_edit = 0
    if spec.method in ("sparsify", "perturb"):
        n_edit = math.ceil(spec.p * len(edges) - 1e-12)
        if n_edit > len(edges):
            warnings.warn("requested more deletions than edges exist; clamping")
            n_edit = len(edges)
    removal_order = list(edges)
    rng.shuffle(removal_order)
    kept = set(edges) - set(removal_order[:n_edit])

    if spec.method == "perturb" and n_edit:
        present = set(edges)
        added = []
        while len(added) < n_edit:
            i = rng.randrange(g.n)
            j = rng.randrange(g.n)
            if i == j:
                continue
            if not g.directed and i > j:
                i, j = j, i
            e = (i, j)
            if e in present:
                continue
            present.add(e)
            added.append(e)
        kept |= set(added)

    labels = [f"n{new}" for new in range(g.n)]
    new_edges = sorted((old_to_new[i], old_to_new[j]) for i, j in kept)
    anon = build_graph(labels, new_edges, g.directed)
    truth = {f"n{old_to_new[old]}": g.labels[old] for old in range(g.n)}
    return anon, truth


# ---------------------------------------------------------------------------
# de-anonymization

@dataclass
class DeanonRow:
    anon_node: str
    true_id: str
    rank: int                   # 1-based position of the true id in the ranking
    hit: bool
    top_distances: list


@dataclass
class DeanonReport:
    rows: list[DeanonRow]
    k: int
    l: int
    sample_size: int
    tie_policy: str
    method: str

    @property
    def precision(self) -> float:
        return sum(r.hit for r in self.rows) / len(self.rows)


def _node_distance_fn(train: Graph, anon: Graph, k: int,
                      weights: WeightScheme, cache: TreeDistanceCache | None):
    if cache is None:
        cache = TreeDistanceCache(weights)
    distance = signature_distance(train.directed, cache.distance)
    return lambda u, v: distance(signature(anon, u, k), signature(train, v, k))


def _degree_signature(g: Graph, v: int):
    mode = "out" if g.directed else "undirected"
    return tuple(sorted(len(g.neighbors(w, mode)) for w in g.neighbors(v, mode)))


def _degree_distance_fn(train: Graph, anon: Graph):
    """Baseline similarity from degree and sorted neighbor-degree sequences.

    Deliberately crude plumbing for precision comparisons; it is not a
    recursive feature method.
    """
    mode = "out" if train.directed else "undirected"
    sig_t = [_degree_signature(train, v) for v in range(train.n)]
    sig_a = [_degree_signature(anon, v) for v in range(anon.n)]

    def hist_l1(a, b):
        counts: dict[int, int] = {}
        for x in a:
            counts[x] = counts.get(x, 0) + 1
        for x in b:
            counts[x] = counts.get(x, 0) - 1
        return sum(abs(c) for c in counts.values())

    def dist(u, v):
        du = len(anon.neighbors(u, mode))
        dv = len(train.neighbors(v, mode))
        return abs(du - dv) + hist_l1(sig_a[u], sig_t[v])

    return dist


def deanonymize(train: Graph, anon: Graph, truth: dict, k: int, l: int,
                sample_size: int | None = None, seed: int = 0,
                weights: WeightScheme = UNIT, tie_policy: str = "inclusive",
                method: str = "ned",
                cache: TreeDistanceCache | None = None) -> DeanonReport:
    """Rank training nodes against each sampled anonymous node.

    A query is a hit when its true identity lands within the top l; with the
    inclusive tie policy every node tied with the l-th distance also counts
    as inside the cutoff.
    """
    if l < 1:
        raise UsageError("l must be >= 1")
    if tie_policy not in ("inclusive", "exclusive"):
        raise UsageError(f"unknown tie policy {tie_policy!r}")
    if train.directed != anon.directed:
        raise UsageError("train and anonymous graphs must share directedness")
    if method == "ned":
        dist = _node_distance_fn(train, anon, k, weights, cache)
    elif method == "degree":
        dist = _degree_distance_fn(train, anon)
    else:
        raise UsageError(f"unknown ranking method {method!r}")

    queries = list(range(anon.n))
    if sample_size is not None and sample_size < len(queries):
        queries = sorted(random.Random(seed).sample(queries, sample_size))

    rows = []
    for u in queries:
        ranked = sorted((dist(u, v), train.labels[v]) for v in range(train.n))
        true_id = truth[anon.labels[u]]
        rank = next(i for i, (_, lab) in enumerate(ranked, start=1)
                    if lab == true_id)
        if tie_policy == "inclusive" and l <= len(ranked):
            cutoff = ranked[l - 1][0]
            hit = ranked[rank - 1][0] <= cutoff
        else:
            hit = rank <= l
        rows.append(DeanonRow(anon_node=anon.labels[u], true_id=true_id,
                              rank=rank, hit=hit,
                              top_distances=[d for d, _ in ranked[:l]]))
    return DeanonReport(rows=rows, k=k, l=l, sample_size=len(queries),
                        tie_policy=tie_policy, method=method)


# ---------------------------------------------------------------------------
# closeness of the level distance to the classical edit distance

@dataclass
class TedClosenessStats:
    pairs: int
    mean_relative_error: float
    stddev_relative_error: float
    equality_ratio: float
    per_depth_equality: dict[int, float]


def ted_closeness_study(pairs=None, n_max: int = 6) -> TedClosenessStats:
    """Relative gap |TED - TED*| / TED over a tiny-tree corpus.

    Defaults to every unordered pair from the exhaustive corpus of trees
    with at most n_max nodes.  Pairs with TED = 0 are excluded from the
    relative-error aggregate (both distances are 0 there by identity) but
    still count toward the equality ratio.
    """
    if pairs is None:
        trees = list(enumerate_trees(n_max))
        pairs = [(trees[i], trees[j])
                 for i in range(len(trees)) for j in range(i, len(trees))]
    rel_errors = []
    equal = 0
    by_depth: dict[int, list[int]] = {}
    for a, b in pairs:
        ted = exact_unordered_ted(a, b)
        ts = ted_star_distance_only(a, b)
        is_eq = ted == ts
        equal += is_eq
        by_depth.setdefault(max(a.depth, b.depth), []).append(is_eq)
        if ted:
            rel_errors.append(abs(ted - ts) / ted)
    return TedClosenessStats(
        pairs=len(pairs),
        mean_relative_error=statistics.fmean(rel_errors) if rel_errors else 0.0,
        stddev_relative_error=(statistics.pstdev(rel_errors) if rel_errors else 0.0),
        equality_ratio=equal / len(pairs),
        per_depth_equality={d: sum(v) / len(v) for d, v in sorted(by_depth.items())},
    )


# ---------------------------------------------------------------------------
# timing

def scaling_study(sizes=(50, 100, 200, 500), ks=(3,), pairs_per_bucket: int = 5,
                  seed: int = 0, timer=time.perf_counter) -> list[dict]:
    """Wall-time rows for random tree pairs, one row per (size, depth) bucket.

    Trees are depth-capped at the bucket's k, matching how neighborhood
    trees of depth k look.  Columns: size, k, pairs, median_ms, p90_ms,
    mean_ms.
    """
    rng = random.Random(seed)
    rows = []
    for k in ks:
        for size in sizes:
            samples = []
            for _ in range(pairs_per_bucket):
                t1 = random_tree(size, max(k, 1), rng)
                t2 = random_tree(size, max(k, 1), rng)
                start = timer()
                ted_star_distance_only(t1, t2)
                samples.append((timer() - start) * 1000.0)
            samples.sort()
            rows.append({
                "size": size,
                "k": k,
                "pairs": pairs_per_bucket,
                "median_ms": statistics.median(samples),
                "p90_ms": samples[min(len(samples) - 1, int(0.9 * len(samples)))],
                "mean_ms": statistics.fmean(samples),
            })
    return rows


# ---------------------------------------------------------------------------
# effect of the neighborhood depth k

def k_effect_study(g1: Graph, g2: Graph, num_queries: int, k_range=range(1, 7),
                   l: int = 5, seed: int = 0,
                   weights: WeightScheme = UNIT) -> list[dict]:
    """Per-k counts of distance-0 nearest neighbors and top-l cutoff ties.

    Queries are seeded nodes of g1 ranked against all nodes of g2.  Columns:
    k, queries, mean_nn0 (average number of distance-0 matches), mean_ties
    (average candidates tied at the l-th distance beyond the first l).
    """
    if g1.directed or g2.directed:
        raise UsageError("k_effect_study expects undirected graphs")
    rng = random.Random(seed)
    queries = (sorted(rng.sample(range(g1.n), num_queries))
               if num_queries < g1.n else list(range(g1.n)))
    rows = []
    for k in k_range:
        cache = TreeDistanceCache(weights)
        nn0_counts = []
        tie_counts = []
        for u in queries:
            tu = tree_for(g1, u, k)
            dists = sorted(cache.distance(tu, tree_for(g2, v, k))
                           for v in range(g2.n))
            nn0_counts.append(sum(1 for d in dists if d == 0))
            if l <= len(dists):
                cutoff = dists[l - 1]
                tie_counts.append(sum(1 for d in dists if d <= cutoff) - l)
            else:
                tie_counts.append(0)
        rows.append({
            "k": k,
            "queries": len(queries),
            "mean_nn0": statistics.fmean(nn0_counts),
            "mean_ties": statistics.fmean(tie_counts),
        })
    return rows
