"""Seeded desk-scale experiment harnesses.

Every routine here takes an explicit seed and replays byte-identically:
anonymization edit streams, query sampling, and synthetic generators all
draw from their own random.Random instances.  Results come back as plain
dataclasses / row dicts so the CLI can render them as text or CSV.
"""

from __future__ import annotations

import math
import numbers
import random
import statistics
import time
from dataclasses import dataclass, field

from .errors import UsageError, check_count
from .graph import Graph, build_graph
from .ned import TreeDistanceCache, signature
from .oracle import enumerate_trees, exact_unordered_ted
from .ted import ted_star_distance_only
from .tree import LevelTree
from .vptree import VpIndex, build_index

ANON_METHODS = ("naive", "sparsify", "perturb")


# ---------------------------------------------------------------------------
# synthetic generators

def random_tree(n: int, depth_max: int, seed=0) -> LevelTree:
    """Seeded random tree: nodes attach to a uniformly chosen earlier node
    whose depth stays below ``depth_max``."""
    check_count(n, "n")
    check_count(depth_max, "depth_max")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    levels: list[list[int | None]] = [[None]]
    place = [(0, 0)]                   # each node's level and index inside it
    candidates = [0] if depth_max > 1 else []
    for _ in range(n - 1):
        if not candidates:
            raise UsageError("depth_max too small for the requested node count")
        d, i = place[rng.choice(candidates)]
        if d + 1 == len(levels):
            levels.append([])
        levels[d + 1].append(i)
        place.append((d + 1, len(levels[d + 1]) - 1))
        if d + 2 < depth_max:
            candidates.append(len(place) - 1)
    return LevelTree(tuple(map(tuple, levels)))


def random_graph(n: int, m: int, seed=0, directed: bool = False) -> Graph:
    """Uniform simple graph with n nodes and m distinct edges (no self-loops)."""
    check_count(n, "n")
    limit = n * (n - 1) if directed else n * (n - 1) // 2
    if isinstance(m, bool) or not (isinstance(m, numbers.Integral) and 0 <= m <= limit):
        raise UsageError(f"edge count must be an integer in 0..{limit}, got {m!r}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    labels = [f"v{i}" for i in range(n)]
    return build_graph(labels, sorted(_new_pairs(rng, n, directed, set(), m)), directed)


def _new_pairs(rng: random.Random, n: int, directed: bool, taken: set, count: int) -> list:
    """``count`` node pairs drawn uniformly from those of n nodes that are
    neither self-loops nor in ``taken``, in draw order; undirected pairs are
    (low, high).  ``taken`` gains them.  The caller ensures enough are free."""
    added = []
    while len(added) < count:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if not directed and i > j:
            i, j = j, i
        if (i, j) not in taken:
            taken.add((i, j))
            added.append((i, j))
    return added


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
        if isinstance(self.p, bool) or not (isinstance(self.p, numbers.Real) and 0 <= self.p <= 1):
            raise UsageError(f"ratio p must be a real number in [0,1], got {self.p!r}")


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
    removal_order = list(edges)
    rng.shuffle(removal_order)
    kept = set(edges) - set(removal_order[:n_edit])

    if spec.method == "perturb" and n_edit:
        pairs = g.n * (g.n - 1) // (1 if g.directed else 2)
        if pairs - len(edges) < n_edit:
            raise UsageError(f"perturb needs {n_edit} absent node pairs to insert, "
                             f"the graph has {pairs - len(edges)}")
        kept.update(_new_pairs(rng, g.n, g.directed, set(edges), n_edit))

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
    # distances the ranker took over all queries: signature groups whose
    # distance the index walk took, from its bound or by refining them, or
    # every (query, training node) pair for the degree
    # ranker; a cost, not a result, so it stays out of repr and ==
    evaluations: int = field(default=0, repr=False, compare=False)

    @property
    def precision(self) -> float:
        return sum(r.hit for r in self.rows) / len(self.rows)


def _degree_signature(g: Graph, v: int):
    return tuple(sorted(len(g.adj[w]) for w in g.adj[v]))


def _degree_distance_fn(train: Graph, anon: Graph):
    """Baseline similarity from degree and sorted neighbor-degree sequences.

    Deliberately crude plumbing for precision comparisons; it is not a
    recursive feature method.
    """
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
        du = len(anon.adj[u])
        dv = len(train.adj[v])
        return abs(du - dv) + hist_l1(sig_a[u], sig_t[v])

    return dist


def _index_for(g: Graph, k: int, cache: TreeDistanceCache) -> VpIndex:
    """``build_index(g, k, cache=cache)``, built once per graph, k and cache
    and kept in the graph's memo next to its neighborhood trees."""
    key = ("index", k, cache)
    index = g._tree_cache.get(key)
    if index is None:
        index = g._tree_cache[key] = build_index(g, k, cache=cache)
    return index


def deanonymize(train: Graph, anon: Graph, truth: dict, k: int, l: int,
                sample_size: int | None = None, seed: int = 0,
                tie_policy: str = "inclusive", method: str = "ned",
                cache: TreeDistanceCache | None = None) -> DeanonReport:
    """Rank training nodes against each sampled anonymous node.

    Training nodes rank by (distance, label).  A row's ``rank`` is the true
    node's 1-based position in that order and ``top_distances`` the first l
    distances.  A query is a hit when its true identity lands within the top
    l; with the inclusive tie policy (and l no larger than the training
    graph) it is a hit when the true node's distance is at most the l-th.

    The ned ranker uses the weight scheme of ``cache`` (a new unit cache when
    None) and walks the exact signature index of ``train`` (``build_index``)
    nearest first, once per query, until it has the top l and has reached
    the true node, so only signatures whose lower bound can rank are refined,
    each once.  At k <= 3 the bound is the distance, so a query reads every
    distance from it and refines nothing.  The index is built once per
    training graph, k and given cache, and later calls with the same three
    reuse it.
    """
    check_count(k, "k")
    check_count(l, "l")
    if sample_size is not None:
        check_count(sample_size, "sample_size")
    if tie_policy not in ("inclusive", "exclusive"):
        raise UsageError(f"unknown tie policy {tie_policy!r}")
    if train.directed != anon.directed:
        raise UsageError("train and anonymous graphs must share directedness")
    if train.n == 0 or anon.n == 0:
        raise UsageError("de-anonymization is undefined for an empty graph")
    if method not in ("ned", "degree"):
        raise UsageError(f"unknown ranking method {method!r}")

    queries = list(range(anon.n))
    if sample_size is not None and sample_size < len(queries):
        queries = sorted(random.Random(seed).sample(queries, sample_size))
    for u in queries:
        if truth.get(anon.labels[u]) not in train.index:
            raise UsageError(f"truth map gives no training node for {anon.labels[u]!r}")

    if method == "ned":
        if cache is None:   # a cache no later call can pass: nothing to keep
            cache = TreeDistanceCache()
            index = build_index(train, k, cache=cache)
        else:
            index = _index_for(train, k, cache)
        start = index.eval_count

        def rank_query(u, true_id):
            v = train.index[true_id]
            rank, d_true, top = 1, None, []
            for d, members in index.walk(signature(anon, u, k)):
                top += [d] * min(len(members), l - len(top))
                if d_true is None:
                    if v in members:   # the true node's distance
                        d_true = d
                        rank += sum(train.labels[i] < true_id for i in members)
                    else:
                        rank += len(members)
                if d_true is not None and len(top) == l:
                    break
            return rank, d_true, top
    else:
        dist = _degree_distance_fn(train, anon)

        def rank_query(u, true_id):
            ranked = sorted((dist(u, v), lab) for v, lab in enumerate(train.labels))
            rank = next(i for i, (_, lab) in enumerate(ranked, start=1)
                        if lab == true_id)
            return rank, ranked[rank - 1][0], [d for d, _ in ranked[:l]]

    rows = []
    for u in queries:
        true_id = truth[anon.labels[u]]
        rank, d_true, top = rank_query(u, true_id)
        if tie_policy == "inclusive" and l <= train.n:
            hit = d_true <= top[l - 1]
        else:
            hit = rank <= l
        rows.append(DeanonRow(anon_node=anon.labels[u], true_id=true_id,
                              rank=rank, hit=hit, top_distances=top))
    evaluations = (index.eval_count - start if method == "ned"
                   else len(queries) * train.n)
    return DeanonReport(rows=rows, k=k, l=l, sample_size=len(queries),
                        tie_policy=tie_policy, method=method,
                        evaluations=evaluations)


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
    if not pairs:
        raise UsageError("no tree pairs to compare")
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
                  seed: int = 0) -> list[dict]:
    """Wall-time rows for random tree pairs, one row per (size, depth) bucket.

    Trees are depth-capped at the bucket's k, matching how neighborhood
    trees of depth k look.  Columns: size, k, pairs, median_ms, p90_ms,
    mean_ms.
    """
    check_count(pairs_per_bucket, "pairs_per_bucket")
    for size in sizes:
        check_count(size, "size")
    for k in ks:
        check_count(k, "k")
    rng = random.Random(seed)
    rows = []
    for k in ks:
        for size in sizes:
            samples = []
            for _ in range(pairs_per_bucket):
                t1 = random_tree(size, k, rng)
                t2 = random_tree(size, k, rng)
                start = time.perf_counter()
                ted_star_distance_only(t1, t2)
                samples.append((time.perf_counter() - start) * 1000.0)
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
                   l: int = 5, seed: int = 0) -> list[dict]:
    """Per-k counts of distance-0 nearest neighbors and top-l cutoff ties.

    Queries are seeded nodes of g1 ranked against all nodes of g2 through
    one exact signature index of g2 per k (``build_index``): one walk per
    query, nearest first, up to the distance of the l-th entry, counts both.
    Columns: k, queries, mean_nn0 (average number of distance-0 matches),
    mean_ties (average candidates tied at the l-th distance beyond the first
    l; 0 when l exceeds g2's node count).
    """
    if g1.directed or g2.directed:
        raise UsageError("k_effect_study expects undirected graphs")
    check_count(num_queries, "num_queries")
    check_count(l, "l")
    if g1.n == 0 or g2.n == 0:
        raise UsageError("k_effect_study is undefined for an empty graph")
    rng = random.Random(seed)
    queries = (sorted(rng.sample(range(g1.n), num_queries))
               if num_queries < g1.n else list(range(g1.n)))
    # the cache keys by the trees' class keys (``LevelTree.class_key``),
    # which do not depend on k, so one cache serves every k
    cache = TreeDistanceCache()
    r = 0 if l > g2.n else None   # with l past g2's size only matches count
    rows = []
    for k in k_range:
        index = build_index(g2, k, cache=cache)
        nn0_counts, tie_counts = [], []
        for u in queries:
            nn0 = seen = 0
            for d, members in index.walk(signature(g1, u, k), r):
                seen += len(members)
                nn0 = seen if d == 0 else nn0   # only the first distance can be 0
                if seen >= l:   # the distance of the l-th entry
                    break
            nn0_counts.append(nn0)
            tie_counts.append(max(seen - l, 0))
        rows.append({
            "k": k,
            "queries": len(queries),
            "mean_nn0": statistics.fmean(nn0_counts),
            "mean_ties": statistics.fmean(tie_counts),
        })
    return rows
