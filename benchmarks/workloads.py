"""The three benchmark workloads.

Each workload generates its inputs from the seed, then exposes

- ``setup()``: the program's set-up before the first timed op (parsing the
  inputs, plus ``build_index`` or ``anonymize``), returning a fresh state;
- ``distinct``: the number of distinct ops; the op stream cycles through them;
- ``op(state, i)``: distinct op ``i``;
- ``check(state, i, out)``: untimed output checks, a list of failures;
- ``caches(state)``: the TreeDistanceCache objects the state owns;
- ``digest_item(out)``: the op's output as stable text for the digest.

All calls into the library go through the ``nedist`` package attributes, the
names the tracer wraps.

The graphs of ``knn_index`` and ``deanon`` come from a fixed generator seed,
and the run's seed draws the queries (and the anonymization): how well a
VP-tree prunes depends on the graph it indexes, and with a new graph per
seed the mean evaluations per query moved by +-11% and the median by +-22%
between seeds, against +-4% and one step for new queries on a fixed graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import inputs


@dataclass(frozen=True)
class TedPairShape:
    sizes: tuple[int, ...] = (250, 500)   # pair j has sizes[j % len(sizes)] nodes
    depth: int = 3
    pairs: int = 256                      # distinct ops


@dataclass(frozen=True)
class KnnShape:
    nodes: int = 10_000
    edges: int = 25_000
    k: int = 2
    l: int = 5
    radii: tuple[int, ...] = (0, 1, 2, 3)
    stream: int = 256                     # distinct ops


@dataclass(frozen=True)
class DeanonShape:
    # 700 training nodes rather than criterion 8's 1000, at the same mean
    # degree, so that the 100 ops a run needs take about 30 seconds
    nodes: int = 700
    edges: int = 1400
    p: float = 0.05
    k: int = 3
    l: int = 5
    stream: int = 4096                    # more distinct ops than a run makes


class TedPair:
    """One TED* call on a freshly parsed pair of depth-3 trees.

    The single-pair path: no cache and no index, and each op pays for its
    own parse and canonical forms.  Stresses the TED* core (level loop, tie
    search, bipartite build, matching) and bypasses the cache and VP-tree.
    """

    name = "ted_pair"
    setup_repeats = 10

    def __init__(self, api, seed: int, shape: TedPairShape = TedPairShape()):
        self.api = api
        rng = random.Random(f"{self.name}:{seed}")
        self.pairs = []
        for j in range(shape.pairs):
            n = shape.sizes[j % len(shape.sizes)]
            self.pairs.append((inputs.random_level_tree(n, shape.depth, rng),
                               inputs.random_level_tree(n, shape.depth, rng)))
        # an isomorphic re-rendering of each first tree, for the d == 0 check
        self.twins = [a.render(rng) for a, _ in self.pairs]
        self.distinct = len(self.pairs)
        self.fingerprint = inputs.fingerprint(
            *(t.literal for pair in self.pairs for t in pair))

    def setup(self):
        parse = self.api.parse_tree_literal
        return [(parse(a.literal), parse(b.literal)) for a, b in self.pairs]

    def op(self, state, i):
        a, b = self.pairs[i]
        api = self.api
        return api.ted_star_distance_only(api.parse_tree_literal(a.literal),
                                          api.parse_tree_literal(b.literal))

    def check(self, state, i, d):
        api = self.api
        a, b = self.pairs[i]
        ta, tb = state[i]
        bad = []
        la, lb = a.level_sizes, b.level_sizes
        depth = max(len(la), len(lb))
        pad = sum(abs((la[x] if x < len(la) else 0) - (lb[x] if x < len(lb) else 0))
                  for x in range(depth))
        if not pad <= d:
            bad.append(f"pair {i}: padding bound {pad} > distance {d}")
        if (d == 0) != (ta.canonical_literal() == tb.canonical_literal()):
            bad.append(f"pair {i}: distance {d} disagrees with canonical equality")
        back = api.ted_star_distance_only(api.parse_tree_literal(b.literal),
                                          api.parse_tree_literal(a.literal))
        if back != d:
            bad.append(f"pair {i}: asymmetric {d} vs {back}")
        twin = api.ted_star_distance_only(api.parse_tree_literal(a.literal),
                                          api.parse_tree_literal(self.twins[i]))
        if twin != 0:
            bad.append(f"pair {i}: isomorphic rendering at distance {twin}")
        return bad

    @staticmethod
    def caches(state):
        return []

    @staticmethod
    def digest_item(d):
        return str(d)


class KnnIndex:
    """Exact kNN and range queries on a VP-tree over a 10k-node graph.

    Ops alternate knn(q, l) with range(q, r), r cycling through the radii.
    Neighborhood trees at k=2 take few distinct shapes, so almost every
    distance is a cache hit: this stresses the index and the cache-hit path
    and bypasses the TED* core.
    """

    name = "knn_index"
    setup_repeats = 5

    def __init__(self, api, seed: int, shape: KnnShape = KnnShape()):
        self.api = api
        self.shape = shape
        fixed = random.Random(f"{self.name}:graph")
        self.edge_list = inputs.graph_edge_list(shape.nodes, shape.edges, fixed)
        self.index_seed = fixed.randrange(1 << 30)
        rng = random.Random(f"{self.name}:{seed}")
        # (query node rank in [0, 1), radius or None for knn)
        self.stream = [(rng.random(), None if j % 2 == 0
                        else shape.radii[(j // 2) % len(shape.radii)])
                       for j in range(shape.stream)]
        self.distinct = len(self.stream)
        self.fingerprint = inputs.fingerprint(self.edge_list, str(self.index_seed),
                                              str(self.stream))

    def setup(self):
        api = self.api
        g = api.parse_edge_list(self.edge_list)
        cache = api.TreeDistanceCache()
        index = api.build_index(g, self.shape.k, seed=self.index_seed, cache=cache)
        return g, index, [cache]

    def _query(self, state, i):
        g, index, _ = state
        rank, r = self.stream[i]
        return self.api.tree_for(g, int(rank * g.n), self.shape.k), r

    def op(self, state, i):
        index = state[1]
        q, r = self._query(state, i)
        if r is None:
            return index.knn(q, self.shape.l)[0]
        return index.range_query(q, r)[0]

    def check(self, state, i, out):
        index = state[1]
        q, r = self._query(state, i)
        want = (index.linear_scan(q, l=self.shape.l) if r is None
                else index.linear_scan(q, r=r))
        if out != want:
            kind = "knn" if r is None else f"range r={r}"
            return [f"op {i} ({kind}): index result differs from linear scan"]
        return []

    @staticmethod
    def caches(state):
        return state[2]

    @staticmethod
    def digest_item(out):
        return ";".join(f"{lab}:{d}" for lab, d in out)


class Deanon:
    """Rank one anonymous node against every training node, per op.

    A perturbed copy (p=0.05) of a 700-node graph is de-anonymized at k=3
    with one TreeDistanceCache shared by all ops and empty at the start of
    each run.  Small trees and many distinct shapes make this the
    cache-miss, compute-heavy counterpart of knn_index.
    """

    name = "deanon"
    setup_repeats = 200

    def __init__(self, api, seed: int, shape: DeanonShape = DeanonShape()):
        self.api = api
        self.shape = shape
        fixed = random.Random(f"{self.name}:graph")
        self.edge_list = inputs.graph_edge_list(shape.nodes, shape.edges, fixed)
        rng = random.Random(f"{self.name}:{seed}")
        self.anon_seed = rng.randrange(1 << 30)
        self.stream = [rng.randrange(1 << 30) for _ in range(shape.stream)]
        self.distinct = len(self.stream)
        self.fingerprint = inputs.fingerprint(self.edge_list, str(self.anon_seed),
                                              str(self.stream))

    def setup(self):
        api = self.api
        train = api.parse_edge_list(self.edge_list)
        spec = api.AnonymizationSpec("perturb", p=self.shape.p, seed=self.anon_seed)
        anon, truth = api.anonymize(train, spec)
        return train, anon, truth, [api.TreeDistanceCache()]

    def op(self, state, i):
        train, anon, truth, (cache,) = state
        report = self.api.deanonymize(
            train, anon, truth, k=self.shape.k, l=self.shape.l, sample_size=1,
            seed=self.stream[i], cache=cache)
        return report.rows[0]

    def check(self, state, i, row):
        api = self.api
        train, anon, _, (cache,) = state
        k = self.shape.k
        tu = api.tree_for(anon, row.anon_node, k)
        tv = api.tree_for(train, row.true_id, k)
        cached = cache.distance(tu, tv)
        fresh = api.ted_star_distance_only(
            api.extract_k_adjacent_tree(anon, row.anon_node, k),
            api.extract_k_adjacent_tree(train, row.true_id, k))
        bad = []
        if cached != fresh:
            bad.append(f"op {i}: cached distance {cached} != fresh {fresh}")
        top = row.top_distances
        if top != sorted(top) or (top and top[0] > cached):
            bad.append(f"op {i}: top distances {top} inconsistent with {cached}")
        if row.hit != (len(top) == self.shape.l and cached <= top[-1]):
            bad.append(f"op {i}: hit flag {row.hit} wrong for distance {cached}")
        return bad

    @staticmethod
    def caches(state):
        return state[3]

    @staticmethod
    def digest_item(row):
        return f"{row.anon_node}>{row.true_id}:{row.rank}:{row.hit}:{row.top_distances}"


WORKLOADS = {w.name: w for w in (TedPair, KnnIndex, Deanon)}
