"""Node-level distances built on the tree edit distance.

The distance between two nodes is the tree distance between their k-level
BFS neighborhood trees; for directed graphs the incoming-tree and
outgoing-tree distances are summed.  A graph-to-graph Hausdorff distance
aggregates node distances.
"""

from __future__ import annotations

import random

from .errors import UsageError
from .graph import Graph
from .ted import UNIT, WeightScheme, ted_star_distance_only
from .tree import LevelTree, canonical_form, extract_k_adjacent_tree
# unused here, but benchmarks/tracer.py hooks this name under nedist.ned
from .tree import parse_tree_literal  # noqa: F401


def tree_for(g: Graph, node, k: int, mode: str = "undirected") -> LevelTree:
    """Memoized neighborhood-tree extraction; semantically identical to
    calling extract_k_adjacent_tree directly."""
    v = g.resolve(node)
    key = (v, k, mode)
    t = g._tree_cache.get(key)
    if t is None:
        t = extract_k_adjacent_tree(g, v, k, mode)
        g._tree_cache[key] = t
    return t


def signature(g: Graph, node, k: int):
    """A node's signature at depth k: its neighborhood tree in an undirected
    graph, its (incoming tree, outgoing tree) pair in a directed one."""
    if g.directed:
        return tree_for(g, node, k, "in"), tree_for(g, node, k, "out")
    return tree_for(g, node, k)


def signature_distance(directed: bool, tree_distance):
    """Distance between two node signatures, given a distance between trees:
    for directed graphs, the in-tree distance plus the out-tree distance."""
    if not directed:
        return tree_distance

    def distance(a, b):
        return tree_distance(a[0], b[0]) + tree_distance(a[1], b[1])

    return distance


class TreeDistanceCache:
    """Distance memo keyed by canonical tree forms.

    Isomorphic trees are at distance 0 from each other, and the distance
    depends only on the canonical forms, so the canonical literal fully
    determines it; batch workloads hit the same shapes constantly.  The
    cache keeps one tree in canonical level order per distinct literal.
    """

    def __init__(self, weights: WeightScheme = UNIT):
        self.weights = weights
        self._memo: dict[tuple[str, str], object] = {}
        self._canonical: dict[str, LevelTree] = {}
        self.evaluations = 0   # logical distance evaluations requested
        self.computations = 0  # distances actually computed

    def _tree(self, literal: str, t: LevelTree) -> LevelTree:
        c = self._canonical.get(literal)
        if c is None:
            c = self._canonical[literal] = canonical_form(t)[1]
        return c

    def distance(self, t1: LevelTree, t2: LevelTree):
        self.evaluations += 1
        a = t1.canonical_literal()
        b = t2.canonical_literal()
        key = (a, b) if a <= b else (b, a)
        d = self._memo.get(key)
        if d is None:
            self.computations += 1
            d = ted_star_distance_only(self._tree(a, t1), self._tree(b, t2), self.weights)
            self._memo[key] = d
        return d


def _ned(gu: Graph, u, gv: Graph, v, k: int, weights: WeightScheme):
    distance = signature_distance(
        gu.directed, lambda a, b: ted_star_distance_only(a, b, weights))
    return distance(signature(gu, u, k), signature(gv, v, k))


def ned(gu: Graph, u, gv: Graph, v, k: int, weights: WeightScheme = UNIT):
    """Distance between nodes of two undirected graphs at neighborhood depth k."""
    if gu.directed or gv.directed:
        raise UsageError("ned requires undirected graphs; use ned_directed")
    return _ned(gu, u, gv, v, k, weights)


def ned_directed(gu: Graph, u, gv: Graph, v, k: int, weights: WeightScheme = UNIT):
    """Directed variant: incoming-tree distance plus outgoing-tree distance."""
    if not (gu.directed and gv.directed):
        raise UsageError("ned_directed requires directed graphs; use ned")
    return _ned(gu, u, gv, v, k, weights)


def _signature_groups(g: Graph, nodes, k: int):
    """Distinct node signatures among ``nodes`` (one representative each)."""
    groups: dict = {}
    for v in nodes:
        s = signature(g, v, k)
        key = (tuple(t.canonical_literal() for t in s) if g.directed
               else s.canonical_literal())
        groups.setdefault(key, s)
    return list(groups.values())


def hausdorff_graph_distance(a: Graph, b: Graph, k: int,
                             weights: WeightScheme = UNIT,
                             sample: int | None = None, seed: int = 0,
                             cache: TreeDistanceCache | None = None):
    """Symmetric Hausdorff distance between the node sets of two graphs.

    Exact over all nodes by default; ``sample`` caps the node count per side
    with a seeded deterministic subset (an approximation, flagged to callers
    by their own choice of the parameter).
    """
    if a.directed != b.directed:
        raise UsageError("graphs must both be directed or both undirected")
    if a.n == 0 or b.n == 0:
        raise UsageError("Hausdorff distance is undefined for an empty graph")

    def pick(g: Graph, salt: int):
        nodes = range(g.n)
        if sample is not None and sample < g.n:
            rng = random.Random(seed * 2 + salt)
            return rng.sample(list(nodes), sample)
        return list(nodes)

    sig_a = _signature_groups(a, pick(a, 0), k)
    sig_b = _signature_groups(b, pick(b, 1), k)
    if cache is None:
        cache = TreeDistanceCache(weights)
    elif cache.weights is not weights:
        raise UsageError("cache was built for a different weight scheme")

    dist = signature_distance(a.directed, cache.distance)
    rows = [[dist(sa, sb) for sb in sig_b] for sa in sig_a]
    h_ab = max(min(row) for row in rows)
    h_ba = max(min(rows[i][j] for i in range(len(sig_a)))
               for j in range(len(sig_b)))
    return max(h_ab, h_ba)
