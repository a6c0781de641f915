"""Node-level distances built on the tree edit distance.

The distance between two nodes is the tree distance between their k-level
BFS neighborhood trees; for directed graphs the incoming-tree and
outgoing-tree distances are summed.  A graph-to-graph Hausdorff distance
aggregates node distances.
"""

from __future__ import annotations

import random

from .errors import UsageError, check_count
from .graph import Graph
from .ted import UNIT, WeightScheme, check_scheme, ted_star_distance_only
from .tree import LevelTree, extract_k_adjacent_tree
# unused here, but benchmarks/tracer.py hooks this name under nedist.ned
from .tree import parse_tree_literal  # noqa: F401


def tree_for(g: Graph, node, k: int, mode: str = "undirected") -> LevelTree:
    """Memoized neighborhood-tree extraction; semantically identical to
    calling extract_k_adjacent_tree directly."""
    v = g.resolve(node)
    key = (v, check_count(k, "k"), mode)
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
    determines it; batch workloads hit the same shapes constantly.
    """

    def __init__(self, weights: WeightScheme = UNIT):
        self.weights = check_scheme(weights)
        self._memo: dict[tuple[str, str], object] = {}
        self.evaluations = 0   # logical distance evaluations requested
        self.computations = 0  # distances actually computed

    def distance(self, t1: LevelTree, t2: LevelTree):
        self.evaluations += 1
        a = t1.canonical_literal()
        b = t2.canonical_literal()
        key = (a, b) if a <= b else (b, a)
        d = self._memo.get(key)
        if d is None:
            self.computations += 1
            d = ted_star_distance_only(t1, t2, self.weights)
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
    """Distinct node signatures among ``nodes``: a (representative, members)
    pair per isomorphism class, in order of first appearance, each class's
    nodes in the order of ``nodes``."""
    groups: dict = {}
    for v in nodes:
        s = signature(g, v, k)
        key = (tuple(t.canonical_literal() for t in s) if g.directed
               else s.canonical_literal())
        groups.setdefault(key, (s, []))[1].append(v)
    return list(groups.values())


def hausdorff_graph_distance(a: Graph, b: Graph, k: int,
                             sample: int | None = None, seed: int = 0,
                             cache: TreeDistanceCache | None = None):
    """Symmetric Hausdorff distance between the node sets of two graphs,
    under the weight scheme of ``cache`` (a new unit cache when None).

    Exact over all nodes by default; ``sample`` caps the node count per side
    with a seeded deterministic subset (an approximation, flagged to callers
    by their own choice of the parameter).  A node's distance to the other
    side is the first of a walk over that side's distinct signatures
    (``VpIndex.walk``), which refines only those that can reach it, and at
    k <= 3 under integer weights reads each distance from its bound.
    """
    from .vptree import SignatureBound, VpIndex   # vptree imports this module
    if a.directed != b.directed:
        raise UsageError("graphs must both be directed or both undirected")
    if a.n == 0 or b.n == 0:
        raise UsageError("Hausdorff distance is undefined for an empty graph")
    if sample is not None:
        check_count(sample, "sample")
    cache = cache or TreeDistanceCache()
    dist = signature_distance(a.directed, cache.distance)

    def signatures(g: Graph, salt: int):
        nodes = range(g.n)
        if sample is not None and sample < g.n:
            nodes = random.Random(seed * 2 + salt).sample(list(nodes), sample)
        return [s for s, _ in _signature_groups(g, nodes, k)]

    def directed_distance(sigs_from, sigs_to):
        index = VpIndex(sigs_to, dist, None, SignatureBound(sigs_to, cache.weights, k))
        return max(next(index.walk(s))[0] for s in sigs_from)

    sig_a, sig_b = signatures(a, 0), signatures(b, 1)
    return max(directed_distance(sig_a, sig_b), directed_distance(sig_b, sig_a))
