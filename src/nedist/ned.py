"""Node-level distances built on the tree edit distance.

The distance between two nodes is the tree distance between their k-level
BFS neighborhood trees; for directed graphs the incoming-tree and
outgoing-tree distances are summed.
"""

from __future__ import annotations

from .errors import UsageError, check_count
from .graph import Graph
from .ted import UNIT, WeightScheme, as_distance, check_scheme, ted_star_distance_only
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


def signature_trees(sig, sides: int | None = None) -> tuple:
    """The trees of a node signature: its (in, out) pair, or its one tree as
    a 1-tuple.  UsageError unless it holds ``sides`` trees, where given, as
    when a directed signature meets an undirected one."""
    trees = sig if isinstance(sig, tuple) else (sig,)
    if sides is not None and len(trees) != sides:
        raise UsageError("cannot compare a directed node signature with an undirected one")
    return trees


def signature_distance(tree_distance):
    """Distance between two node signatures, given a distance between trees:
    the sum over their trees (in-tree plus out-tree distance for directed
    graphs), an ``int`` when whole; UsageError on a directed and an
    undirected signature."""
    def distance(a, b):
        a = signature_trees(a)
        return as_distance(sum(map(tree_distance, a, signature_trees(b, len(a)))))

    return distance


class TreeDistanceCache:
    """Distance memo keyed by tree isomorphism classes.

    Isomorphic trees are at distance 0 from each other, and the distance
    depends only on the classes, so ``LevelTree.class_key`` fully determines
    it; batch workloads hit the same shapes constantly.
    """

    def __init__(self, weights: WeightScheme = UNIT):
        self.weights = check_scheme(weights)
        self._memo: dict[tuple, object] = {}
        self.evaluations = 0   # logical distance evaluations requested
        self.computations = 0  # distances actually computed

    def distance(self, t1: LevelTree, t2: LevelTree):
        self.evaluations += 1
        a = t1.class_key()
        b = t2.class_key()
        # a tuple key and a str key do not compare: order by kind first
        key = (a, b) if (isinstance(a, str), a) <= (isinstance(b, str), b) else (b, a)
        d = self._memo.get(key)
        if d is None:
            self.computations += 1
            d = ted_star_distance_only(t1, t2, self.weights)
            self._memo[key] = d
        return d


def _ned(gu: Graph, u, gv: Graph, v, k: int, weights: WeightScheme):
    distance = signature_distance(lambda a, b: ted_star_distance_only(a, b, weights))
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
