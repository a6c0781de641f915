"""Vantage-point tree index over node neighborhood signatures.

Pruning uses only the triangle inequality of the underlying distance, so a
query returns what a linear scan would only where the distance satisfies
it.  TED* can break it (README, "Known limitation"): on criterion 1's pool
(``random.Random(11)``) under ``W_PLUS``, ``VpIndex(pool, distance,
seed=12).knn(pool[23], 3)`` gives ``[(23, 0), (44, 13), (58, 13)]``, a
linear scan ``[(23, 0), (35, 13), (44, 13)]``.  Entries are (internal node
index, signature); ties at equal distance resolve by ascending node index.
"""

from __future__ import annotations

import heapq
import numbers
import random
from dataclasses import dataclass

from .errors import UsageError, check_count
from .graph import Graph
from .ned import TreeDistanceCache, signature, signature_distance

LEAF_BUCKET = 16


@dataclass
class _Inner:
    vantage: int          # entry index
    mu: object            # median radius; inner side holds d <= mu
    inner: object
    outer: object


@dataclass
class _Leaf:
    entries: list[int]    # entry indices


def _check_radius(r):
    """UsageError unless ``r`` is a real number >= 0 (not NaN)."""
    if not (isinstance(r, numbers.Real) and r >= 0):
        raise UsageError(f"radius must be a real number >= 0, got {r!r}")


class VpIndex:
    """Metric index over a fixed entry list.

    ``items`` is a list of signatures; ``distance`` a metric over them, or
    queries may differ from ``linear_scan``.  Construction is seeded and
    deterministic.
    """

    def __init__(self, items, distance, seed: int = 0, labels=None,
                 bucket_size: int = LEAF_BUCKET):
        if not items:
            raise UsageError("cannot build an index over zero entries")
        self.items = list(items)
        self.labels = labels if labels is not None else list(range(len(items)))
        self._distance = distance
        self.bucket_size = check_count(bucket_size, "bucket_size")
        self.eval_count = 0
        rng = random.Random(seed)
        self.root = self._build(list(range(len(self.items))), rng)

    # -- construction ---------------------------------------------------

    def _d(self, item, idx: int):
        self.eval_count += 1
        return self._distance(item, self.items[idx])

    def _build(self, idxs: list[int], rng: random.Random):
        if len(idxs) <= self.bucket_size:
            return _Leaf(idxs)
        vantage = idxs[rng.randrange(len(idxs))]
        rest = [i for i in idxs if i != vantage]
        dists = [(self._d(self.items[vantage], i), i) for i in rest]
        dists.sort(key=lambda t: (t[0], t[1]))
        mu = dists[(len(dists) - 1) // 2][0]   # median, ties to the inner side
        inner = [i for d, i in dists if d <= mu]
        outer = [i for d, i in dists if d > mu]
        if not outer:
            # all remaining entries tie at mu; a leaf avoids infinite recursion
            return _Leaf([vantage] + inner)
        return _Inner(vantage, mu, self._build(inner, rng), self._build(outer, rng))

    # -- queries --------------------------------------------------------

    def knn(self, query, l: int):
        """The l nearest entries, ascending by (distance, node index).

        Returns (results, evaluations) where results is a list of
        (label, distance) and evaluations counts distance computations this
        query performed.  l larger than the index returns everything.
        """
        check_count(l, "l")
        start = self.eval_count
        heap: list[tuple] = []   # max-heap via negated (distance, idx)

        def offer(idx, d):
            entry = (d, idx)
            if len(heap) < l:
                heapq.heappush(heap, (-d, -idx))
            elif entry < (-heap[0][0], -heap[0][1]):
                heapq.heapreplace(heap, (-d, -idx))

        # near child first; a child's bound is checked when it is popped, the
        # far child's after the near subtree (a stack leaves no reference cycle)
        stack = [(self.root, None)]
        while stack:
            node, bound = stack.pop()
            if bound is not None and len(heap) == l and bound > -heap[0][0]:
                continue
            if isinstance(node, _Leaf):
                for idx in node.entries:
                    offer(idx, self._d(query, idx))
                continue
            d = self._d(query, node.vantage)
            offer(node.vantage, d)
            inner, outer = (node.inner, d - node.mu), (node.outer, node.mu - d)
            stack += (outer, inner) if d <= node.mu else (inner, outer)

        results = sorted(((-nd, -ni) for nd, ni in heap))
        return ([(self.labels[i], d) for d, i in results],
                self.eval_count - start)

    def range_query(self, query, r):
        """All entries within distance r, ascending by (distance, node index)."""
        _check_radius(r)
        start = self.eval_count
        out = []

        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                for idx in node.entries:
                    d = self._d(query, idx)
                    if d <= r:
                        out.append((d, idx))
                continue
            d = self._d(query, node.vantage)
            if d <= r:
                out.append((d, node.vantage))
            if node.mu - d <= r:
                stack.append(node.outer)
            if d - node.mu <= r:
                stack.append(node.inner)

        out.sort()
        return ([(self.labels[i], d) for d, i in out],
                self.eval_count - start)

    def linear_scan(self, query, l=None, r=None):
        """Reference scan over every entry (used to verify exactness)."""
        if l is not None:
            check_count(l, "l")
        if r is not None:
            _check_radius(r)
        dists = sorted((self._distance(query, item), i)
                       for i, item in enumerate(self.items))
        if r is not None:
            dists = [(d, i) for d, i in dists if d <= r]
        if l is not None:
            dists = dists[:l]
        return [(self.labels[i], d) for d, i in dists]

    def __len__(self):
        return len(self.items)


def build_index(g: Graph, k: int, seed: int = 0,
                cache: TreeDistanceCache | None = None) -> VpIndex:
    """Index every node of ``g`` by its depth-k neighborhood signature, under
    the weight scheme of ``cache`` (a new unit cache when None).

    Directed graphs are indexed under the directed node distance (sum of the
    incoming-tree and outgoing-tree distances).
    """
    if g.n == 0:
        raise UsageError("cannot index an empty graph")
    return VpIndex([signature(g, v, k) for v in range(g.n)],
                   signature_distance(g.directed, (cache or TreeDistanceCache()).distance),
                   seed=seed, labels=g.labels)
