"""Exact kNN and range queries over distinct signatures, filtered by a
lower bound on TED*.

Nodes with isomorphic signatures are at one distance from any query, so the
index groups them, each group's members in ascending node index
(``_node_groups``); an entry's own signature is extracted when first read.
A tree's group key is ``LevelTree.class_key``: at depth <= 3 its level sizes
and sorted level-2 child counts, which fix its isomorphism class and which
the bound reads anyway, so no AHU pass is made; deeper, its AHU literal.  At
k <= 3 the keys are read from the graph, one per tree (an in-tree and an
out-tree when directed), and each group's representative is built from its
keys: at k <= 2 a tree is a star, fixed by the root's degree, and at k = 3
the key is read from the sparse adjacency, and only a root where some node
has two candidate parents has that tree extracted.  A query computes a
lower bound LB for every group and yields the entries nearest first
(``VpIndex.walk``), refining a group only once its LB is at most the next
distance to yield, so results and their tie order equal ``linear_scan``'s.
Pruning relies only on LB <= distance, so a query is exact for the shipped
distance whether or not it is a metric.  TED* can break the triangle
inequality at depth 4 or more, and a vantage-point tree, which prunes by
it, then misses neighbors: on criterion 1's pool (``random.Random(11)``)
under ``W_PLUS`` it answered ``knn(pool[23], 3)`` with
``[(23, 0), (44, 13), (58, 13)]``, where a linear scan, and this
index, give ``[(23, 0), (35, 13), (44, 13)]``.  A query whose signature is
directed where the index's is undirected, or the reverse, is a UsageError.
The graph-to-graph Hausdorff distance (``hausdorff_graph_distance``) reads
the same bound without an index: a signature scans the other graph's in
bound order only while it can still raise the largest nearest distance.

The bound (``SignatureBound``) reads each level's size n_i and child counts.
With A_i(t) the number of level-i nodes with at least t children,
c_i = min(move(i), 2 leaf(i + 1)) and c_0 = 0,

    2 LB = sum_i (2 leaf(i) - c_(i-1)) |n_i - n'_i|
           + sum_i c_i sum_t |A_i(t) - B_i(t)|

and a directed signature adds its in-tree and out-tree bounds.  The inner
sum over t is the L1 distance D_i of the two levels' child counts, each
sorted and padded with zeros.  At depth <= 3 LB is TED*'s closed form
(``nedist.ted``), so where the query and every signature have depth
<= k <= 3, a query reads each distance from its bound, under every scheme,
and refines nothing: each run of equal sorted bounds is one distance.  At
any depth LB <= TED*: each level's matching re-parents at least
(D_i - P_(i+1)) / 2 children, with P_(i+1) the padding one level down, and
each costs at least c_i, a move or a delete and re-insert.  Every weight is
read as an int or a Fraction (``WeightScheme``), so the bound is in exact
scaled integers under every scheme.
"""

from __future__ import annotations

import heapq
import math
import numbers
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, islice, repeat

import numpy as np
from scipy.sparse import csr_matrix

from .errors import UsageError, check_count
from .graph import Graph
from .ned import (TreeDistanceCache, signature, signature_distance, signature_trees,
                  tree_for)
from .ted import bound_weights, exact_number
from .tree import LevelTree


def _check_radius(r):
    """``r`` read exactly, as a weight is (``exact_number``: a float as the
    decimal it prints as), if it is a real number >= 0 (not NaN, not a
    ``bool``), else UsageError; infinity stays ``math.inf``."""
    exact = math.inf if isinstance(r, numbers.Real) and r == math.inf else exact_number(r)
    if exact is None or not exact >= 0:
        raise UsageError(f"radius must be a real number >= 0, got {r!r}")
    return exact


class SignatureBound:
    """TED*'s lower bound from a query signature to each of ``reps``, under
    ``weights``, over levels 1..k.

    Calling it with a query returns one value per representative: ``unit``
    times its LB, an integer.  Levels deeper than k add nothing, so a query
    deeper than k gets a lower LB.  ``is_distance`` tells whether those
    values are ``unit`` times TED* itself, and ``distance`` turns one into
    that distance.
    """

    def __init__(self, reps, weights, k: int):
        if not reps:
            raise UsageError("cannot bound against zero signatures")
        sides = len(signature_trees(reps[0]))
        reps = [signature_trees(s, sides) for s in reps]
        size, count, self.unit = bound_weights(weights, check_count(k, "k"))
        self.k = k
        # LB is TED*'s closed form at depth <= 3
        self._closed = k <= 3 and all(t.depth <= k for trees in reps for t in trees)
        # per tree of a signature, per level 1..k - 1, the widest child count,
        # and every representative's row (see _vector) in one array pass
        self._widths, self._rows = self._bulk_rows(reps, sides)
        # the weight of each column, in the order _vector writes them: a level's
        # size, then its A_i(t) and the counts' excess over the widest
        w = []
        for widths in self._widths:
            for i in range(k):
                w.append(size[i])
                w += [count[i]] * (widths[i] + 1) if i < k - 1 else []
        self._weights = np.array(w, dtype=np.int64 if max(w) < 2 ** 63 else object)
        # an LB is at most the top weight times a row's and the query's sums
        self._top_weight = max(w)
        self._top_row = int(self._rows.sum(axis=1).max())

    def _bulk_rows(self, reps, sides: int):
        """The widths and ``_vector`` of each of ``reps``, from one histogram
        per tree side and level: A_i(t) is its reversed cumulative sum.  A
        width is its level's largest count, so no representative's count
        exceeds it and their excess column is 0."""
        n = len(reps)
        all_widths, columns = [], []
        for side in range(sides):
            counts = [trees[side].child_counts() for trees in reps]
            widths = []
            for i in range(self.k):
                level = [c[i] if i < len(c) else () for c in counts]
                sizes = np.fromiter(map(len, level), np.int64, n)
                columns.append(sizes[:, None])
                if i < self.k - 1:
                    kids = np.fromiter(chain.from_iterable(level), np.int64, int(sizes.sum()))
                    top = int(kids.max(initial=0))
                    widths.append(top)
                    cells = np.repeat(np.arange(0, n * (top + 1), top + 1), sizes) + kids
                    hist = np.bincount(cells, minlength=n * (top + 1)).reshape(n, top + 1)
                    columns += [hist[:, :0:-1].cumsum(axis=1)[:, ::-1],
                                np.zeros((n, 1), np.int64)]
            all_widths.append(widths)
        return all_widths, np.hstack(columns)

    def _vector(self, trees) -> list[int]:
        v = []
        for t, widths in zip(trees, self._widths):
            counts = t.child_counts()
            for i in range(self.k):
                level = counts[i] if i < len(counts) else ()
                v.append(len(level))
                if i < len(widths):   # A_i(1..top), then the counts' excess over top
                    top = widths[i]
                    hist = Counter(level)
                    wider = [(x, m) for x, m in hist.items() if x > top]
                    n = sum(m for _, m in wider)
                    at_least = []
                    for x in range(top, 0, -1):
                        n += hist[x]
                        at_least.append(n)
                    v += reversed(at_least)
                    v.append(sum((x - top) * m for x, m in wider))
        return v

    def __call__(self, query) -> np.ndarray:
        q = self._vector(signature_trees(query, len(self._widths)))
        w = self._weights
        if self._top_weight * (self._top_row + sum(q)) >= 2 ** 63:
            w = w.astype(object)   # Python ints: exact past int64
        return np.abs(self._rows - np.array(q, dtype=np.int64)) @ w

    def is_distance(self, query) -> bool:
        """Whether each value for ``query`` is ``unit`` times its TED*: k <= 3
        and no tree deeper than k."""
        return self._closed and all(t.depth <= self.k for t in signature_trees(query))

    def distance(self, lb: int):
        """The distance of a value ``lb`` that ``is_distance`` vouches for:
        ``lb / unit``, an ``int`` when whole, as TED* returns it."""
        q, r = divmod(lb, self.unit)
        return q if r == 0 else Fraction(lb, self.unit)


class VpIndex:
    """Exact kNN and range queries over a fixed entry list.

    ``items`` is the sequence of entries, kept as given: ``build_index``
    passes one that extracts an entry's signature when it is first read.
    ``distance`` is a function of a query and an entry.  ``groups``
    partitions the entry indices into ascending lists whose entries are at
    one distance from every query.  ``bound`` maps a query to one lower
    bound per group on ``bound.unit`` times that distance, exactly
    comparable with it.  Where ``bound.is_distance(query)`` holds, the
    bounds are ``unit`` times the distances, and the query refines nothing.
    A query reads only each group's first entry (``_refine``).
    """

    def __init__(self, items, distance, groups, bound, labels=None):
        if not items:
            raise UsageError("cannot build an index over zero entries")
        self.items = items if isinstance(items, Sequence) else list(items)
        self.labels = labels if labels is not None else list(range(len(items)))
        self._distance = distance
        self.groups = [list(m) for m in groups]
        if (sorted(i for m in self.groups for i in m) != list(range(len(self.items)))
                or any(m != sorted(m) for m in self.groups)):
            raise UsageError("groups must split the entry indices into ascending lists")
        self._bound = bound
        self.eval_count = 0   # groups whose distance all queries took

    def _refine(self, query, g):
        return self._distance(query, self.items[self.groups[g][0]])

    def walk(self, query, r=None):
        """The entries within distance r (any, when None), nearest first:
        (distance, entry indices) per distance, both ascending.  A group's
        distance is taken only once its LB is at most ``unit`` times the
        next distance to yield and times r, so a caller that stops early
        takes nothing more.  Where the LB is the distance
        (``bound.is_distance``), each run of equal sorted LBs is one
        distance, taken as it is yielded (``_runs``); else each group is
        refined and held in a heap until its distance is the next.
        """
        unit = self._bound.unit
        r = math.inf if r is None else _check_radius(r)
        limit = unit * r   # r on the bound's scale, exactly
        lbs = np.asarray(self._bound(query))
        order = np.argsort(lbs, kind="stable")
        lbs = lbs[order].tolist()
        order = order.tolist()
        if self._bound.is_distance(query):
            yield from self._runs(lbs, order, limit)
            return
        pending: list[tuple] = []   # refined, not yet yielded: a heap of (distance, group)
        j = 0
        while True:
            while (j < len(order) and lbs[j] <= limit
                   and not (pending and lbs[j] > unit * pending[0][0])):
                self.eval_count += 1
                d = self._refine(query, order[j])
                if d <= r:
                    heapq.heappush(pending, (d, order[j]))
                j += 1
            if not pending:
                return
            d, g = heapq.heappop(pending)
            members = [self.groups[g]]
            while pending and pending[0][0] == d:
                members.append(self.groups[heapq.heappop(pending)[1]])
            yield d, members[0] if len(members) == 1 else sorted(chain.from_iterable(members))

    def _runs(self, lbs: list, order: list[int], limit):
        """``walk`` where each LB is ``unit`` times its distance: each run of
        equal sorted ``lbs`` up to ``limit`` is one distance, whose groups
        ``order[i:j]`` are taken, and counted, as the run is yielded."""
        i = 0
        while i < len(order) and lbs[i] <= limit:
            j = bisect_right(lbs, lbs[i], i)
            self.eval_count += j - i
            members = (self.groups[order[i]] if j - i == 1 else
                       sorted(chain.from_iterable(map(self.groups.__getitem__, order[i:j]))))
            yield self._bound.distance(lbs[i]), members
            i = j

    def knn(self, query, l: int):
        """The l nearest entries: the first l of ``walk``.

        Returns (results, evaluations) where results is a list of
        (label, distance) and evaluations counts the groups whose distance
        this query took, from the bound or by refining them.  l larger than
        the index returns everything.
        """
        check_count(l, "l")
        start = self.eval_count
        entries = ((self.labels[i], d) for d, members in self.walk(query) for i in members)
        return list(islice(entries, l)), self.eval_count - start

    def range_query(self, query, r):
        """All entries within distance r, ascending by (distance, node index):
        ``walk`` up to r.  Returns (results, evaluations) as ``knn`` does."""
        _check_radius(r)   # ``walk`` reads None as no radius
        start = self.eval_count
        out: list[tuple] = []
        for d, members in self.walk(query, r):
            out += zip(map(self.labels.__getitem__, members), repeat(d))
        return out, self.eval_count - start

    def linear_scan(self, query, l=None, r=None):
        """Reference scan over every entry (used to verify exactness)."""
        if l is not None:
            check_count(l, "l")
        r = math.inf if r is None else _check_radius(r)
        dists = sorted((self._distance(query, item), i) for i, item in enumerate(self.items))
        return [(self.labels[i], d) for d, i in dists if d <= r][:l]

    def __len__(self):
        return len(self.items)


def _signature_groups(sigs):
    """Distinct signatures among ``sigs``: a (representative, members) pair
    per isomorphism class, in order of first appearance, the members being
    the positions in ``sigs`` of the class's signatures, ascending."""
    groups: dict = {}
    for i, s in enumerate(sigs):
        # tuple() of a list: of a generator it leaves the GC's allocation count raised
        key = tuple([t.class_key() for t in signature_trees(s)])
        group = groups.get(key)
        if group is None:
            groups[key] = (s, [i])
        else:
            group[1].append(i)
    return list(groups.values())


def _adjacency_keys(g: Graph, down) -> list:
    """Each node's depth-3 ``class_key`` for the tree grown along ``down``,
    read from the sparse matrix D of those edges, or None for a root with a
    parent choice.  ``down`` is the direction ``extract_k_adjacent_tree``
    follows: ``g.adj`` in an undirected graph and for out-trees, ``g.radj``
    for in-trees.

    For root r and a node w outside {r} and down[r], (D^2)[r, w] counts w's
    candidate parents, so level 3 is the w with an entry >= 1, and r has a
    parent choice iff one entry is >= 2.  With none, child u of r takes
    every node of down[u] but r and those on level 2:
    |down[u]| - D[u, r] - (D D^T)[r, u] children.  Undirected, D = A is
    symmetric, so D[u, r] = 1 and D D^T = A^2, the product already made:
    deg(u) - 1 - (A^2)[r, u], its degree less the root and the triangles on
    the edge (r, u).
    """
    n = g.n
    deg = np.fromiter(map(len, down), np.int64, n)
    ptr = np.concatenate(([0], deg.cumsum()))
    nbrs = np.fromiter(chain.from_iterable(down), np.int64, int(ptr[-1]))
    d = csr_matrix((np.ones(len(nbrs), np.int64), nbrs, ptr), shape=(n, n))
    d2 = d @ d
    # each entry of D^2 as row * n + column, looked up among D's edges, which
    # are ascending in that order, before a sentinel past every entry
    rows = np.repeat(np.arange(n), deg)
    edges = np.append(rows * n + nbrs, n * n)
    rows2 = np.repeat(np.arange(n), np.diff(d2.indptr))
    cells = rows2 * n + d2.indices
    at = np.searchsorted(edges, cells)
    is_edge = edges[at] == cells
    off = ~is_edge & (d2.indices != rows2)   # outside {r} and down[r]: on level 3
    level3 = np.bincount(rows2[off], minlength=n).tolist()
    choice = np.bincount(rows2[off & (d2.data >= 2)], minlength=n).tolist()
    if g.directed:
        # D[u, r] and (D D^T)[r, u] of each edge (r, u), counted over its
        # paths r -> u -> w, one step per path as D^2 takes: the paths back
        # to r, and those to a w that (r, w) is an edge to.  D D^T is not
        # made: a node with h edges into it and none out would put h^2
        # entries in it and none in D^2.
        hops = deg[nbrs]
        path = np.repeat(np.arange(len(nbrs)), hops)
        w = nbrs[np.arange(len(path)) + np.repeat(ptr[nbrs] - (hops.cumsum() - hops), hops)]
        r = rows[path]
        cells2 = r * n + w
        back = np.bincount(path[w == r], minlength=len(nbrs))
        shared = np.bincount(path[edges[np.searchsorted(edges, cells2)] == cells2],
                             minlength=len(nbrs))
    else:   # 1, and the entries of A^2 found on edges
        back, shared = 1, np.zeros(len(nbrs), np.int64)
        shared[at[is_edge]] = d2.data[is_edge]
    kids = deg[nbrs] - back - shared
    kids = (np.sort(rows * n + kids) - rows * n).tolist()   # ascending per root
    deg, ptr = deg.tolist(), ptr.tolist()
    keys = []
    for v in range(n):
        if choice[v]:
            keys.append(None)
        elif level3[v]:
            keys.append(((1, deg[v], level3[v]), tuple(kids[ptr[v]:ptr[v + 1]])))
        else:
            keys.append(_star_key(deg[v]))
    return keys


def _star_key(d: int) -> tuple:
    """The ``class_key`` of a root with d children and no grandchildren."""
    return ((1, d), ()) if d else ((1,), ())


def _key_tree(key) -> LevelTree:
    """A tree of the class of a depth-<=3 ``class_key`` (level sizes, sorted
    level-2 child counts), its child counts preset."""
    sizes, kids = key
    # level 1's count is level 2's size, sizes[1:2]; the last level's are 0
    counts = (sizes[1:2], kids)[:len(sizes) - 1] + ((0,) * sizes[-1],)
    levels = ((None,),) + tuple(tuple(chain.from_iterable(map(repeat, range(len(c)), c)))
                                for c in counts[:-1])
    return LevelTree(levels, _counts=counts)


def _node_groups(g: Graph, k: int):
    """``_signature_groups`` over the depth-k signatures of ``g``'s nodes:
    the same groups and members in the same order, and representatives of
    the same classes.

    At k <= 3 each tree of a node (an in-tree along ``g.radj`` and an
    out-tree along ``g.adj`` when directed) is keyed from the graph: at
    k <= 2 it is a star, fixed by the root's degree along those edges (none
    at k = 1), and at k = 3 ``_adjacency_keys`` leaves only the roots with a
    parent choice to extract.  Each group's representative is built from
    its key (``_key_tree``).  Deeper, which parent a node takes depends on
    the BFS, so every node's signature is extracted and keyed.
    """
    check_count(k, "k")
    if k > 3:
        return _signature_groups([signature(g, v, k) for v in range(g.n)])
    sides = ((g.radj, "in"), (g.adj, "out")) if g.directed else ((g.adj, "undirected"),)
    if k == 3:
        keys = [[tree_for(g, v, 3, mode).class_key() if key is None else key
                 for v, key in enumerate(_adjacency_keys(g, down))] for down, mode in sides]
    else:   # an int per node, made a key per group
        keys = [list(map(len, down)) if k == 2 else [0] * g.n for down, _ in sides]
    groups: dict = {}
    for v, key in enumerate(zip(*keys) if g.directed else keys[0]):
        members = groups.get(key)
        if members is None:
            groups[key] = [v]
        else:
            members.append(v)

    def tree(x):   # the tree of one side's key
        return _key_tree(x if k == 3 else _star_key(x))

    reps = [tuple(map(tree, key)) if g.directed else tree(key) for key in groups]
    return list(zip(reps, groups.values()))


class _Signatures(Sequence):
    """The depth-k signatures of ``g``'s nodes, in node order, each
    extracted when first read and then memoized by ``tree_for``."""

    def __init__(self, g: Graph, k: int):
        self._g, self._k = g, k

    def __len__(self):
        return self._g.n

    def __getitem__(self, v):
        # a range raises IndexError past the end, which iteration stops at
        return signature(self._g, range(self._g.n)[v], self._k)


def build_index(g: Graph, k: int, seed: int = 0,
                cache: TreeDistanceCache | None = None) -> VpIndex:
    """Index every node of ``g`` by its depth-k neighborhood signature, under
    the weight scheme of ``cache`` (a new unit cache when None).

    Nodes are grouped by signature class (``_node_groups``: at k <= 2 by
    degree, and at k = 3 by keys read from the adjacency), and only the
    trees those keys need are extracted while building: none at k <= 2,
    each root's with a parent choice at k = 3, one per side when directed,
    and every node's signature at k >= 4.  An entry's own signature is
    extracted when the index first reads it (``VpIndex.items``).  Directed
    graphs are indexed under the directed node distance (sum of the
    incoming-tree and outgoing-tree distances).  ``seed`` is accepted for
    callers of the former VP-tree; results no longer depend on it.
    """
    if g.n == 0:
        raise UsageError("cannot index an empty graph")
    cache = cache or TreeDistanceCache()
    groups = _node_groups(g, k)
    return VpIndex(_Signatures(g, k), signature_distance(cache.distance),
                   [members for _, members in groups],
                   SignatureBound([s for s, _ in groups], cache.weights, k),
                   labels=g.labels)


def hausdorff_graph_distance(a: Graph, b: Graph, k: int,
                             cache: TreeDistanceCache | None = None):
    """Symmetric Hausdorff distance between the node sets of two graphs,
    under the weight scheme of ``cache`` (a new unit cache when None); a
    directed graph and an undirected one are a UsageError.

    Exact, with the early break of Taha & Hanbury 2015.  ``top``, the
    largest nearest distance so far, passes from one direction into the
    other.  Each distinct source signature scans the other side's in bound
    order, and stops at a distance <= ``top``, which cannot raise it, or at
    a bound no smaller than its nearest distance so far, then exact.  Where
    the bound is the distance, the smallest is the nearest; nothing is refined.
    """
    if a.n == 0 or b.n == 0:
        raise UsageError("Hausdorff distance is undefined for an empty graph")
    cache = cache or TreeDistanceCache()
    dist = signature_distance(cache.distance)

    def directed_distance(sources, targets, top):
        bound = SignatureBound(targets, cache.weights, k)
        for s in sources:
            lbs = bound(s)
            if bound.is_distance(s):
                top = max(top, bound.distance(int(lbs.min())))
                continue
            lbs = lbs.tolist()   # Python ints, as ``walk`` reads them
            nearest = math.inf
            for j in sorted(range(len(lbs)), key=lbs.__getitem__):
                if nearest <= top or lbs[j] >= bound.unit * nearest:
                    break
                nearest = min(nearest, dist(s, targets[j]))
            top = max(top, nearest)
        return top

    sig_a, sig_b = ([s for s, _ in _node_groups(g, k)] for g in (a, b))
    return directed_distance(sig_b, sig_a, directed_distance(sig_a, sig_b, 0))
