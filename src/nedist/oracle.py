"""Exhaustive ground-truth computations on tiny trees.

These routines are deliberately independent of the level-by-level distance
algorithm: they search over edit scripts and node mappings directly, and
exist to verify it.  The edit-script search prices operations as
``ted.WeightScheme`` does.  All of them are capped at single-digit node counts.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

from .errors import UsageError, check_count
from .ted import as_distance
from .tree import LevelTree, parse_tree_literal, to_tree_literal, _literal_key


# ---------------------------------------------------------------------------
# tree enumeration

@lru_cache(maxsize=None)
def _literals(n: int, depth_max: int) -> tuple[str, ...]:
    """All canonical literals of rooted unordered trees with exactly n nodes
    and depth <= depth_max."""
    if n < 1 or depth_max < 1:
        return ()
    if n == 1:
        return ("()",)
    results = set()
    pool = [lit for m in range(1, n) for lit in _literals(m, depth_max - 1)]

    def extend(remaining: int, start: int, chosen: list[str]):
        if remaining == 0:
            results.add("(" + "".join(sorted(chosen, key=_literal_key)) + ")")
            return
        for idx in range(start, len(pool)):
            size = pool[idx].count("(")
            if size <= remaining:
                chosen.append(pool[idx])
                extend(remaining - size, idx, chosen)
                chosen.pop()

    extend(n - 1, 0, [])
    return tuple(sorted(results, key=_literal_key))


def enumerate_trees(n_max: int, depth_max: int = 10**9):
    """Every rooted unordered tree with <= n_max nodes and depth <= depth_max,
    exactly once (by canonical form), as LevelTrees."""
    if check_count(n_max, "n_max") > 9:
        raise UsageError("enumeration is capped at 9 nodes")
    check_count(depth_max, "depth_max")
    return (parse_tree_literal(lit) for n in range(1, n_max + 1)
            for lit in _literals(n, min(depth_max, n)))


# ---------------------------------------------------------------------------
# exact modified distance: shortest-path search over edit scripts

def _to_parents(t: LevelTree) -> list[tuple[int | None, int]]:
    """Flat node list [(parent_index, depth)] in level order, root first."""
    nodes = []
    offsets = []
    for li, level in enumerate(t.levels):
        offsets.append(len(nodes))
        nodes += [(None if p is None else offsets[li - 1] + p, li) for p in level]
    return nodes


def _parents_to_literal(nodes) -> str:
    """Canonical literal of a flat node list, in any order."""
    levels: list[list[int | None]] = [[] for _ in range(max(d for _, d in nodes) + 1)]
    within = [0] * len(nodes)          # index of each node inside its level
    for i in sorted(range(len(nodes)), key=lambda i: nodes[i][1]):
        p, d = nodes[i]
        within[i] = len(levels[d])
        levels[d].append(None if p is None else within[p])
    return to_tree_literal(LevelTree(tuple(map(tuple, levels))))


@lru_cache(maxsize=1 << 16)
def _edit_neighbors(lit: str, depth_cap: int) -> tuple[tuple[str, tuple], ...]:
    """Canonical literals one edit operation away from ``lit``, each with the
    (kind, level) operations that reach it: insert a leaf, delete a leaf, or
    reparent a node within its level.  Levels are 1-based; an insert or
    delete is tagged with the leaf's level, a move with the level of the old
    and new parent."""
    nodes = _to_parents(parse_tree_literal(lit))
    n = len(nodes)
    has_child = [False] * n
    for p, _ in nodes:
        if p is not None:
            has_child[p] = True
    out: dict[str, set] = {}
    # insert a leaf under any node whose level is above the depth cap
    for p, (_, d) in enumerate(nodes):
        if d + 1 < depth_cap:
            out.setdefault(_parents_to_literal(nodes + [(p, d + 1)]), set()).add(
                ("leaf", d + 2))
    # delete any leaf (never the root)
    for i in range(1, n):
        if not has_child[i]:
            trimmed = [nodes[j] for j in range(n) if j != i]
            remap = lambda p: p if p is None or p < i else p - 1
            out.setdefault(_parents_to_literal([(remap(p), d) for p, d in trimmed]),
                           set()).add(("leaf", nodes[i][1] + 1))
    # move: reparent node i to another node at its parent's level
    for i in range(1, n):
        pi, di = nodes[i]
        for q, (_, dq) in enumerate(nodes):
            if dq == di - 1 and q != pi and q != i:
                moved = list(nodes)
                moved[i] = (q, di)
                out.setdefault(_parents_to_literal(moved), set()).add(("move", di))
    return tuple(sorted((nxt, tuple(sorted(ops))) for nxt, ops in out.items()))


def exact_ted_star(t1: LevelTree, t2: LevelTree, budget=12, weights=None):
    """Minimum edit-script cost under {insert leaf, delete leaf, same-level
    move}, by Dijkstra's search over canonical tree states.

    Operations are priced as the level-by-level distance prices them
    (``ted.WeightScheme``): inserting or deleting a leaf at level L costs
    ``leaf_cost(L)``, and moving a node from one parent at level L to
    another parent at level L costs ``move_cost(L)``.  ``weights=None``
    prices every operation at 1, so the result is the script length.

    Returns the minimum cost, or None when no script of cost <= ``budget``
    exists (``budget=None`` searches without limit).  Intermediate states are
    capped at the max depth of the inputs, which cannot cut off an optimal
    script: nodes below that depth are deleted again, so dropping them and
    every operation on them leaves a valid script that costs no more.  Under
    unit costs intermediate states are also capped at max(sizes) + 1 nodes,
    which a discarded insert/delete pair argument shows to be safe.  Under
    other weights a moved node may be cheaper to delete and re-insert, which
    stacks one new node per level of the moved subtree, so the cap is
    max(sizes) + depth - 1 nodes.  That cap is not proven safe; on every
    pair of trees with at most 6 nodes, raising it to max(sizes) + 5 changes
    no value under ``W_PLUS`` or the release gate's random scheme.
    """
    if t1.size > 8 or t2.size > 8:
        raise UsageError("exact edit search is capped at 8 nodes")
    start = t1.canonical_literal()
    target = t2.canonical_literal()
    if start == target:
        return 0
    depth_cap = max(t1.depth, t2.depth)
    if weights is None:
        node_cap = max(t1.size, t2.size) + 1

        def price(kind, level):
            return 1
    else:
        node_cap = max(t1.size, t2.size) + max(depth_cap - 1, 1)

        def price(kind, level):
            return weights.leaf_cost(level) if kind == "leaf" else weights.move_cost(level)
    dist = {start: 0}
    heap = [(0, start)]
    done = set()
    while heap:
        d, lit = heapq.heappop(heap)
        if lit in done:
            continue
        if lit == target:
            return as_distance(d)
        done.add(lit)
        full = lit.count("(") >= node_cap
        for nxt, ops in _edit_neighbors(lit, depth_cap):
            if nxt in done or (full and len(nxt) > len(lit)):
                continue
            nd = d + min(price(kind, level) for kind, level in ops)
            if (budget is None or nd <= budget) and (nxt not in dist or nd < dist[nxt]):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return None


# ---------------------------------------------------------------------------
# exact classical tree edit distance (insert/delete anywhere, unlabeled)

def exact_unordered_ted(t1: LevelTree, t2: LevelTree) -> int:
    """|t1| + |t2| - 2 M*, with M* the largest ancestor-preserving one-to-one
    node mapping whose roots map to each other (Tai mapping), found by
    exhaustive branch and bound."""
    if t1.size > 8 or t2.size > 8:
        raise UsageError("exact tree edit distance is capped at 8 nodes")
    n1 = _to_parents(t1)
    n2 = _to_parents(t2)
    anc1 = _ancestor_matrix(n1)
    anc2 = _ancestor_matrix(n2)
    best = [1]  # roots always map to each other

    def search(i: int, mapping: list[tuple[int, int]], used2: int):
        if i == len(n1):
            best[0] = max(best[0], len(mapping))
            return
        if len(mapping) + (len(n1) - i) <= best[0]:
            return
        for j in range(1, len(n2)):
            if used2 >> j & 1:
                continue
            ok = True
            for (a, b) in mapping:
                if anc1[a][i] != anc2[b][j] or anc1[i][a] != anc2[j][b]:
                    ok = False
                    break
            if ok:
                mapping.append((i, j))
                search(i + 1, mapping, used2 | (1 << j))
                mapping.pop()
        search(i + 1, mapping, used2)

    search(1, [(0, 0)], 1)
    return t1.size + t2.size - 2 * best[0]


def _ancestor_matrix(nodes):
    n = len(nodes)
    anc = [[False] * n for _ in range(n)]
    for i in range(n):
        p = nodes[i][0]
        while p is not None:
            anc[p][i] = True
            p = nodes[p][0]
    return anc


# ---------------------------------------------------------------------------
# exact graph edit distance on the underlying (unrooted) tree graphs

def exact_ged_on_trees(t1: LevelTree, t2: LevelTree) -> int:
    """Minimum unit-cost graph edit distance treating both trees as plain
    undirected graphs: edge insert/delete plus isolated-node insert/delete.

    Exhaustive branch and bound over injective partial node mappings.
    """
    if t1.size > 7 or t2.size > 7:
        raise UsageError("exact graph edit distance is capped at 7 nodes")
    e1 = _edge_set(t1)
    e2 = _edge_set(t2)
    n1, n2 = t1.size, t2.size
    best = [n1 + n2 + len(e1) + len(e2)]

    def cost_of(phi: list[int | None]) -> int:
        mapped = {i for i, x in enumerate(phi) if x is not None}
        imaged = {x for x in phi if x is not None}
        c = (n1 - len(mapped)) + (n2 - len(imaged))
        covered = set()
        for (a, b) in e1:
            if phi[a] is not None and phi[b] is not None:
                img = (min(phi[a], phi[b]), max(phi[a], phi[b]))
                if img in e2:
                    covered.add(img)
                    continue
            c += 1
        c += len(e2) - len(covered)
        return c

    def lower_bound(phi: list[int | None], upto: int) -> int:
        # edits already forced among decided nodes
        c = sum(1 for i in range(upto) if phi[i] is None)
        for (a, b) in e1:
            if a < upto and b < upto and phi[a] is not None and phi[b] is not None:
                img = (min(phi[a], phi[b]), max(phi[a], phi[b]))
                if img not in e2:
                    c += 1
        return c

    phi: list[int | None] = [None] * n1

    def search(i: int):
        if lower_bound(phi, i) >= best[0]:
            return
        if i == n1:
            best[0] = min(best[0], cost_of(phi))
            return
        used = {x for x in phi[:i] if x is not None}
        for j in range(n2):
            if j not in used:
                phi[i] = j
                search(i + 1)
        phi[i] = None
        search(i + 1)

    search(0)
    return best[0]


def _edge_set(t: LevelTree) -> set[tuple[int, int]]:
    nodes = _to_parents(t)
    return {(min(i, p), max(i, p)) for i, (p, _) in enumerate(nodes) if p is not None}
