"""Level-by-level modified tree edit distance over unordered level trees.

The distance between two level trees is computed bottom-up.  Per level the
steps are: pad the smaller level with parentless placeholder nodes, assign
canonical labels to the combined level from the children's current labels,
build the complete bipartite matrix of counted-multiset symmetric
differences, solve the minimum-cost matching, convert the matching value to
a move count, and relabel the padded side through the matching bijection so
the parent level compares reconciled child labels.

Edit operations and their prices under a WeightScheme (levels are 1-based,
the root is level 1): inserting or deleting a leaf at level L costs
``leaf_cost(L)``; moving a node from one parent at level L to another
parent at level L costs ``move_cost(L)``.  No operation changes the depth
of any existing node.

Where ``move_cost(L) > 2 * leaf_cost(L + 1)``, a re-parented node at level
L + 1 may be cheaper to delete and re-insert under its new parent, after
the children it keeps have been moved over in turn.  There the level's
matrix prices each re-parented child bottom-up at
``min(move_cost(L), 2 * leaf_cost(L + 1) + the prices of the children it
keeps)`` instead of counting it; at every other level the matrix is the
plain symmetric difference, so unit-weight distances never take that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Mapping

import numpy as np

from .errors import InvariantError, UsageError
from .assignment import matching_with_duals
from .tree import LevelTree, canonical_form


class WeightScheme:
    """Strictly positive per-level costs for the two edit-operation families.

    ``leaf`` prices leaf insertion/deletion at a level: a leaf at level L
    costs ``leaf_cost(L)``.  ``move`` prices a same-level move by the level
    of the parents: re-parenting a node at level L + 1 from one node at
    level L to another costs ``move_cost(L)``.  Either can be a mapping
    {level: weight} (levels are 1-based, the root is level 1; unlisted
    levels default to 1) or a callable level -> weight.

    The distance is the cost of the cheapest edit script the level-by-level
    algorithm finds under these prices, including scripts that delete and
    re-insert a node where that is cheaper than moving it.
    """

    def __init__(self, leaf=None, move=None, name: str = "custom"):
        self.name = name
        self._leaf = self._normalize(leaf)
        self._move = self._normalize(move)

    @staticmethod
    def _normalize(spec) -> Callable[[int], object]:
        if spec is None:
            return lambda level: 1
        if callable(spec):
            return spec
        if isinstance(spec, Mapping):
            for level, w in spec.items():
                if w <= 0:
                    raise UsageError(f"weight for level {level} must be positive, got {w}")
            table = dict(spec)
            return lambda level: table.get(level, 1)
        raise UsageError("weight spec must be a mapping, callable, or None")

    def leaf_cost(self, level: int):
        w = self._leaf(level)
        if w <= 0:
            raise UsageError(f"leaf weight at level {level} must be positive")
        return w

    def move_cost(self, level: int):
        w = self._move(level)
        if w <= 0:
            raise UsageError(f"move weight at level {level} must be positive")
        return w

    @classmethod
    def from_table(cls, rows, name: str = "file") -> "WeightScheme":
        """Build from (level, leaf_weight, move_weight) triples; weights are
        parsed exactly (Fractions), unlisted levels cost 1."""
        leaf: dict[int, Fraction] = {}
        move: dict[int, Fraction] = {}
        for level, w1, w2 in rows:
            leaf[int(level)] = Fraction(w1)
            move[int(level)] = Fraction(w2)
        return cls(leaf=leaf, move=move, name=name)


UNIT = WeightScheme(name="unit")
W_PLUS = WeightScheme(move=lambda level: 4 * level, name="wplus")


@dataclass
class CostBreakdown:
    """Per-level operation counts; index i corresponds to level i + 1.

    The distance is rebuilt from the counts as the sum over levels L of
    ``leaf_cost(L) * padding + move_cost(L) * matching
    + 2 * leaf_cost(L) * reinserted``.
    """
    sizes_a: list[int]         # pre-padding level sizes of the first tree
    sizes_b: list[int]
    padding: list[int]         # forced leaf insertions/deletions per level
    matching_raw: list[int]    # symmetric difference of the level's matching:
                               # padding below plus twice the re-parented children
    matching: list[int]        # moves between two parents at this level
    reinserted: list[int]      # nodes of this level deleted and re-inserted
    total: object              # weighted distance (int under unit weights)

    @property
    def levels(self) -> int:
        return len(self.padding)


def canonize_level(children_collections) -> list[int]:
    """Assign labels 0,1,2,... to collections ordered by size then elements.

    Equal collections (as multisets) get equal labels; each collection must
    already be a sorted tuple of child labels.
    """
    order = sorted(set(children_collections), key=lambda c: (len(c), c))
    label = {c: i for i, c in enumerate(order)}
    return [label[c] for c in children_collections]


def build_bipartite_weights(collections_a, collections_b) -> np.ndarray:
    """Complete matrix of counted-multiset symmetric-difference sizes.

    Padded nodes (and leaves) contribute the empty collection.  Collections
    must be sorted tuples over a shared label space.
    """
    na, nb = len(collections_a), len(collections_b)
    labels = sorted({l for c in collections_a for l in c}
                    | {l for c in collections_b for l in c})
    if not labels:
        return np.zeros((na, nb), dtype=np.int64)
    col = {l: i for i, l in enumerate(labels)}
    A = np.zeros((na, len(labels)), dtype=np.int64)
    B = np.zeros((nb, len(labels)), dtype=np.int64)
    for i, c in enumerate(collections_a):
        for l in c:
            A[i, col[l]] += 1
    for i, c in enumerate(collections_b):
        for l in c:
            B[i, col[l]] += 1
    overlap = np.zeros((na, nb), dtype=np.int64)
    for li in range(len(labels)):
        overlap += np.minimum.outer(A[:, li], B[:, li])
    sizes_a = A.sum(axis=1)
    sizes_b = B.sum(axis=1)
    return sizes_a[:, None] + sizes_b[None, :] - 2 * overlap


def _collections(children, child_labels, pad_to: int):
    cols = [tuple(sorted(child_labels[c] for c in kids)) for kids in children]
    cols.extend(() for _ in range(pad_to - len(cols)))
    return cols


# The minimum-cost matching at a level can have several optimal solutions,
# and the relabeling they induce feeds the next level, so the level loop
# explores cost-equal matchings and keeps the cheapest overall outcome.
# Caps bound the exploration; levels wider than _TIE_WIDTH take the single
# lexicographically smallest optimum.
_TIE_WIDTH = 64
_TIE_STATE_CAP = 8
_TIE_VISIT_CAP = 300
_TIE_EMIT_CAP = 30


def _reconciled_key(tree: LevelTree | None, level_index: int, labels) -> tuple:
    """Per-parent label multisets of a level's real nodes.

    Two reconciled labelings with equal keys are interchangeable for every
    later level: parents read only their own children's label multisets, and
    padded nodes' labels are never read at all.  Where nodes also carry a
    delete-and-reinsert price, ``labels`` holds (label, price) pairs.
    """
    if tree is None or level_index >= tree.depth:
        return ()
    groups: dict[int, list] = {}
    for j, node in enumerate(tree.levels[level_index]):
        p = -1 if node.parent is None else node.parent
        groups.setdefault(p, []).append(labels[j])
    return tuple(sorted((p, tuple(sorted(g))) for p, g in groups.items()))


def _enumerate_receiver_labelings(tight_lists, donor_labels, donor_masks,
                                  real_count: int, n: int, emit):
    """Walk perfect matchings of the tight-edge graph, receiver by receiver.

    ``tight_lists[r]`` holds the donor indices tight with receiver r; donors
    with equal (label, tight mask) are interchangeable and tried once per
    choice point.  emit() gets the real receivers' label tuple and the donor
    chosen for every receiver, and returns False to stop early.
    """
    used = [False] * n
    received = [0] * real_count
    chosen = [0] * n
    budget = [_TIE_VISIT_CAP]

    def rec(r: int) -> bool:
        if r == n:
            return emit(tuple(received), chosen)
        seen = set()
        for d in tight_lists[r]:
            if used[d]:
                continue
            key = (donor_labels[d], donor_masks[d]) if r < real_count else donor_masks[d]
            if key in seen:
                continue
            seen.add(key)
            budget[0] -= 1
            if budget[0] < 0:
                return False
            used[d] = True
            chosen[r] = d
            if r < real_count:
                received[r] = donor_labels[d]
            ok = rec(r + 1)
            used[d] = False
            if not ok:
                return False
        return True

    rec(0)


def _search_costs(weights: WeightScheme, k: int):
    """Per-level leaf and move costs (index 0 is level 1) on one exact scale,
    with the dtype of the matrices they enter.

    Rational weights are multiplied by their common denominator so that the
    level matchings run on integer matrices; float weights stay floats.
    """
    leaf = [weights.leaf_cost(level) for level in range(1, k + 1)]
    move = [weights.move_cost(level) for level in range(1, k + 1)]
    if any(isinstance(w, float) for w in leaf + move):
        return leaf, move, float
    if not all(type(w) is int for w in leaf + move):
        scale = math.lcm(*(Fraction(w).denominator for w in leaf + move))
        leaf = [int(w * scale) for w in leaf]
        move = [int(w * scale) for w in move]
    return leaf, move, np.int64


def _children_by_label(children, labels, prices, n: int):
    """Per node: child label -> child prices, cheapest first."""
    groups: list[dict] = []
    for kids in children:
        g: dict = {}
        for c in kids:
            g.setdefault(labels[c], []).append(prices[c])
        for lst in g.values():
            lst.sort(key=lambda p: p[0])
        groups.append(g)
    groups.extend({} for _ in range(n - len(groups)))
    return groups


def _reinsert_weights(groups, partner_cols, n: int, dtype) -> np.ndarray:
    """Paying side x other side matrix: the price of the paying node's
    children that the partner's collection cannot keep, taking the cheapest
    of each label."""
    labels = sorted({l for g in groups for l in g})
    W = np.zeros((n, n), dtype=dtype)
    rows = np.arange(n)[:, None]
    for l in labels:
        counts = np.array([len(g.get(l, ())) for g in groups])
        kept = np.array([c.count(l) for c in partner_cols])
        prefix = np.zeros((n, counts.max() + 1), dtype=dtype)
        for r, g in enumerate(groups):
            if l in g:
                prefix[r, 1:counts[r] + 1] = list(accumulate(p[0] for p in g[l]))
        W += prefix[rows, np.maximum(counts[:, None] - kept[None, :], 0)]
    return W


def _split_children(group: dict, partner_col) -> tuple:
    """Re-parented and kept children of one paying node under one partner, as
    (moved count, moved price, moved operations, kept price, kept operations)."""
    moved = moved_e = moved_ops = kept_e = kept_ops = 0
    for l, lst in group.items():
        extra = len(lst) - partner_col.count(l)
        for j, (e, ops) in enumerate(lst):
            if j < extra:
                moved += 1
                moved_e += e
                moved_ops += ops
            else:
                kept_e += e
                kept_ops += ops
    return moved, moved_e, moved_ops, kept_e, kept_ops


def _check_matching(level: int, m: int, p_below: int) -> None:
    """A level's matching value is the padding one level down plus twice the
    number of re-parented children."""
    if m < p_below or (m - p_below) % 2 != 0:
        raise InvariantError(
            f"level {level}: matching value {m} incompatible with padding {p_below}")


# Operation counts travel packed into one int: counter x (moves priced at
# level x + 1 for x < depth, delete/re-insert pairs at level x - depth + 1
# after that) occupies bits [x * _OP_BITS, (x + 1) * _OP_BITS).
_OP_BITS = 32


def _run(t1: LevelTree, t2: LevelTree, weights: WeightScheme, want_breakdown: bool):
    # the level search reads node order (tie-breaks, capped tie search), so it
    # runs on canonical order; fixing an internal order makes symmetry exact
    lit1, t1 = canonical_form(t1)
    lit2, t2 = canonical_form(t2)
    swapped = lit1 > lit2
    if swapped:
        t1, t2 = t2, t1
    k = max(t1.depth, t2.depth)
    sizes_a = [len(t1.levels[i]) if i < t1.depth else 0 for i in range(k)]
    sizes_b = [len(t2.levels[i]) if i < t2.depth else 0 for i in range(k)]
    P = [abs(sizes_a[i] - sizes_b[i]) for i in range(k)]
    P[0] = 0  # both trees have exactly one root

    leaf, move, dtype = _search_costs(weights, k)
    # reinsert[i]: at the matching of level i + 1 some re-parented child may
    # be cheaper to delete and re-insert than to move
    reinsert = [i + 1 < k and move[i] > 2 * leaf[i + 1] for i in range(k)]
    moved_at = [1 << (_OP_BITS * i) for i in range(k)]
    reinserted_at = [1 << (_OP_BITS * (k + i)) for i in range(k)]

    # states: dedup key -> (accumulated cost, lab_a, lab_b, m_raw history,
    # packed operation counts, per-node prices (price_a, price_b) or None)
    states: dict = {((), ()): (0, [], [], (), 0, None)}
    p_below = 0
    for i in range(k - 1, -1, -1):
        na, nb = sizes_a[i], sizes_b[i]
        n = max(na, nb)
        children_a = t1.children_lists(i) if i < t1.depth else []
        children_b = t2.children_lists(i) if i < t2.depth else []
        # level i + 1 nodes carry prices when the level above may reinsert them
        priced = i > 0 and reinsert[i - 1]
        # at a reinsert level the side with fewer children pays for the
        # children that its partner cannot keep, each at its own price; none
        # of them is padding, whose place among equal labels is not fixed
        a_pays = reinsert[i] and sizes_a[i + 1] < sizes_b[i + 1]
        nxt: dict = {}

        def record(cur_a, cur_b, acc, m_hist, ops, prices):
            if prices is None:
                key = (_reconciled_key(t1, i, cur_a), _reconciled_key(t2, i, cur_b))
            else:
                key = (_reconciled_key(t1, i, [(l, p[0]) for l, p in zip(cur_a, prices[0])]),
                       _reconciled_key(t2, i, [(l, p[0]) for l, p in zip(cur_b, prices[1])]))
            old = nxt.get(key)
            if old is None or acc < old[0]:
                nxt[key] = (acc, cur_a, cur_b, m_hist, ops, prices)

        def priced_pairs(pair_a, kept):
            """Price of re-parenting each node pair (x, y) one level up: a
            move, or deleting x and inserting y after moving the children
            they keep.  ``kept(x, y)`` gives those children's (price, ops)."""
            price_a = []
            price_b = [(0, 0)] * n
            for x, y in enumerate(pair_a):
                if x >= na or y >= nb:
                    p = (0, 0)   # a padding pair is priced as padding
                else:
                    kept_e, kept_ops = kept(x, y)
                    redo = 2 * leaf[i] + kept_e
                    if move[i - 1] <= redo:
                        p = (move[i - 1], moved_at[i - 1])
                    else:
                        p = (redo, kept_ops + reinserted_at[i])
                price_a.append(p)
                price_b[y] = p
            return price_a, price_b

        for acc, lab_a, lab_b, m_hist, ops, prices in sorted(states.values(),
                                                            key=lambda s: s[0]):
            cols_a = _collections(children_a, lab_a, n)
            cols_b = _collections(children_b, lab_b, n)

            if all(len(c) == 0 for c in cols_a) and all(len(c) == 0 for c in cols_b):
                # bottom level or all-leaf level pair: zero matrix, identity match
                _check_matching(i + 1, 0, p_below)
                new_prices = (priced_pairs(range(n), lambda x, y: (0, 0))
                              if priced else None)
                record([0] * n, [0] * n, acc, (0,) + m_hist, ops, new_prices)
                continue

            labels = canonize_level(cols_a + cols_b)
            if reinsert[i]:
                if a_pays:
                    groups = _children_by_label(children_a, lab_a, prices[0], n)
                    W = _reinsert_weights(groups, cols_b, n, dtype)
                else:
                    groups = _children_by_label(children_b, lab_b, prices[1], n)
                    W = _reinsert_weights(groups, cols_a, n, dtype).T
                splits: dict = {}
            else:
                W = build_bipartite_weights(cols_a, cols_b)
            m_i, f, u, v = matching_with_duals(W)
            cur_a = labels[:n]
            cur_b = labels[n:]
            if not reinsert[i]:
                # every cost-equal matching re-parents the same number of nodes
                _check_matching(i + 1, m_i, p_below)
                M_i = (m_i - p_below) // 2
                unit_step = (acc + (move[i] * M_i if M_i else 0), (m_i,) + m_hist,
                             ops + M_i * moved_at[i])

            def kept_by_moves(x, y):
                kept = (len(cols_a[x]) + len(cols_b[y]) - int(W[x, y])) // 2
                return kept * move[i], kept * moved_at[i]

            def split(x, y):
                key = (x, cols_b[y]) if a_pays else (y, cols_a[x])
                got = splits.get(key)
                if got is None:
                    got = splits[key] = _split_children(groups[key[0]], key[1])
                return got

            def advance(pair_a, next_a, next_b):
                """Record the state that the level pairing pair_a leads to."""
                if not reinsert[i]:
                    new_prices = priced_pairs(pair_a, kept_by_moves) if priced else None
                    record(next_a, next_b, *unit_step, new_prices)
                    return
                # the paying side has no more children than the other, so
                # the symmetric difference is the padding below plus twice
                # the children it gives up
                m_raw = p_below
                cost = new_ops = 0
                parts = []
                for x, y in enumerate(pair_a):
                    part = split(x, y)
                    parts.append(part)
                    m_raw += 2 * part[0]
                    cost += part[1]
                    new_ops += part[2]
                new_prices = (priced_pairs(pair_a, lambda x, y: parts[x][3:])
                              if priced else None)
                record(next_a, next_b, acc + cost, (m_raw,) + m_hist, ops + new_ops,
                       new_prices)

            if na < nb:
                advance(f, [cur_b[f[x]] for x in range(n)], cur_b)
            else:
                inv = [0] * n
                for x, y in enumerate(f):
                    inv[y] = x
                advance(f, cur_a, [cur_a[inv[y]] for y in range(n)])

            if n > _TIE_WIDTH or len(nxt) >= _TIE_STATE_CAP:
                continue
            tight = W == (np.asarray(u)[:, None] + np.asarray(v)[None, :])
            if na < nb:
                # a is the padded side and receives labels from b
                tight_lists = [tuple(np.flatnonzero(tight[x])) for x in range(n)]
                donor_labels = cur_b
                donor_masks = [int.from_bytes(np.packbits(tight[:, y]).tobytes(), "big")
                               for y in range(n)]
                real_count = na
            else:
                tight_lists = [tuple(np.flatnonzero(tight[:, y])) for y in range(n)]
                donor_labels = cur_a
                donor_masks = [int.from_bytes(np.packbits(tight[x]).tobytes(), "big")
                               for x in range(n)]
                real_count = nb

            seen_received: set = set()

            def emit(received, donors):
                if received not in seen_received:
                    seen_received.add(received)
                    got = list(received) + [0] * (n - len(received))
                    if na < nb:
                        advance(donors, got, cur_b)
                    else:
                        pair_a = [0] * n
                        for y, x in enumerate(donors):
                            pair_a[x] = y
                        advance(pair_a, cur_a, got)
                return (len(nxt) < _TIE_STATE_CAP
                        and len(seen_received) < _TIE_EMIT_CAP)

            _enumerate_receiver_labelings(tight_lists, donor_labels, donor_masks,
                                          real_count, n, emit)

        states = nxt
        p_below = P[i]

    best = min(states.values(), key=lambda s: s[0])
    mask = (1 << _OP_BITS) - 1
    counts = [best[4] >> (_OP_BITS * x) & mask for x in range(2 * k)]
    moves, reinserted = counts[:k], counts[k:]
    total = 0
    for i in range(k):
        if P[i]:
            total += weights.leaf_cost(i + 1) * P[i]
    for i in range(k):
        if moves[i]:
            total += weights.move_cost(i + 1) * moves[i]
        if reinserted[i]:
            total += 2 * weights.leaf_cost(i + 1) * reinserted[i]
    if not want_breakdown:
        return total
    if swapped:
        sizes_a, sizes_b = sizes_b, sizes_a
    return total, CostBreakdown(sizes_a, sizes_b, P, list(best[3]), moves,
                                reinserted, total)


def ted_star(t1: LevelTree, t2: LevelTree, weights: WeightScheme = UNIT):
    """Distance and full per-level cost breakdown."""
    return _run(t1, t2, weights, want_breakdown=True)


def ted_star_distance_only(t1: LevelTree, t2: LevelTree, weights: WeightScheme = UNIT):
    """Same value contract as ted_star without materializing the breakdown."""
    return _run(t1, t2, weights, want_breakdown=False)
