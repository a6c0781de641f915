"""Level-by-level modified tree edit distance over unordered level trees.

The distance between two level trees is computed bottom-up.  Per level the
steps are: pad the smaller level with parentless placeholder nodes, assign
canonical labels to the combined level from the children's current labels,
price what each node of one side re-parents under each node of the other,
solve the minimum-cost matching, and relabel the padded side through the
matching bijection so the parent level compares reconciled child labels.
The steps stop at level 2: each tree has one root, so the root's row is
written down, with level 2's padding as its matching value and nothing
moved or reinserted.

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
One table (``_split_table``) prices every matched level: the side with
fewer children pays, and the table holds what each paying node x
re-parents and keeps under each partner y.  The matrix and the state a
matching reaches read its entries, the same numbers.  Where nothing is
reinserted each child is priced one, so x moves |x| minus the overlap of
the two collections, and the matrix entry 2 * moved + |y| - |x| is the
counted symmetric difference |x| + |y| - 2 * overlap exactly.

At depth 3 or less the level search has a closed form, which ``ted_star``
returns without a canonical pass, a matrix, a solve or a tie search.  Level 3 holds only
leaves, so its labels are all equal, and where level 2 may reinsert, each
level-3 node carries the same price ``2 * leaf_cost(3)``.  Level 2's matrix
is then g(c_x - c_y) over the nodes' child counts, with g(t) = |t| or
g(t) = 2 * leaf_cost(3) * max(0, t).  Both are convex in the difference,
so the matrix is Monge on sorted counts and pairing the sorted counts (the
shorter side padded with zeros) is optimal.  With D that pairing's L1
distance and P_3 level 3's padding, every optimal matching re-parents the
same M = (D - P_3) / 2 equally priced nodes, so every state the tie search
could record has one total and one breakdown: M moves at level 2, or M
re-insertions at level 3 where ``move_cost(2) > 2 * leaf_cost(3)``.  That
takes a sort, O(n log n); deeper trees run the level search, whose
matchings take O(n^3) per level.  Weights are read as ints or Fractions
(``WeightScheme``), so distances stay exact at any size: where a level's
entries could leave int64 its matrix holds Python ints, which the matching
solves with its exact solver.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Mapping

import numpy as np

from .errors import InvariantError, UsageError, check_count
from .assignment import matching_with_duals
from .tree import LevelTree


class WeightScheme:
    """Strictly positive per-level costs for the two edit-operation families.

    ``leaf`` prices leaf insertion/deletion at a level: a leaf at level L
    costs ``leaf_cost(L)``.  ``move`` prices a same-level move by the level
    of the parents: re-parenting a node at level L + 1 from one node at
    level L to another costs ``move_cost(L)``.  Either can be a mapping
    {level: weight} (levels are integers >= 1, not ``bool``, the root is
    level 1; unlisted levels default to 1) or a callable level -> weight.
    Each weight must be a finite real number above 0: a mapping's levels
    and weights are checked here, a callable's weights each time
    ``leaf_cost`` or ``move_cost`` reads one (UsageError otherwise).

    Weights are read exactly (``exact_number``): ``0.3`` is 3/10, as in a
    weight file, and a distance is an ``int`` when it is whole and a
    ``Fraction`` otherwise (``as_distance``), under every scheme.  A long
    decimal such as ``0.1 * 3 + 0.07`` (0.37000000000000005) scales the
    level matrices by 10 ** 17, so levels wider than 24 nodes leave scipy
    for the pure-Python matching: about 22 times slower on ``random_tree``
    pairs (README), and about 100 times on a pair of hub trees with levels of
    hundreds of nodes (ROADMAP.md).

    The distance is the cost of the cheapest edit script the level-by-level
    algorithm finds under these prices, including scripts that delete and
    re-insert a node where that is cheaper than moving it.
    """

    def __init__(self, leaf=None, move=None, name: str = "custom"):
        self.name = name
        self.leaf_cost = _per_level(leaf, "leaf")
        self.move_cost = _per_level(move, "move")

    @classmethod
    def from_table(cls, rows, name: str = "file") -> "WeightScheme":
        """Build from (level, leaf_weight, move_weight) triples; unlisted
        levels cost 1.  A level is an integer >= 1, and a weight is read as
        the constructor reads it, a string such as ``"1/3"`` as a Fraction.
        UsageError otherwise."""
        leaf, move = {}, {}
        for level, w1, w2 in rows:
            level = int(check_count(level, "weight table level"))
            try:
                leaf[level], move[level] = [Fraction(w) if isinstance(w, str) else w
                                            for w in (w1, w2)]
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"bad weight for level {level}: {exc}") from exc
        return cls(leaf=leaf, move=move, name=name)


def _per_level(spec, what: str) -> Callable[[int], object]:
    """``spec`` as a checked function level -> exact weight."""
    if spec is None:
        return lambda level: 1
    if callable(spec):
        return lambda level: _check_weight(spec(level), f"{what} weight at level {level}")
    if isinstance(spec, Mapping):
        table = {int(check_count(level, f"{what} weight level")):
                 _check_weight(w, f"weight for level {level}") for level, w in spec.items()}
        return lambda level: table.get(level, 1)
    raise UsageError("weight spec must be a mapping, callable, or None")


def _check_weight(w, what: str):
    """``w`` read by ``exact_number`` if it is finite and above 0, else UsageError."""
    exact = exact_number(w)
    if exact is None or not exact > 0:
        raise UsageError(f"{what} must be a finite positive number, got {w!r}")
    return exact


def exact_number(x):
    """``x`` read exactly, or None if it is not a finite real number (a
    ``bool`` is not one): an ``int`` or a ``Fraction`` as given, another
    integer (numpy's) as an ``int``, and a float (Python's or numpy's) as the
    decimal it prints as, ``Fraction(str(x))``, so ``0.3`` is 3/10, as in a
    weight file."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, numbers.Integral):   # numpy's integers
        return int(x)
    return Fraction(str(x)) if isinstance(x, numbers.Real) and math.isfinite(x) else None


def as_distance(x):
    """A distance value ``x`` in its one type: an ``int`` when it is whole
    (a whole ``Fraction`` gives its numerator), else the ``Fraction``."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def check_scheme(weights) -> WeightScheme:
    """``weights`` if it is a WeightScheme, else UsageError."""
    if not isinstance(weights, WeightScheme):
        raise UsageError(f"weights must be a WeightScheme, got {weights!r}")
    return weights


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
    total: object              # weighted distance (``as_distance``)

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


# The minimum-cost matching at a level can have several optimal solutions,
# and the relabeling they induce feeds the next level, so the level loop
# explores cost-equal matchings and keeps the cheapest overall outcome.  The
# padded side of a level receives the labels of the nodes it is matched to;
# the exploration walks the perfect matchings of the edges tight under the
# solver's duals (every edge some optimum uses, and maybe edges none uses, so
# what gets recorded depends on the duals and so on the solver, which
# assignment picks by the matrix's width and entries),
# depth first and receiver by receiver, and records each new tuple of
# received labels.  Caps bound it: at most _TIE_VISIT_CAP choices per level,
# _TIE_EMIT_CAP label tuples and _TIE_STATE_CAP states; levels wider than
# _TIE_WIDTH take the single lexicographically smallest optimum.
_TIE_WIDTH = 64
_TIE_STATE_CAP = 8
_TIE_VISIT_CAP = 300
_TIE_EMIT_CAP = 30


def _handed_up(spans, labels, prices=None) -> tuple:
    """Per parent, the sorted labels of its children ``labels[s:e]``, each
    paired with its price where the level is priced: all that the level above
    reads of a labeling (padded nodes' labels are never read), so labelings
    that hand up equal collections are interchangeable for every later level.
    """
    if prices is None:
        return tuple(tuple(sorted(labels[s:e])) for s, e in spans)
    return tuple(tuple(sorted((labels[j], prices[j][0]) for j in range(s, e)))
                 for s, e in spans)


def _spans(counts) -> list[tuple[int, int]]:
    """Each node's range of children one level down, from its child count."""
    ends = list(accumulate(counts))
    return list(zip([0] + ends[:-1], ends))


def _tight_matchings(tight, donor_labels, real_count: int):
    """Perfect matchings of the tight-edge graph, depth first, receiver by
    receiver; ``tight[r, d]`` says receiver r may take donor d.

    Donors with equal (label, tight column) are interchangeable and tried
    once per choice point, and the walk stops after _TIE_VISIT_CAP choices.
    Yields the labels the real receivers (the first ``real_count``) get and
    the donor of every receiver; the donor list is reused between yields.
    """
    n = len(tight)
    options = [np.flatnonzero(row).tolist() for row in tight]
    masks = [int.from_bytes(np.packbits(col).tobytes(), "big") for col in tight.T]
    used = [False] * n
    chosen = [0] * n
    stack = [iter(options[0])]       # per receiver, the donors left to try
    tried: list[set] = [set()]
    budget = _TIE_VISIT_CAP
    while stack:
        r = len(stack) - 1
        for d in stack[r]:
            if used[d]:
                continue
            key = (donor_labels[d], masks[d]) if r < real_count else masks[d]
            if key in tried[r]:
                continue
            tried[r].add(key)
            budget -= 1
            if budget < 0:
                return
            used[d] = True
            chosen[r] = d
            break
        else:
            stack.pop()
            tried.pop()
            if stack:
                used[chosen[r - 1]] = False
            continue
        if r + 1 < n:
            stack.append(iter(options[r + 1]))
            tried.append(set())
        else:
            yield tuple(donor_labels[d] for d in chosen[:real_count]), chosen
            used[d] = False


def _inverse(perm) -> list[int]:
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return inv


def _search_costs(leaf, move):
    """The per-level ``leaf`` and ``move`` costs (index 0 is level 1) on one
    exact scale, and the scale: the weights times their common denominator,
    so that the level matchings run on integer matrices."""
    scale = math.lcm(*(w.denominator for w in leaf + move))
    return [int(w * scale) for w in leaf], [int(w * scale) for w in move], scale


def bound_weights(weights: WeightScheme, k: int):
    """The weights of TED*'s lower bound over levels 1..k (``nedist.vptree``):
    (size, count, unit), index 0 is level 1.

    ``unit`` times the bound is the sum over levels i of ``size[i]`` times
    the difference of the two level sizes, plus, for levels 1..k - 1,
    ``count[i]`` times the L1 distance of level i's child counts, each sorted
    and padded with zeros.  With c_i = min(move(i), 2 leaf(i + 1)) and c_0 = 0,
    ``size[i]`` is 2 leaf(i) - c_(i-1) and ``count[i]`` is c_i, both integers
    on the scale of ``_search_costs``.
    """
    check_scheme(weights)
    leaf_w = [weights.leaf_cost(level) for level in range(1, k + 1)]
    move_w = [weights.move_cost(level) for level in range(1, k)]
    leaf, move, scale = _search_costs(leaf_w, move_w)
    count = [min(m, 2 * l) for m, l in zip(move, leaf[1:])]
    size = [2 * l - c for l, c in zip(leaf, [0] + count)]
    return size, count, 2 * scale


def _split_table(spans, labels, prices, partner_cols):
    """(table, col_of): table[x][col_of[y]] is (moved count, moved price,
    moved operations, kept price, kept operations) of paying node x's
    children (``spans``, ``labels``, (price, operations) ``prices``) under
    partner y: of each label, the cheapest that y's collection cannot keep
    move.  Padded rows are zero."""
    distinct: dict = {}
    col_of = [distinct.setdefault(col, len(distinct)) for col in partner_cols]
    counts: dict = {}   # label -> how many of it each distinct partner keeps
    zero = [(0, 0, 0, 0, 0)] * len(distinct)   # no children: nothing moves or stays
    rows: dict = {((), ()): zero}   # paying nodes with the same children share a row
    table = []
    for s, e in spans:
        children = (tuple(labels[s:e]), tuple(prices[s:e]))
        row = rows.get(children)
        if row is None:
            groups: dict = {}
            for c in range(s, e):
                groups.setdefault(labels[c], []).append(prices[c])
            by_label = []
            for l in sorted(groups):
                if l not in counts:
                    counts[l] = [col.count(l) for col in distinct]
                # of the n children labeled l, the n - kept cheapest move under
                # a partner that keeps `kept` of them (none if kept >= n)
                e_l, ops_l = zip(*sorted(groups[l], key=itemgetter(0)))
                e_sum = list(accumulate(e_l, initial=0))
                ops_sum = list(accumulate(ops_l, initial=0))
                n = len(e_l)
                by_label.append([(j, e_sum[j], ops_sum[j], e_sum[n] - e_sum[j], ops_sum[n] - ops_sum[j])
                                 for j in [n - kept if kept < n else 0 for kept in counts[l]]])
            row = rows[children] = (by_label[0] if len(by_label) == 1 else
                                    [tuple(map(sum, zip(*cell))) for cell in zip(*by_label)])
        table.append(row)
    table += [zero] * (len(partner_cols) - len(spans))
    return table, col_of


def build_bipartite_weights(table, col_of, dtype, partner_sizes=None) -> np.ndarray:
    """A level's matrix from its split table, rows the paying nodes.  At a
    reinsert level it is the moved prices, in ``dtype``.  Elsewhere every
    child is priced one and ``partner_sizes`` gives each partner's |y|: the
    matrix is the counted symmetric difference 2 * moved + |y| - |x|, which
    is moved - kept + |y|, in int64."""
    if partner_sizes is None:
        return np.array([[cell[1] for cell in row] for row in table], dtype=dtype)[:, col_of]
    W = np.array([[cell[0] - cell[3] for cell in row] for row in table], dtype=np.int64)
    return W[:, col_of] + np.array(partner_sizes, dtype=np.int64)


# Operation counts travel packed into one int: counter x (moves priced at
# level x + 1 for x < depth, delete/re-insert pairs at level x - depth + 1
# after that) occupies bits [x * _OP_BITS, (x + 1) * _OP_BITS).
_OP_BITS = 32


def ted_star(t1: LevelTree, t2: LevelTree, weights: WeightScheme = UNIT):
    """Distance and full per-level cost breakdown."""
    check_scheme(weights)
    counts_1, counts_2 = t1.child_counts(), t2.child_counts()   # validates both
    k = max(len(counts_1), len(counts_2))
    counts_1 += ((),) * (k - len(counts_1))   # no nodes below a tree's depth
    counts_2 += ((),) * (k - len(counts_2))
    sizes = ([len(c) for c in counts_1], [len(c) for c in counts_2])
    P = [abs(x - y) for x, y in zip(*sizes)]

    # the weights read once, index 0 is level 1; the level search scales them
    leaf_w = [weights.leaf_cost(level) for level in range(1, k + 1)]
    move_w = [weights.move_cost(level) for level in range(1, k + 1)]
    # reinsert[i]: at the matching of level i + 1 some re-parented child may
    # be cheaper to delete and re-insert than to move
    reinsert = [i + 1 < k and move_w[i] > 2 * leaf_w[i + 1] for i in range(k)]
    if k <= 3:   # the closed form of the module docstring, in any level order
        moves, reinserted = [0] * k, [0] * k
        D = 0   # L1 distance of level 2's sorted child counts, padded with zeros
        if k == 3:
            n = max(sizes[0][1], sizes[1][1])
            level_a = sorted(counts_1[1] + (0,) * (n - sizes[0][1]))
            level_b = sorted(counts_2[1] + (0,) * (n - sizes[1][1]))
            D = sum(abs(x - y) for x, y in zip(level_a, level_b))
            # every optimum re-parents as many level-3 nodes, each at one price
            if reinsert[1]:
                reinserted[2] = (D - P[2]) // 2
            else:
                moves[1] = (D - P[2]) // 2
        # matching values: the root row's is level 2's padding, level 3 is all leaves
        return _result(leaf_w, move_w, sizes, P, [P[1] if k > 1 else 0, D, 0][:k],
                       moves, reinserted)

    # the level search reads node order (tie-breaks, capped tie search), so it
    # runs on the canonical shapes; fixing an internal order makes symmetry exact
    lit1, shape_a = t1.canonical_literal(), t1.class_key()
    lit2, shape_b = t2.canonical_literal(), t2.class_key()
    sizes_a, sizes_b = sizes
    if lit1 > lit2:
        shape_a, shape_b, sizes_a, sizes_b = shape_b, shape_a, sizes_b, sizes_a
    shape_a += ((),) * (k - len(shape_a))
    shape_b += ((),) * (k - len(shape_b))
    leaf, move, _ = _search_costs(leaf_w, move_w)
    # spans_a[i]: each level-i node's children, as an index range one level down
    spans_a = [_spans(counts) for counts in shape_a]
    spans_b = [_spans(counts) for counts in shape_b]
    # a reinsert matrix entry, and a dual over it, stay within twice the paying
    # side's children at their top price move[i]; where that could leave int64
    # the matrices hold Python ints, which the matching solves exactly
    dtype = object if any(
        reinsert[i] and 2 * min(sizes_a[i + 1], sizes_b[i + 1]) * move[i] >= 2 ** 63
        for i in range(1, k - 1)) else np.int64   # the levels the loop below matches
    moved_at = [1 << (_OP_BITS * i) for i in range(k)]
    reinserted_at = [1 << (_OP_BITS * (k + i)) for i in range(k)]

    # states: the collections both sides hand up -> (accumulated cost, lab_a,
    # lab_b, m_raw history, packed operation counts, per-node prices
    # (price_a, price_b) or None)
    states: dict = {((), ()): (0, [], [], (), 0, None)}
    p_below = 0
    for i in range(k - 1, 0, -1):
        na, nb = sizes_a[i], sizes_b[i]
        n = max(na, nb)
        # level i + 2 sizes: how many children level i + 1 has on each side
        kids_a, kids_b = sum(shape_a[i]), sum(shape_b[i])
        leaves = not kids_a and not kids_b   # a zero matrix, identity match
        # level i + 1 nodes carry prices when the level above may reinsert them
        priced = reinsert[i - 1]
        # one split table prices every matched level: the side with fewer
        # children (b when the counts are equal) pays for the children its
        # partner cannot keep, so none of them is padding, whose place among
        # equal labels is not fixed.  At a reinsert level each child costs its
        # own price.  Elsewhere each costs one in the table, the matrix is
        # 2 * moved + |y| - |x| = |x| + |y| - 2 * overlap, the symmetric
        # difference, and a table price times `scale` = move[i] is a cost
        a_pays = kids_a < kids_b
        scale = 1 if reinsert[i] else move[i]
        unit_prices = [(1, moved_at[i])] * min(kids_a, kids_b)
        # the padded side (b when the sizes are equal) receives the labels of
        # the nodes it is matched to
        a_receives = na < nb
        nxt: dict = {}

        def priced_pairs(pair_a, parts):
            """Price of re-parenting each node pair (x, y) one level up: a
            move, or deleting x and inserting y after moving the children
            they keep (the kept price and operations of ``parts[x]``)."""
            price_a = []
            price_b = [(0, 0)] * n
            for x, y in enumerate(pair_a):
                if x >= na or y >= nb:
                    p = (0, 0)   # a padding pair is priced as padding
                else:
                    redo = 2 * leaf[i] + parts[x][3] * scale
                    if move[i - 1] <= redo:
                        p = (move[i - 1], moved_at[i - 1])
                    else:
                        p = (redo, parts[x][4] + reinserted_at[i])
                price_a.append(p)
                price_b[y] = p
            return price_a, price_b

        for (cols_a, cols_b), (acc, lab_a, lab_b, m_hist, ops, prices) in sorted(
                states.items(), key=lambda s: s[1][0]):
            if reinsert[i]:   # the key pairs each child label with its price
                cols_a = tuple(tuple(l for l, _ in c) for c in cols_a)
                cols_b = tuple(tuple(l for l, _ in c) for c in cols_b)
            cols_a += ((),) * (n - len(cols_a))
            cols_b += ((),) * (n - len(cols_b))
            partner_cols = cols_b if a_pays else cols_a
            table, col_of = _split_table(
                spans_a[i] if a_pays else spans_b[i], lab_a if a_pays else lab_b,
                prices[0 if a_pays else 1] if reinsert[i] else unit_prices, partner_cols)
            if leaves:
                cur_a = cur_b = [0] * n
                m_i, f = 0, list(range(n))
            else:
                labels = canonize_level(cols_a + cols_b)
                cur_a, cur_b = labels[:n], labels[n:]
                W = build_bipartite_weights(
                    table, col_of, dtype,
                    None if reinsert[i] else [len(c) for c in partner_cols])
                W = W if a_pays else W.T   # rows a's nodes, columns b's
                m_i, f, u, v = matching_with_duals(W)
            donor_labels = cur_b if a_receives else cur_a

            def advance(donors):
                """Record the state reached by giving every receiver the label
                of its donor, and return its matching value."""
                pair_a = donors if a_receives else _inverse(donors)
                # the paying side has no more children than the other, so the
                # symmetric difference is the padding below plus twice the
                # children it gives up
                parts = ([table[x][col_of[y]] for x, y in enumerate(pair_a)] if a_pays
                         else [table[y][col_of[x]] for x, y in enumerate(pair_a)])
                cost, m_raw, new_ops = 0, p_below, 0
                for part in parts:
                    m_raw += 2 * part[0]
                    cost += part[1]
                    new_ops += part[2]
                cost *= scale
                got = [donor_labels[d] for d in donors]
                next_a, next_b = (got, cur_b) if a_receives else (cur_a, got)
                new_prices = priced_pairs(pair_a, parts) if priced else None
                price_a, price_b = new_prices or (None, None)
                key = (_handed_up(spans_a[i - 1], next_a, price_a),
                       _handed_up(spans_b[i - 1], next_b, price_b))
                old = nxt.get(key)
                if old is None or acc + cost < old[0]:
                    nxt[key] = (acc + cost, next_a, next_b, (m_raw,) + m_hist,
                                ops + new_ops, new_prices)
                return m_raw

            m_raw = advance(f if a_receives else _inverse(f))
            if not reinsert[i] and m_raw != m_i:
                # the unit matrix is the symmetric difference the table counts
                raise InvariantError(
                    f"level {i + 1}: matching value {m_i} is not the table's {m_raw}")
            if leaves or n > _TIE_WIDTH or len(nxt) >= _TIE_STATE_CAP:
                continue
            tight = W == (np.asarray(u)[:, None] + np.asarray(v)[None, :])
            seen_received: set = set()
            for received, donors in _tight_matchings(tight if a_receives else tight.T,
                                                     donor_labels, min(na, nb)):
                if received not in seen_received:
                    seen_received.add(received)
                    advance(donors)
                if len(nxt) >= _TIE_STATE_CAP or len(seen_received) >= _TIE_EMIT_CAP:
                    break

        states = nxt
        p_below = P[i]

    # the root row: level 2's receivers took distinct donors' labels, so the
    # roots' collections differ by the padding below.  Nothing moves, a paying
    # root keeps every child, and a root step would keep the first cheapest state
    best = min(states.values(), key=lambda s: s[0])
    mask = (1 << _OP_BITS) - 1
    counts = [best[4] >> (_OP_BITS * x) & mask for x in range(2 * k)]
    return _result(leaf_w, move_w, sizes, P, [p_below, *best[3]], counts[:k], counts[k:])


def _result(leaf, move, sizes, P, matching_raw, moves, reinserted):
    """The distance a script's per-level counts add up to under the per-level
    ``leaf`` and ``move`` weights (index 0 is level 1), and its breakdown;
    ``sizes`` are the two trees' level sizes."""
    total = 0
    for i in range(len(P)):
        if P[i]:
            total += leaf[i] * P[i]
    for i in range(len(P)):
        if moves[i]:
            total += move[i] * moves[i]
        if reinserted[i]:
            total += 2 * leaf[i] * reinserted[i]
    total = as_distance(total)
    return total, CostBreakdown(*sizes, P, matching_raw, moves, reinserted, total)


def ted_star_distance_only(t1: LevelTree, t2: LevelTree, weights: WeightScheme = UNIT):
    """The distance of ted_star without its breakdown."""
    return ted_star(t1, t2, weights)[0]
