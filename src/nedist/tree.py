"""Level-structured rooted unordered trees and BFS neighborhood extraction.

A LevelTree stores a rooted tree level by level: level 1 is the root, level
i holds the nodes at BFS depth i-1.  Each level is a tuple holding, per node,
its parent's index in the level above; level 1 is ``(None,)``.  An extracted
tree also carries ``node_ids``, per level a tuple of the nodes' graph labels
in the same order.  Children order carries no meaning; the stored order is
deterministic so repeated extraction is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TreeLiteralError, UsageError, check_count
from .graph import Graph


@dataclass(slots=True)
class LevelTree:
    """A rooted tree as per-level parent tuples (see the module docstring).

    ``levels`` must be a tuple of tuples, and ``validate`` rejects any other
    container: equality compares the containers as given, so a list of the
    same parents would make an unequal twin.
    """

    levels: tuple[tuple[int | None, ...], ...]
    node_ids: tuple[tuple, ...] | None = None   # graph labels parallel to levels
    _canon: str | None = field(default=None, repr=False, compare=False)
    _shape: tuple | None = field(default=None, repr=False, compare=False)
    _counts: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def size(self) -> int:
        return sum(len(lv) for lv in self.levels)

    def validate(self) -> None:
        """UsageError unless the levels form a tree (see ``child_counts``)."""
        self.child_counts()

    def child_counts(self) -> tuple[tuple[int, ...], ...]:
        """Per level, each node's number of children in stored level order
        (the last level's are all 0), memoized.  Unlike ``canonical_form`` it
        needs no AHU pass.  The same pass checks that the levels are a tuple
        of tuples, that level 1 is ``(None,)``, that no level is empty and
        that each parent is an int index into the level above, and raises
        UsageError where one is not."""
        if self._counts is None:
            levels = self.levels
            if not (isinstance(levels, tuple) and all(isinstance(lv, tuple) for lv in levels)):
                raise UsageError("levels must be a tuple of tuples")
            if not levels or len(levels[0]) != 1 or levels[0][0] is not None:
                raise UsageError("level 1 must contain exactly the parentless root")
            counts = [[0] * len(level) for level in levels]
            for li, (above, level) in enumerate(zip(counts, levels[1:]), 2):
                if not level:
                    raise UsageError(f"level {li} is empty")
                for p in level:
                    if not isinstance(p, int) or not 0 <= p < len(above):
                        raise UsageError(f"bad parent reference at level {li}")
                    above[p] += 1
            self._counts = tuple(map(tuple, counts))
        return self._counts

    def class_key(self) -> tuple | str:
        """A key equal for two trees iff they are isomorphic.  At depth <= 3
        it is the level sizes and the sorted level-2 child counts, which fix
        the tree, read from ``child_counts`` with no AHU pass; at depth <= 2
        the sizes alone fix it, and the counts are ``()``.  Deeper it is the
        AHU literal.  A tuple never equals a str, so the kinds never mix."""
        if self.depth > 3:
            return self.canonical_literal()
        counts = self.child_counts()
        return tuple(map(len, counts)), (tuple(sorted(counts[1])) if self.depth == 3 else ())

    def canonical_literal(self) -> str:
        """AHU canonical form: equal strings iff the trees are isomorphic."""
        if self._canon is None:
            self._canon = _ahu(self)
        return self._canon


def _refine_colors(depth_of: dict[int, int], adj, choosers: dict[int, list[int]]) -> dict[int, int]:
    """The parent of each node in ``choosers``, taken from its list of
    candidate parents by structure-derived colors on the ball ``depth_of``.

    Iterated neighborhood refinement, seeded with BFS depth: each round, a
    node's color becomes the rank of (old color, sorted multiset of in-ball
    neighbor colors), ranks taken over the sorted distinct signatures.  A node
    takes its candidate with the smallest color.  A round ranks by the old
    color first, so it splits classes but never reorders them, and a candidate
    whose color is strictly smallest stays so at the fixed point: refinement
    stops after the first round that gives every list such a candidate.
    Round 1 orders one node's candidates, which share a depth, by their sorted
    neighbor depths, so it is checked on the candidates alone, and whole-ball
    rounds run only where it leaves a tie.  Ties that last to the fixed point
    go to the smaller node index.  Colors depend only on the induced
    structure, never on how nodes happen to be numbered.
    """
    round1 = {u: sorted([depth_of[w] for w in adj[u] if w in depth_of])
              for cands in choosers.values() for u in cands}
    chosen = _choose(choosers, round1, final=False)
    if chosen is not None:
        return chosen
    color = depth_of
    classes = len(set(color.values()))
    while True:   # each round adds classes, until a round adds none
        sig = {v: (color[v], tuple(sorted(color[w] for w in adj[v] if w in color)))
               for v in depth_of}
        ranking = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        color = {v: ranking[sig[v]] for v in depth_of}
        chosen = _choose(choosers, color, final=len(ranking) == classes)
        if chosen is not None:
            return chosen
        classes = len(ranking)


def _choose(choosers: dict[int, list[int]], color, final: bool) -> dict[int, int] | None:
    """Each node's candidate with the smallest color, or None where one
    node's smallest color is tied, unless ``final``: ties then go to the
    smaller node index."""
    chosen = {}
    for v, cands in choosers.items():
        (c, best), (c2, _) = sorted([(color[u], u) for u in cands])[:2]
        if c == c2 and not final:
            return None
        chosen[v] = best
    return chosen


def extract_k_adjacent_tree(g: Graph, root, k: int, mode: str = "undirected") -> LevelTree:
    """BFS tree of ``root`` truncated to ``k`` levels.

    Level 2 is the root's sorted adjacency list, one bucket of the root's
    children, so at k <= 2, or when the root has no neighbors, the tree is
    written from that list and no BFS state is built.  Deeper level sets come
    from plain breadth-first search.  A node's candidate parents are the nodes
    one level up that reach it.  Where each node has one, it takes it, and no
    colors are computed.  Where some node has two or more, colors are refined
    only until every such node's choice is fixed (``_refine_colors``), and
    each takes the candidate with the smallest color, ties to the smallest
    internal node index, so relabeling a graph can change the tree: in the
    circulant graph C10(1,3), node 0 and its image under a shuffled relabeling
    get trees at TED* 2 for k = 4 (ROADMAP.md, "k-adjacent trees that do not
    depend on node order").  Each level is ordered by (parent's position, node
    index), which keeps siblings contiguous.  Trailing levels are absent when
    BFS exhausts the graph before depth k.  The tree's child counts are stored
    as it is built.
    """
    check_count(k, "k")
    root = g.resolve(root)
    g.neighbors(root, mode)   # rejects a mode this graph does not have
    down = g.radj if mode == "in" else g.adj   # BFS follows these edges
    labels = g.labels
    above = down[root] if k > 1 else []   # level 2: the root's adjacency list, sorted
    if not above:   # k == 1, or an isolated root
        return LevelTree(((None,),), ((labels[root],),), _counts=((0,),))
    # one bucket: every node of level 2 is the root's child, and a leaf at k == 2
    leaves = (0,) * len(above)
    levels, counts = [(None,), leaves], [(len(above),)]
    node_ids = [(labels[root],), tuple([labels[v] for v in above])]
    if k == 2:   # no BFS state is built
        return LevelTree(tuple(levels), tuple(node_ids), _counts=(counts[0], leaves))
    depth_of = {root: 0, **dict.fromkeys(above, 1)}
    parent_of: dict[int, int] = {}   # node -> first candidate found
    choosers: dict[int, list[int]] = {}   # node -> its candidates, where two or more
    level_ids: list[list[int]] = []   # levels 3 and down
    frontier = above
    for d in range(2, k):
        found: dict[int, int] = {}
        for v in frontier:
            for w in down[v]:
                if w in found:
                    choosers.setdefault(w, [found[w]]).append(v)
                elif w not in depth_of:
                    found[w] = v
        if not found:
            break
        frontier = sorted(found)
        depth_of.update(dict.fromkeys(found, d))
        level_ids.append(frontier)
        parent_of.update(found)
    if choosers:
        parent_of.update(_refine_colors(depth_of, down, choosers))

    # each level in ascending node order, bucketed by parent, then the
    # buckets in the stored order of the level above: (parent's position,
    # node index) order, and the bucket sizes are the child counts
    for ids in level_ids:
        if len(above) == 1:   # one bucket, as on level 2
            counts.append((len(ids),))
            levels.append((0,) * len(ids))
            above = ids
        else:
            kids: dict[int, list[int]] = {}
            for v in ids:
                p = parent_of[v]
                if p in kids:
                    kids[p].append(v)
                else:
                    kids[p] = [v]
            buckets = [kids.get(u, ()) for u in above]
            counts.append(tuple(map(len, buckets)))
            levels.append(tuple([i for i, b in enumerate(buckets) for _ in b]))
            above = [v for b in buckets for v in b]
        node_ids.append(tuple([labels[v] for v in above]))
    counts.append((0,) * len(above))
    return LevelTree(tuple(levels), tuple(node_ids), _counts=tuple(counts))


def _literal_key(s: str) -> tuple[int, str]:
    # collections order: size ascending, then lexicographic
    return (len(s), s)


def parse_tree_literal(s: str) -> LevelTree:
    """Parse a balanced-parenthesis literal into a LevelTree.

    A literal lists each level's nodes in depth-first order, which is the
    level order itself: a node's parent is the last node opened one level up.
    One vectorized pass over the code points finds each open's level, its
    parent and the child counts.
    """
    s = s.strip()
    if not s:
        raise TreeLiteralError("empty literal", 0)
    n = len(s)
    code = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    opens, closes = code == 40, code == 41   # "(" and ")"
    depth = (opens.view(np.int8) - closes.view(np.int8)).cumsum()   # after each character
    at = np.flatnonzero(opens)
    # unless there are as many closes as opens and nothing else, and only the
    # last close ends the root: the first fault a left-to-right scan meets
    if not (2 * len(at) == n and depth[-1] == 0 and depth[:-1].min() > 0):
        bad = ~(opens | closes) | (closes & (depth <= 0))
        bad[-1] &= not (closes[-1] and depth[-1] == 0)
        pos = int(bad.argmax())
        if not bad[pos]:
            raise TreeLiteralError("unbalanced literal", n)
        if not (opens[pos] or closes[pos]):
            raise TreeLiteralError(f"unexpected character {s[pos]!r}", pos)
        if depth[pos] < 0:
            raise TreeLiteralError("unmatched ')'", pos)
        raise TreeLiteralError("trailing characters after root", pos + 1)

    level = depth[at]                  # 1-based: the root's open leaves depth 1
    key = np.sort(level * n + at)      # the opens by (level, position): level order
    sizes = np.bincount(level)         # sizes[i]: the nodes on level i; sizes[0] = 0
    ends = sizes.cumsum()
    # one past each non-root node's parent, the last open one level up before it
    found = np.searchsorted(key, key[1:] - n)
    parents = (found - np.repeat(ends[:-2] + 1, sizes[2:])).tolist()   # within its level
    counts = np.bincount(found, minlength=len(at) + 1)[1:].tolist()
    ends = ends.tolist()
    levels = [(None,)] + [tuple(parents[a - 1:b - 1]) for a, b in zip(ends[1:-1], ends[2:])]
    return LevelTree(tuple(levels), _counts=tuple(
        tuple(counts[a:b]) for a, b in zip(ends[:-1], ends[1:])))


def _ahu(t: LevelTree) -> str:
    """AHU canonical literal, one level at a time from the bottom up: each
    node's children in ascending (literal length, literal).  A malformed
    tree raises UsageError."""
    t.validate()
    below: list[str] = []
    for i in range(t.depth - 1, -1, -1):
        key = [_literal_key(s) for s in below]
        kids_by_node: list[list[int]] = [[] for _ in t.levels[i]]
        for c in sorted(range(len(below)), key=key.__getitem__):
            kids_by_node[t.levels[i + 1][c]].append(c)
        below = ["(" + "".join([below[c] for c in kids]) + ")" for kids in kids_by_node]
    return below[0]


def to_tree_literal(t: LevelTree) -> str:
    """Serialize in AHU-canonical order: isomorphic trees serialize identically."""
    return t.canonical_literal()


def canonical_form(t: LevelTree) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """The AHU literal of ``t`` and its shape: per level, the child counts of
    its nodes in canonical level order, which is the literal's parsed child
    counts (each node's children follow its left siblings' children).
    Isomorphic trees get equal values; both are memoized on ``t``."""
    if t._shape is None:
        t._shape = parse_tree_literal(t.canonical_literal()).child_counts()
    return t._canon, t._shape
