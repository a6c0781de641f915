"""Level-structured rooted unordered trees and BFS neighborhood extraction.

A LevelTree stores a rooted tree level by level: level 1 is the root, level
i holds the nodes at BFS depth i-1.  Children order carries no meaning; the
stored order is deterministic so repeated extraction is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TreeLiteralError, UsageError, check_count
from .graph import Graph


@dataclass(slots=True)
class TreeNode:
    parent: int | None            # index into the previous level, None for the root
    node_id: str | None = None    # original graph label when extracted, else None


@dataclass
class LevelTree:
    levels: list[list[TreeNode]]
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
        if not self.levels or len(self.levels[0]) != 1 or self.levels[0][0].parent is not None:
            raise UsageError("level 1 must contain exactly the parentless root")
        for li in range(1, len(self.levels)):
            prev = len(self.levels[li - 1])
            for node in self.levels[li]:
                if node.parent is None or not 0 <= node.parent < prev:
                    raise UsageError(f"bad parent reference at level {li + 1}")

    def child_counts(self) -> tuple[tuple[int, ...], ...]:
        """Per level, each node's number of children in stored level order
        (the last level's are all 0), memoized.  Unlike ``canonical_form`` it
        needs no AHU pass; a malformed tree raises UsageError."""
        if self._counts is None:
            self.validate()
            counts = [[0] * len(level) for level in self.levels]
            for below, level in zip(counts, self.levels[1:]):
                for node in level:
                    below[node.parent] += 1
            self._counts = tuple(map(tuple, counts))
        return self._counts

    def class_key(self) -> tuple | str:
        """A key equal for two trees iff they are isomorphic.  At depth <= 3
        it is the level sizes and the sorted level-2 child counts, which fix
        the tree, read from ``child_counts`` with no AHU pass; deeper it is
        the AHU literal.  A tuple never equals a str, so the kinds never mix."""
        if self.depth > 3:
            return self.canonical_literal()
        counts = self.child_counts()
        level2 = counts[1] if len(counts) > 1 else ()
        return tuple(map(len, counts)), tuple(sorted(level2))

    def canonical_literal(self) -> str:
        """AHU canonical form: equal strings iff the trees are isomorphic."""
        if self._canon is None:
            canonical_form(self)
        return self._canon


def _refine_colors(nodes: list[int], depth_of: dict[int, int], adj) -> dict[int, int]:
    """Structure-derived colors on a node set, seeded with BFS depth.

    Iterated neighborhood refinement: each round, a node's color becomes the
    rank of (old color, sorted multiset of neighbor colors), ranks taken
    over the sorted distinct signatures.  The result depends only on the
    induced structure, never on how nodes happen to be numbered.
    """
    color = {v: depth_of[v] for v in nodes}
    classes = len(set(color.values()))
    for _ in range(len(nodes)):
        sig = {v: (color[v], tuple(sorted(color[w] for w in adj[v] if w in color)))
               for v in nodes}
        ranking = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        color = {v: ranking[sig[v]] for v in nodes}
        if len(ranking) == classes:
            break
        classes = len(ranking)
    return color


def extract_k_adjacent_tree(g: Graph, root, k: int, mode: str = "undirected") -> LevelTree:
    """BFS tree of ``root`` truncated to ``k`` levels.

    Level sets come from plain breadth-first search.  A node's candidate
    parents are its neighbors one level up.  Where each node has one, it
    takes it.  Where some node has two or more, structure-derived colors are
    computed, and each node takes the candidate with the smallest color, ties
    to the smallest internal node index, so relabeling a graph can change the
    tree: in the circulant graph C10(1,3), node 0 and its image under a
    shuffled relabeling get trees at TED* 2 for k = 4 (ROADMAP.md,
    "k-adjacent trees that do not depend on node order").  Each level is
    ordered by (parent's position, node index), which keeps siblings
    contiguous.  Trailing levels are absent when BFS exhausts the graph
    before depth k.
    """
    check_count(k, "k")
    root = g.resolve(root)
    g.neighbors(root, mode)   # rejects a mode this graph does not have
    # BFS follows ``down``; a node's candidate parents are its ``up`` neighbors
    down, up = ((g.radj, g.adj) if mode == "in"
                else (g.adj, g.radj if g.directed else g.adj))
    depth_of = {root: 0}
    level_ids: list[list[int]] = [[root]]
    parent_of: dict[int, int] = {}   # node -> the first candidate parent found
    choice = False                   # whether some node has two or more
    frontier = [root]
    for d in range(1, k):
        found: dict[int, int] = {}
        for v in frontier:
            for w in down[v]:
                if w in found:
                    choice = True
                elif w not in depth_of:
                    found[w] = v
        if not found:
            break
        frontier = sorted(found)
        for w in frontier:
            depth_of[w] = d
        level_ids.append(frontier)
        parent_of.update(found)

    if choice:
        color = _refine_colors(list(depth_of), depth_of, down)
        for v in parent_of:
            d = depth_of[v] - 1
            parent_of[v] = min((w for w in up[v] if depth_of.get(w) == d),
                               key=lambda w: (color[w], w))

    labels = g.labels
    levels: list[list[TreeNode]] = [[TreeNode(None, node_id=labels[root])]]
    pos = {root: 0}
    for ids in level_ids[1:]:
        # ids ascend, so a stable sort by parent position breaks ties by index
        order = sorted(ids, key=lambda v: pos[parent_of[v]])
        levels.append([TreeNode(pos[parent_of[v]], node_id=labels[v]) for v in order])
        pos = {v: i for i, v in enumerate(order)}
    return LevelTree(levels)


def _literal_key(s: str) -> tuple[int, str]:
    # collections order: size ascending, then lexicographic
    return (len(s), s)


def parse_tree_literal(s: str) -> LevelTree:
    """Parse a balanced-parenthesis literal into a LevelTree.

    A literal lists each level's nodes in depth-first order, which is the
    level order itself: a node's parent is the last node opened one level up.
    """
    s = s.strip()
    if not s:
        raise TreeLiteralError("empty literal", 0)
    levels: list[list[TreeNode]] = []
    depth = 0   # nodes opened and not yet closed
    for pos, ch in enumerate(s):
        if ch == "(":
            if depth == len(levels):
                levels.append([])
            levels[depth].append(TreeNode(len(levels[depth - 1]) - 1 if depth else None))
            depth += 1
        elif ch == ")":
            if not depth:
                raise TreeLiteralError("unmatched ')'", pos)
            depth -= 1
            if not depth and pos != len(s) - 1:
                raise TreeLiteralError("trailing characters after root", pos + 1)
        else:
            raise TreeLiteralError(f"unexpected character {ch!r}", pos)
    if depth:
        raise TreeLiteralError("unbalanced literal", len(s))
    return LevelTree(levels)


def _ahu(t: LevelTree) -> tuple[str, list[list[list[int]]]]:
    """AHU canonical form, one level at a time from the bottom up.

    Returns the root's literal and, per level, each node's children in
    canonical order: ascending by (literal length, literal).  A malformed
    tree raises UsageError.
    """
    t.validate()
    below: list[str] = []
    ordered: list[list[list[int]]] = [[] for _ in range(t.depth)]
    for i in range(t.depth - 1, -1, -1):
        key = [_literal_key(s) for s in below]
        kids_by_node: list[list[int]] = [[] for _ in t.levels[i]]
        for c in sorted(range(len(below)), key=key.__getitem__):
            kids_by_node[t.levels[i + 1][c].parent].append(c)
        ordered[i] = kids_by_node
        below = ["(" + "".join([below[c] for c in kids]) + ")" for kids in kids_by_node]
    return below[0], ordered


def to_tree_literal(t: LevelTree) -> str:
    """Serialize in AHU-canonical order: isomorphic trees serialize identically."""
    return _ahu(t)[0]


def canonical_form(t: LevelTree) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """The AHU literal of ``t`` and its shape: per level, the child counts of
    its nodes in canonical level order (the order ``parse_tree_literal`` gives
    the literal, where each node's children follow its left siblings'
    children).  Isomorphic trees get equal values; both are memoized on ``t``."""
    if t._shape is None:
        t._canon, ordered = _ahu(t)
        shape = []
        order = [0]   # the level's node indices in canonical order
        for kids in ordered:
            shape.append(tuple(len(kids[q]) for q in order))
            order = [c for q in order for c in kids[q]]
        t._shape = tuple(shape)
    return t._canon, t._shape
