"""Level-structured rooted unordered trees and BFS neighborhood extraction.

A LevelTree stores a rooted tree level by level: level 1 is the root, level
i holds the nodes at BFS depth i-1.  Children order carries no meaning; the
stored order is deterministic so repeated extraction is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TreeLiteralError, UsageError
from .graph import Graph


@dataclass(slots=True)
class TreeNode:
    parent: int | None            # index into the previous level, None for the root
    node_id: str | None = None    # original graph label when extracted, else None


@dataclass
class LevelTree:
    levels: list[list[TreeNode]]
    _canon: str | None = field(default=None, repr=False, compare=False)
    # set once the levels are known to be in canonical level order
    _ordered: bool = field(default=False, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def size(self) -> int:
        return sum(len(lv) for lv in self.levels)

    def children_lists(self, level: int) -> list[list[int]]:
        """For each node of ``level`` (0-based), its child indices one level down."""
        out: list[list[int]] = [[] for _ in self.levels[level]]
        if level + 1 < len(self.levels):
            for ci, node in enumerate(self.levels[level + 1]):
                if node.parent is not None:
                    out[node.parent].append(ci)
        return out

    def validate(self) -> None:
        if not self.levels or len(self.levels[0]) != 1 or self.levels[0][0].parent is not None:
            raise UsageError("level 1 must contain exactly the parentless root")
        for li in range(1, len(self.levels)):
            prev = len(self.levels[li - 1])
            for node in self.levels[li]:
                if node.parent is None or not 0 <= node.parent < prev:
                    raise UsageError(f"bad parent reference at level {li + 1}")

    def canonical_literal(self) -> str:
        """AHU canonical form: equal strings iff the trees are isomorphic."""
        if self._canon is None:
            self._canon = to_tree_literal(self)
        return self._canon

    def truncated(self, k: int) -> "LevelTree":
        """Top-k-level subtree (a copy sharing node records)."""
        if k >= self.depth:
            return self
        return LevelTree([list(lv) for lv in self.levels[:k]])


def _refine_colors(nodes: list[int], depth_of: dict[int, int], neigh) -> dict[int, int]:
    """Structure-derived colors on a node set, seeded with BFS depth.

    Iterated neighborhood refinement: each round, a node's color becomes the
    rank of (old color, sorted multiset of neighbor colors), ranks taken
    over the sorted distinct signatures.  The result depends only on the
    induced structure, never on how nodes happen to be numbered.
    """
    color = {v: depth_of[v] for v in nodes}
    classes = len(set(color.values()))
    for _ in range(len(nodes)):
        sig = {v: (color[v], tuple(sorted(color[w] for w in neigh(v) if w in color)))
               for v in nodes}
        ranking = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        color = {v: ranking[sig[v]] for v in nodes}
        if len(ranking) == classes:
            break
        classes = len(ranking)
    return color


def extract_k_adjacent_tree(g: Graph, root, k: int, mode: str = "undirected") -> LevelTree:
    """BFS tree of ``root`` truncated to ``k`` levels.

    Level sets come from plain breadth-first search.  A node reachable from
    several previous-level nodes is attached to the candidate parent with
    the smallest structure-derived color, so relabeling a graph yields an
    isomorphic tree; node ordering within a level follows the same colors.
    Trailing levels are absent when BFS exhausts the graph before depth k.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    root = g.resolve(root)
    depth_of = {root: 0}
    level_ids: list[list[int]] = [[root]]
    frontier = [root]
    for d in range(1, k):
        nxt = sorted({w for v in frontier for w in g.neighbors(v, mode)
                      if w not in depth_of})
        if not nxt:
            break
        for w in nxt:
            depth_of[w] = d
        level_ids.append(nxt)
        frontier = nxt

    if g.directed:
        def neigh(v):
            return g.neighbors(v, mode)
    else:
        def neigh(v):
            return g.adj[v]
    color = _refine_colors(list(depth_of), depth_of, neigh)

    levels: list[list[TreeNode]] = [[TreeNode(None, node_id=g.labels[root])]]
    prev_pos = {root: 0}
    for d in range(1, len(level_ids)):
        order = sorted(level_ids[d], key=lambda v: (color[v], v))
        cur_pos = {}
        nodes = []
        for v in order:
            parent = min((w for w in g.neighbors(v, "in" if mode == "out" else
                                                 ("out" if mode == "in" else mode))
                          if depth_of.get(w) == d - 1),
                         key=lambda w: (color[w], w))
            cur_pos[v] = len(nodes)
            nodes.append(TreeNode(prev_pos[parent], node_id=g.labels[v]))
        levels.append(nodes)
        prev_pos = cur_pos
    return LevelTree(levels)


def _literal_key(s: str) -> tuple[int, str]:
    # collections order: size ascending, then lexicographic
    return (len(s), s)


def parse_tree_literal(s: str) -> LevelTree:
    """Parse a balanced-parenthesis literal into a LevelTree."""
    s = s.strip()
    if not s:
        raise TreeLiteralError("empty literal", 0)
    # nested representation first, then breadth-first layout
    stack: list[list] = []
    root_children: list | None = None
    for pos, ch in enumerate(s):
        if ch == "(":
            stack.append([])
        elif ch == ")":
            if not stack:
                raise TreeLiteralError("unmatched ')'", pos)
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            elif root_children is None:
                if pos != len(s) - 1:
                    raise TreeLiteralError("trailing characters after root", pos + 1)
                root_children = done
            else:
                raise TreeLiteralError("multiple roots", pos)
        else:
            raise TreeLiteralError(f"unexpected character {ch!r}", pos)
    if stack or root_children is None:
        raise TreeLiteralError("unbalanced literal", len(s))

    levels: list[list[TreeNode]] = [[TreeNode(None)]]
    frontier: list[tuple[int, list]] = [(0, root_children)]
    while frontier:
        nxt_nodes: list[TreeNode] = []
        nxt: list[tuple[int, list]] = []
        for pi, children in frontier:
            for child in children:
                nxt.append((len(nxt_nodes), child))
                nxt_nodes.append(TreeNode(pi))
        if nxt_nodes:
            levels.append(nxt_nodes)
        frontier = nxt
    return LevelTree(levels)


def _ahu(t: LevelTree) -> tuple[str, list[list[list[int]]]]:
    """AHU canonical form, one level at a time from the bottom up.

    Returns the root's literal and, per level, each node's children in
    canonical order: ascending by (literal length, literal).
    """
    below: list[str] = []
    ordered: list[list[list[int]]] = [[] for _ in range(t.depth)]
    for i in range(t.depth - 1, -1, -1):
        key = [_literal_key(s) for s in below]
        kids_by_node = t.children_lists(i)
        for kids in kids_by_node:
            kids.sort(key=key.__getitem__)
        ordered[i] = kids_by_node
        below = ["(" + "".join([below[c] for c in kids]) + ")" for kids in kids_by_node]
    return below[0], ordered


def to_tree_literal(t: LevelTree) -> str:
    """Serialize in AHU-canonical order: isomorphic trees serialize identically."""
    return _ahu(t)[0]


def canonical_form(t: LevelTree) -> tuple[str, LevelTree]:
    """The AHU literal of ``t`` and ``t`` in canonical level order, the layout
    ``parse_tree_literal`` gives that literal; isomorphic trees get equal
    literals and equal level orders.  Node ids move with their nodes, and a
    tree already in canonical order is returned as is."""
    if t._ordered:
        return t._canon, t
    literal, ordered = _ahu(t)
    t._canon = literal
    orders = [[0]]   # per level, the old node indices in canonical order
    for kids in ordered[:-1]:
        orders.append([c for q in orders[-1] for c in kids[q]])
    if all(j == c for order in orders for j, c in enumerate(order)):
        t._ordered = True
        return literal, t
    levels = [[TreeNode(None, t.levels[0][0].node_id)]]
    for i in range(1, t.depth):
        src = t.levels[i]
        levels.append([TreeNode(p, src[c].node_id)
                       for p, q in enumerate(orders[i - 1]) for c in ordered[i - 1][q]])
    return literal, LevelTree(levels, _canon=literal, _ordered=True)
