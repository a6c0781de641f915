"""Seeded input generators owned by the benchmark.

Inputs are produced as text, an edge list for graphs and a balanced
parenthesis literal for trees, so the program under test receives exactly
what a user would hand it.  The generators live here rather than in the
library so that a change to ``random_graph`` or ``random_tree`` cannot change
what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import random


def graph_edge_list(n: int, m: int, rng: random.Random) -> str:
    """Uniform simple undirected graph on ``n`` nodes with ``m`` edges.

    Nodes are labelled ``u0`` .. ``u{n-1}`` and edges appear in a shuffled
    order.  A node without edges does not appear in the text.
    """
    if m > n * (n - 1) // 2:
        raise ValueError(f"{m} edges do not fit a simple graph on {n} nodes")
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            chosen.add((min(i, j), max(i, j)))
    edges = sorted(chosen)
    rng.shuffle(edges)
    return "".join(f"u{i} u{j}\n" for i, j in edges)


class GeneratedTree:
    """A random rooted tree: its literal and its per-level node counts."""

    __slots__ = ("literal", "level_sizes", "children")

    def __init__(self, children: list[list[int]], level_sizes: list[int],
                 rng: random.Random):
        self.children = children
        self.level_sizes = level_sizes
        self.literal = self.render(rng)

    def render(self, rng: random.Random) -> str:
        """Literal with children written in a random order.

        Every rendering is a literal of the same unordered tree, so two
        renderings are at distance zero.
        """
        out: list[str] = []
        stack: list[object] = [0]
        while stack:
            item = stack.pop()
            if item == ")":
                out.append(")")
                continue
            out.append("(")
            kids = list(self.children[item])
            rng.shuffle(kids)
            stack.append(")")
            stack.extend(reversed(kids))
        return "".join(out)


def random_level_tree(n: int, depth: int, rng: random.Random) -> GeneratedTree:
    """Tree of ``n`` nodes and at most ``depth`` levels.

    Each new node picks a uniformly random parent among the nodes that still
    lie above the last level, the shape of a BFS neighborhood tree.
    """
    children: list[list[int]] = [[]]
    level_of = [0]
    open_parents = [0] if depth > 1 else []
    for v in range(1, n):
        p = rng.choice(open_parents)
        children[p].append(v)
        children.append([])
        level_of.append(level_of[p] + 1)
        if level_of[v] + 1 < depth:
            open_parents.append(v)
    sizes = [0] * (max(level_of) + 1)
    for lv in level_of:
        sizes[lv] += 1
    return GeneratedTree(children, sizes, rng)


def fingerprint(*parts: str) -> str:
    """Short stable hash of the generated input texts."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
