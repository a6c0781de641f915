"""Graph data model and edge-list ingestion.

Nodes are identified externally by opaque string labels and internally by
dense indices 0..n-1 assigned in first-appearance order.  Self-loops and
duplicate edges are dropped on ingestion: BFS neighborhood trees never
revisit a node, so neither can influence a distance.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable

from .errors import EdgeListParseError, UsageError

COMMENT_PREFIXES = ("#", "%")


@dataclass
class Graph:
    directed: bool
    labels: list[str]                 # internal index -> external label
    adj: list[list[int]]              # sorted neighbors (out-neighbors if directed)
    radj: list[list[int]] | None = None   # sorted in-neighbors, directed only
    index: dict[str, int] = field(default_factory=dict)
    # per-process memo for extracted neighborhood trees (ned.tree_for) and
    # the indexes deanonymize ranks through (experiments._index_for)
    _tree_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        m = sum(len(a) for a in self.adj)
        return m if self.directed else m // 2

    def resolve(self, node) -> int:
        """Map a node to its index.  A node is an external label (a str) or an
        already-internal index (an int, or another integer type such as a
        numpy integer); anything else, a ``bool`` included, is a UsageError."""
        if type(node) is not int:   # an exact int, the common case, skips the checks
            if isinstance(node, str):
                try:
                    return self.index[node]
                except KeyError:
                    raise UsageError(f"unknown node label {node!r}") from None
            if isinstance(node, bool) or not isinstance(node, numbers.Integral):
                raise UsageError(f"a node is a str label or an int index, got {node!r}")
            node = int(node)
        if not 0 <= node < len(self.labels):
            raise UsageError(f"node index {node} out of range 0..{self.n - 1}")
        return node

    def neighbors(self, v, mode: str = "undirected") -> list[int]:
        """Neighbor indices of ``v``, sorted by internal index.

        ``mode`` must be ``undirected`` for undirected graphs and ``out`` or
        ``in`` for directed ones.
        """
        v = self.resolve(v)
        if mode == "undirected":
            if self.directed:
                raise UsageError("mode 'undirected' on a directed graph; use 'out' or 'in'")
            return self.adj[v]
        if mode == "out":
            if not self.directed:
                raise UsageError("mode 'out' requires a directed graph")
            return self.adj[v]
        if mode == "in":
            if not self.directed:
                raise UsageError("mode 'in' requires a directed graph")
            return self.radj[v]
        raise UsageError(f"unknown neighbor mode {mode!r}")

    def edges(self) -> Iterable[tuple[int, int]]:
        """Each edge once; for undirected graphs with smaller index first."""
        for i, nbrs in enumerate(self.adj):
            for j in nbrs:
                if self.directed or i < j:
                    yield (i, j)


def build_graph(labels: list[str], edges: Iterable[tuple[int, int]], directed: bool) -> Graph:
    """Assemble a Graph from an index->label table and deduplicated index edges."""
    n = len(labels)
    out: list[set[int]] = [set() for _ in range(n)]
    inn: list[set[int]] = [set() for _ in range(n)] if directed else out
    for i, j in edges:
        if i == j:
            continue
        out[i].add(j)
        inn[j].add(i)   # out[j] when undirected
    adj = [sorted(s) for s in out]
    radj = [sorted(s) for s in inn] if directed else None
    return Graph(directed=directed, labels=list(labels), adj=adj, radj=radj,
                 index={lab: i for i, lab in enumerate(labels)})


def parse_edge_list(text, directed: bool = False) -> Graph:
    """Parse whitespace-separated "src dst" lines into a Graph.

    ``text`` may be a string or any iterable of lines.  Lines starting with
    '#' or '%' and blank lines are skipped.  A non-comment line with a token
    count other than two is a parse error carrying its line number.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = text
    index: dict[str, int] = {}   # label -> index, in first-appearance order
    edges: list[tuple[int, int]] = []
    intern = index.setdefault
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith(COMMENT_PREFIXES):
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected 2 tokens, got {len(tokens)}: {raw.strip()!r}", line_no)
        a, b = tokens
        edges.append((intern(a, len(index)), intern(b, len(index))))
    return build_graph(list(index), edges, directed)


def to_edge_list(g: Graph) -> str:
    """Serialize back to the edge-list text format (one edge per line)."""
    lines = [f"{g.labels[i]} {g.labels[j]}" for i, j in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def load_graph(path, directed: bool = False) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh, directed=directed)
