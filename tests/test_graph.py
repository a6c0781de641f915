import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from nedist.errors import EdgeListParseError, UsageError
from nedist.graph import (
    build_graph,
    load_graph,
    parse_edge_list,
    to_edge_list,
)
from nedist.ned import ned


def test_parse_basic_undirected():
    g = parse_edge_list("a b\nb c\n")
    assert g.n == 3
    assert g.edge_count == 2
    assert g.labels == ["a", "b", "c"]
    assert g.neighbors("b") == [0, 2]


def test_first_appearance_indexing():
    g = parse_edge_list("x y\nz x\n")
    assert g.labels == ["x", "y", "z"]
    assert g.index == {"x": 0, "y": 1, "z": 2}


def test_comments_and_blank_lines_skipped():
    text = "# header\n\na b\n% konect style\nb c\n"
    g = parse_edge_list(text)
    assert g.edge_count == 2


def test_duplicate_edges_and_self_loops_dropped():
    g = parse_edge_list("a b\nb a\na b\na a\n")
    assert g.edge_count == 1
    assert g.neighbors("a") == [1]


def test_bad_token_count_reports_line_number():
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("a b\na b c\n")
    assert exc.value.line_no == 2


def test_single_token_line_rejected():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("lonely\n")


def test_directed_adjacency():
    g = parse_edge_list("a b\nc b\n", directed=True)
    assert g.neighbors("a", "out") == [1]
    assert g.neighbors("b", "in") == [0, 2]
    assert g.neighbors("b", "out") == []


def test_neighbor_mode_validation():
    und = parse_edge_list("a b\n")
    dg = parse_edge_list("a b\n", directed=True)
    with pytest.raises(UsageError):
        und.neighbors("a", "out")
    with pytest.raises(UsageError):
        dg.neighbors("a", "undirected")
    with pytest.raises(UsageError):
        und.neighbors("a", "sideways")


def test_resolve_label_index_and_errors():
    g = parse_edge_list("a b\n")
    assert g.resolve("a") == 0
    assert g.resolve(1) == 1
    with pytest.raises(UsageError):
        g.resolve("missing")
    with pytest.raises(UsageError):
        g.resolve(7)
    assert g.resolve(np.int64(1)) == 1
    # a non-integral number is refused, not truncated to a node
    for bad in (1.5, 1.9, 1.0, Fraction(1), None, [1], (0,), b"a"):
        with pytest.raises(UsageError):
            g.resolve(bad)
    with pytest.raises(UsageError):
        ned(g, 1.9, g, 0, 2)
    # a bool is an int, but not a node: True is not node 1
    for bad in (True, False, np.bool_(True)):
        with pytest.raises(UsageError, match="a node is a str label or an int index"):
            g.resolve(bad)
    with pytest.raises(UsageError):
        ned(g, True, g, 0, 2)


def test_round_trip_through_edge_list():
    g = parse_edge_list("a b\nb c\nc a\n")
    again = parse_edge_list(to_edge_list(g))
    assert sorted(again.edges()) == sorted(g.edges())
    assert again.labels == g.labels


def test_build_graph_directed_mirrors():
    g = build_graph(["u", "v"], [(0, 1)], directed=True)
    assert g.adj == [[1], []]
    assert g.radj == [[], [0]]


def test_load_graph(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("a b\nb c\n")
    g = load_graph(p)
    assert g.n == 3


def edge_list_outcomes():
    """Per seeded text, read undirected and directed, and as one string and
    as lines that keep their endings: the error text with its line number,
    or the labels, ``adj`` and ``radj``.  The texts mix edges (with
    duplicates, self-loops, tabs and padding), '#' and '%' comments, blank
    and whitespace-only lines, and rarer 1- and 3-token lines, joined by LF
    or CRLF."""
    rng = random.Random(7)
    names = ["a", "b", "c", "d", "e", "10", "x#y"]

    def edge():
        return rng.choice(names) + rng.choice([" ", "\t", "  ", " \t "]) + rng.choice(names)

    kinds = [
        (30, edge),
        (6, lambda: rng.choice(["\t", " ", "  "]) + edge() + rng.choice(["", " ", "\t"])),
        (4, lambda: rng.choice(["#", "%", " #", "\t%", "# "]) + rng.choice(["", "a b", "x", "1 2 3"])),
        (4, lambda: rng.choice(["", " ", "\t", " \t ", "\u3000"])),
        (1, lambda: rng.choice(names)),
        (1, lambda: " ".join(rng.choice(names) for _ in range(3))),
    ]
    weights = [w for w, _ in kinds]
    texts = []
    for _ in range(600):
        lines = [rng.choices(kinds, weights)[0][1]() for _ in range(rng.randint(0, 12))]
        end = rng.choice(["\n", "\r\n"])
        texts.append(end.join(lines) + rng.choice(["", end]))
    texts += ["a\x0cb\n", "a b\x0bc d\n", "a\u00a0b\n", "\ufeffa b\n", "a b c\r\n"]
    for text in texts:
        for directed in (False, True):
            for source in (text, text.splitlines(keepends=True)):
                try:
                    g = parse_edge_list(source, directed=directed)
                except EdgeListParseError as exc:
                    yield f"{exc} @ {exc.line_no}"
                else:
                    yield repr((g.labels, g.adj, g.radj))


def test_pinned_edge_list_outcomes():
    # pinned from the reader that stripped each line before splitting it
    digest = hashlib.sha256()
    for outcome in edge_list_outcomes():
        digest.update((outcome + "\n").encode())
    assert digest.hexdigest() == \
        "a9c134ae636d4f06769cc72a4c1034ff67726fbd58aa17c6bc6eeed954a5e727"
