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
