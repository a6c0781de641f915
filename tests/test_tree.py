import hashlib

import pytest

from nedist.errors import TreeLiteralError, UsageError
from nedist.experiments import random_graph
from nedist.graph import Graph, parse_edge_list
from nedist.ned import TreeDistanceCache, tree_for
from nedist.ted import ted_star
from nedist.tree import (
    LevelTree,
    TreeNode,
    extract_k_adjacent_tree,
    parse_tree_literal,
    to_tree_literal,
)

PATH5 = "a b\nb c\nc d\nd e\n"
STAR4 = "hub s1\nhub s2\nhub s3\n"


def test_path_end_extraction():
    g = parse_edge_list(PATH5)
    t = extract_k_adjacent_tree(g, "a", 3)
    assert to_tree_literal(t) == "((()))"


def test_star_center_extraction():
    g = parse_edge_list(STAR4)
    t = extract_k_adjacent_tree(g, "hub", 2)
    assert to_tree_literal(t) == "(()()())"


def test_path_center_extraction():
    g = parse_edge_list(PATH5)
    t = extract_k_adjacent_tree(g, "c", 2)
    assert to_tree_literal(t) == "(()())"


def test_extraction_never_revisits():
    # triangle: at k=3 the far side is reached once, not twice
    g = parse_edge_list("a b\nb c\nc a\n")
    t = extract_k_adjacent_tree(g, "a", 3)
    assert t.size == 3
    assert to_tree_literal(t) == "(()())"


def test_extraction_stops_at_component_boundary():
    g = parse_edge_list("a b\nc d\n")
    t = extract_k_adjacent_tree(g, "a", 5)
    assert t.depth == 2
    assert t.size == 2


def test_extraction_k_validation():
    g = parse_edge_list(PATH5)
    for bad in (0, 2.5, 2.0, "2"):
        with pytest.raises(UsageError):
            extract_k_adjacent_tree(g, "a", bad)


def test_directed_extraction_modes():
    g = parse_edge_list("a b\nc a\n", directed=True)
    out_t = extract_k_adjacent_tree(g, "a", 2, "out")
    in_t = extract_k_adjacent_tree(g, "a", 2, "in")
    assert to_tree_literal(out_t) == "(())"
    assert to_tree_literal(in_t) == "(())"
    assert out_t.levels[1][0].node_id == "b"
    assert in_t.levels[1][0].node_id == "c"


def test_extraction_rejects_a_mode_the_graph_lacks():
    # k = 1 visits no neighbor, and still checks the mode
    undirected = parse_edge_list(PATH5)
    directed = parse_edge_list(PATH5, directed=True)
    for g, bad in ((undirected, "out"), (undirected, "in"), (undirected, "bogus"),
                   (directed, "undirected"), (directed, "bogus")):
        for k in (1, 3):
            with pytest.raises(UsageError):
                extract_k_adjacent_tree(g, "a", k, bad)
            with pytest.raises(UsageError):
                tree_for(g, "a", k, bad)


def test_extraction_checks_its_mode_once(monkeypatch):
    modes = []
    neighbors = Graph.neighbors
    monkeypatch.setattr(Graph, "neighbors",
                        lambda self, v, mode: modes.append(mode) or neighbors(self, v, mode))
    g = random_graph(30, 60, seed=1, directed=True)
    for mode in ("in", "out"):
        assert extract_k_adjacent_tree(g, 0, 4, mode).depth == 4
    assert modes == ["in", "out"]


def test_pinned_extracted_trees():
    # every node's tree at k = 1-5 on seeded undirected and directed graphs,
    # in every mode, as (parent, node_id) per level: a refactor of the
    # extraction must leave each tree and its node order as they are
    digest = hashlib.sha256()
    for seed in range(10):
        directed = seed % 2 == 1
        g = random_graph(40 + seed, 64 + 2 * seed, seed=seed, directed=directed)
        for mode in (("in", "out") if directed else ("undirected",)):
            for k in range(1, 6):
                for v in range(g.n):
                    t = extract_k_adjacent_tree(g, v, k, mode)
                    digest.update(repr([[(n.parent, n.node_id) for n in level]
                                        for level in t.levels]).encode())
    assert digest.hexdigest() == \
        "0ae26e374f4c4b0c4771719306961b71c88eb8b6998777e191950b6d4503759a"


def test_node_ids_preserved():
    g = parse_edge_list(PATH5)
    t = extract_k_adjacent_tree(g, "b", 2)
    assert t.levels[0][0].node_id == "b"
    assert sorted(n.node_id for n in t.levels[1]) == ["a", "c"]


def test_parse_round_trip():
    for lit in ("()", "(())", "(()())", "(()(()))", "(((())))"):
        assert to_tree_literal(parse_tree_literal(lit)) == lit


def test_canonical_sorts_children():
    assert to_tree_literal(parse_tree_literal("((())())")) == "(()(()))"
    a = parse_tree_literal("((()())(()))")
    b = parse_tree_literal("((())(()()))")
    assert a.canonical_literal() == b.canonical_literal()


def test_parse_errors_carry_position():
    with pytest.raises(TreeLiteralError):
        parse_tree_literal("")
    with pytest.raises(TreeLiteralError):
        parse_tree_literal("(()")
    with pytest.raises(TreeLiteralError):
        parse_tree_literal("())(")
    with pytest.raises(TreeLiteralError):
        parse_tree_literal("()()")
    with pytest.raises(TreeLiteralError, match=r"position 0: unmatched '\)'"):
        parse_tree_literal(")")
    with pytest.raises(TreeLiteralError, match="position 1: unexpected character 'x'"):
        parse_tree_literal("(x)")


def test_levels_and_children():
    t = parse_tree_literal("(()(()))")
    assert t.depth == 3
    assert [len(lv) for lv in t.levels] == [1, 2, 1]
    assert [node.parent for node in t.levels[1]] == [0, 0]
    assert [node.parent for node in t.levels[2]] in ([0], [1])


def test_validate_rejects_bad_roots():
    with pytest.raises(UsageError):
        LevelTree(levels=[[TreeNode(parent=0)]]).validate()
    with pytest.raises(UsageError):
        LevelTree(levels=[[TreeNode(parent=None), TreeNode(parent=None)]]).validate()
    with pytest.raises(UsageError):
        LevelTree(levels=[[TreeNode(parent=None)],
                          [TreeNode(parent=3)]]).validate()


MALFORMED = {
    "empty": [],
    "parent out of range": [[TreeNode(None)], [TreeNode(3)]],
    "parentless non-root": [[TreeNode(None)], [TreeNode(None)]],
    "two roots": [[TreeNode(None), TreeNode(None)]],
    "root with a parent": [[TreeNode(0)]],
}


@pytest.mark.parametrize("levels", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_trees_are_usage_errors(levels):
    ok = parse_tree_literal("(()())")
    with pytest.raises(UsageError):
        ted_star(LevelTree(levels), ok)
    with pytest.raises(UsageError):
        ted_star(ok, LevelTree(levels))
    with pytest.raises(UsageError):
        LevelTree(levels).canonical_literal()
    with pytest.raises(UsageError):
        TreeDistanceCache().distance(LevelTree(levels), ok)


def test_extraction_deterministic():
    g = parse_edge_list(PATH5)
    lits = {to_tree_literal(extract_k_adjacent_tree(g, "c", 3)) for _ in range(5)}
    assert len(lits) == 1
