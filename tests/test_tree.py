import pytest

from nedist.errors import TreeLiteralError, UsageError
from nedist.graph import parse_edge_list
from nedist.ned import TreeDistanceCache
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
