import hashlib
import random
from collections import Counter

import pytest

import nedist.tree as tree_module
from nedist.errors import TreeLiteralError, UsageError
from nedist.experiments import random_graph
from nedist.graph import Graph, build_graph, parse_edge_list
from nedist.ned import TreeDistanceCache, tree_for
from nedist.ted import ted_star
from nedist.tree import (
    LevelTree,
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
    for bad in (0, 2.5, 2.0, "2", True, False):
        with pytest.raises(UsageError):
            extract_k_adjacent_tree(g, "a", bad)


def test_directed_extraction_modes():
    g = parse_edge_list("a b\nc a\n", directed=True)
    out_t = extract_k_adjacent_tree(g, "a", 2, "out")
    in_t = extract_k_adjacent_tree(g, "a", 2, "in")
    assert to_tree_literal(out_t) == "(())"
    assert to_tree_literal(in_t) == "(())"
    assert out_t.node_ids[1][0] == "b"
    assert in_t.node_ids[1][0] == "c"


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


def pinned_pool():
    """Every node's tree at k = 1-5 on seeded undirected and directed
    graphs, in every mode."""
    for seed in range(10):
        directed = seed % 2 == 1
        g = random_graph(40 + seed, 64 + 2 * seed, seed=seed, directed=directed)
        for mode in (("in", "out") if directed else ("undirected",)):
            for k in range(1, 6):
                for v in range(g.n):
                    yield extract_k_adjacent_tree(g, v, k, mode)


def test_pinned_extracted_shapes():
    # each tree's isomorphism class, as its AHU literal: a change to the
    # extraction's within-level order must leave every shape as it is
    digest = hashlib.sha256()
    for t in pinned_pool():
        digest.update((t.canonical_literal() + "\n").encode())
    assert digest.hexdigest() == \
        "4835168eb372e4d0bb7552f89ad8c9b90214fb7c08192d1e70dab1778163b1f7"


def test_pinned_extracted_trees():
    # the pool's trees as (parent, node_id) per level, each level ordered by
    # (parent's position, node index): a refactor of the extraction must
    # leave each tree and its node order as they are.  A change of the order
    # alone leaves the shapes, and so test_pinned_extracted_shapes, as they are
    digest = hashlib.sha256()
    for t in pinned_pool():
        digest.update(repr([list(zip(parents, ids))
                            for parents, ids in zip(t.levels, t.node_ids)]).encode())
    assert digest.hexdigest() == \
        "0a164979def0030e5acb4e76e67761389302d031b830f2557b5d04ef70bfcee2"


def test_extracted_siblings_are_contiguous():
    for t in pinned_pool():
        for parents in t.levels[1:]:
            assert list(parents) == sorted(parents)


def test_extracted_child_counts_match_the_levels():
    # the counts are written as the tree is built, on the k <= 2 path too,
    # and an isolated root (c keeps no self-loop) is the one-node tree
    isolated = parse_edge_list("a b\nc c\n")
    trees = [extract_k_adjacent_tree(isolated, "c", k) for k in (1, 2, 3)]
    assert {(t.levels, t.node_ids, t.child_counts()) for t in trees} == \
        {(((None,),), (("c",),), ((0,),))}
    for t in pinned_pool():
        assert t.child_counts() == LevelTree(t.levels).child_counts()


def test_no_color_refinement_without_a_choice_of_parent(monkeypatch):
    # at k <= 2 every node's one candidate parent is the root, and in a
    # tree-shaped graph every node has one neighbor one level up
    cases = [(g, v, k, mode)
             for g in (random_graph(40, 80, seed=3), random_graph(40, 80, seed=4, directed=True))
             for mode in (("in", "out") if g.directed else ("undirected",))
             for k in (1, 2) for v in range(g.n)]
    # a binary tree of 15 nodes with a path hung off a leaf
    tree_graph = parse_edge_list("".join(f"{i} {(i - 1) // 2}\n" for i in range(1, 15))
                                 + "14 p1\np1 p2\np2 p3\n")
    cases += [(tree_graph, v, 5, "undirected") for v in range(tree_graph.n)]
    expected = [extract_k_adjacent_tree(*case) for case in cases]

    def refuse(*args):
        raise AssertionError("colors refined where no node has a choice of parent")
    monkeypatch.setattr(tree_module, "_refine_colors", refuse)
    assert [extract_k_adjacent_tree(*case) for case in cases] == expected


def test_color_refinement_where_a_node_has_two_candidate_parents(monkeypatch):
    # in a 4-cycle, the node opposite the root has both its neighbors one level up
    calls = []
    refine = tree_module._refine_colors
    monkeypatch.setattr(tree_module, "_refine_colors",
                        lambda *args: calls.append(args) or refine(*args))
    g = parse_edge_list("a b\nb c\nc d\nd a\n")
    assert extract_k_adjacent_tree(g, "a", 2).canonical_literal() == "(()())"
    assert not calls
    t = extract_k_adjacent_tree(g, "a", 3)
    assert len(calls) == 1
    assert t.canonical_literal() == "(()(()))"
    assert t.node_ids[1] == ("b", "d")
    # b and d get one color, so the smaller node index decides
    assert (t.levels[2], t.node_ids[2]) == ((0,), ("c",))


def fixed_point_rounds(nodes, depth_of, adj):
    """Each round's colors of the color refinement run to its fixed point,
    as extraction ran it before it stopped once every parent choice was
    fixed: the last entry is the fixed point."""
    color = {v: depth_of[v] for v in nodes}
    rounds = [color]
    classes = len(set(color.values()))
    for _ in range(len(nodes)):
        sig = {v: (color[v], tuple(sorted(color[w] for w in adj[v] if w in color)))
               for v in nodes}
        ranking = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        color = {v: ranking[sig[v]] for v in nodes}
        rounds.append(color)
        if len(ranking) == classes:
            break
        classes = len(ranking)
    return rounds


def reference_tree(g, root, k, mode):
    """The tree extraction gave with fixed-point colors: each non-root node
    takes the ``min((color[w], w))`` of its neighbors one level up.  Also
    returns the first round whose colors fix every choice, or None where a
    tie lasts to the fixed point and the node index decides."""
    down, up = ((g.radj, g.adj) if mode == "in"
                else (g.adj, g.radj if g.directed else g.adj))
    depth_of, level_ids = {root: 0}, [[root]]
    while len(level_ids) < k:
        below = sorted({w for v in level_ids[-1] for w in down[v] if w not in depth_of})
        if not below:
            break
        depth_of.update(dict.fromkeys(below, len(level_ids)))
        level_ids.append(below)
    rounds = fixed_point_rounds(list(depth_of), depth_of, down)
    cands = {v: [w for w in up[v] if depth_of.get(w) == depth_of[v] - 1]
             for ids in level_ids[1:] for v in ids}
    parent_of = {v: min(ws, key=lambda w: (rounds[-1][w], w)) for v, ws in cands.items()}

    def fixes_every_choice(color):
        smallest = (sorted(color[w] for w in ws)[:2] for ws in cands.values())
        return all(len(two) == 1 or two[0] < two[1] for two in smallest)
    fixed_at = next((r for r, color in enumerate(rounds) if fixes_every_choice(color)), None)
    levels, node_ids, pos = [(None,)], [(g.labels[root],)], {root: 0}
    for ids in level_ids[1:]:
        placed = sorted((pos[parent_of[v]], v) for v in ids)
        levels.append(tuple(p for p, _ in placed))
        node_ids.append(tuple(g.labels[v] for _, v in placed))
        pos = {v: i for i, (_, v) in enumerate(placed)}
    return LevelTree(tuple(levels), tuple(node_ids)), fixed_at


def test_extraction_equals_fixed_point_refinement():
    # shuffled circulants C_n(1,3), where parent ties are common, and the
    # pinned pool's graphs at the depths it does not pin
    cases = []
    for n in range(7, 16):
        for seed in range(3):
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            g = build_graph([str(i) for i in range(n)],
                            [(perm[i], perm[(i + a) % n]) for i in range(n) for a in (1, 3)],
                            directed=False)
            cases += [(g, k, "undirected") for k in range(2, 8)]
    for seed in range(10):
        g = random_graph(40 + seed, 64 + 2 * seed, seed=seed, directed=seed % 2 == 1)
        cases += [(g, k, mode) for k in (6, 7)
                  for mode in (("in", "out") if g.directed else ("undirected",))]
    fixed_at = Counter()
    for g, k, mode in cases:
        for v in range(g.n):
            want, r = reference_tree(g, v, k, mode)
            t = extract_k_adjacent_tree(g, v, k, mode)
            assert (t.levels, t.node_ids) == (want.levels, want.node_ids), (v, k, mode)
            assert t.child_counts() == LevelTree(t.levels).child_counts()
            fixed_at["no choice" if r == 0 else r if r in (None, 1) else "later"] += 1
    # choices fixed by round 1, by a later round, and left to the node index
    assert fixed_at.keys() == {"no choice", 1, "later", None}


def test_node_ids_preserved():
    g = parse_edge_list(PATH5)
    t = extract_k_adjacent_tree(g, "b", 2)
    assert t.node_ids[0] == ("b",)
    assert sorted(t.node_ids[1]) == ["a", "c"]


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


def parser_outcomes():
    """Per literal, the error text, or the per-level parent tuples and the
    child counts: seeded random strings, strings that open with the root,
    and literals that need stripping or hold a non-ASCII character."""
    rng = random.Random(5)
    literals = ["".join(rng.choice("()x ") for _ in range(rng.randint(0, 14)))
                for _ in range(5000)]
    literals += ["(" + "".join(rng.choice("()") for _ in range(rng.randint(0, 18))) + ")"
                 for _ in range(2000)]
    literals += ["(é)", "(\ud800)", "  (()())  ", "\t(())\n", "\u3000()\u3000", " ( ) ",
                 "(()) ()"]
    for s in literals:
        try:
            t = parse_tree_literal(s)
        except TreeLiteralError as exc:
            yield str(exc)
        else:
            yield repr((t.levels, t.child_counts()))


def test_pinned_parser_outcomes():
    # pinned from the character-by-character parser the vectorized one replaced
    digest = hashlib.sha256()
    for outcome in parser_outcomes():
        digest.update((outcome + "\n").encode())
    assert digest.hexdigest() == \
        "d2972df0055290bf0cbc6788c022ce5bb16007736cfc44335ea1e94e533efd24"


def test_levels_and_children():
    t = parse_tree_literal("(()(()))")
    assert t.depth == 3
    assert [len(lv) for lv in t.levels] == [1, 2, 1]
    assert t.levels[1] == (0, 0)
    assert t.levels[2] in ((0,), (1,))


def test_validate_rejects_bad_roots():
    with pytest.raises(UsageError):
        LevelTree(levels=((0,),)).validate()
    with pytest.raises(UsageError):
        LevelTree(levels=((None, None),)).validate()
    with pytest.raises(UsageError):
        LevelTree(levels=((None,), (3,))).validate()


MALFORMED = {
    "empty": (),
    "parent out of range": ((None,), (3,)),
    "parentless non-root": ((None,), (None,)),
    "two roots": ((None, None),),
    "root with a parent": ((0,),),
    "float parent": ((None,), (0.0,)),
    "str parent": ((None,), ("0",)),
    # "()" with an empty level below: one class must have one key
    "empty level": ((None,), ()),
    "empty levels below the leaves": ((None,), (0,), (), ()),
    # equality compares the containers: a list would make an unequal twin
    "list of levels": [(None,), (0, 0)],
    "list level": ((None,), [0, 0]),
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
