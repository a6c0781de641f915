"""Distances depend only on the trees' isomorphism classes, at any depth.

TED* is defined on unordered trees, so the order in which a tree's levels
happen to list their nodes must not change any distance, whichever entry
point computes it.
"""

import random

import pytest

import nedist.tree as tree_module
from nedist.errors import UsageError
from nedist.cli import run
from nedist.experiments import random_graph, random_tree
from nedist.graph import build_graph
from nedist.ned import TreeDistanceCache, ned, ned_directed, tree_for
from nedist.ted import UNIT, W_PLUS, ted_star, ted_star_distance_only
from nedist.tree import (
    LevelTree,
    canonical_form,
    parse_tree_literal,
    to_tree_literal,
)

SCHEMES = {"unit": UNIT, "wplus": W_PLUS}


def rendering(t: LevelTree, rng: random.Random) -> LevelTree:
    """The same tree with every level's nodes in a random order."""
    levels = [(None,)]
    new_pos = [0]
    for level in t.levels[1:]:
        order = list(range(len(level)))
        rng.shuffle(order)
        levels.append(tuple(new_pos[level[i]] for i in order))
        new_pos = [0] * len(level)
        for pos, i in enumerate(order):
            new_pos[i] = pos
    return LevelTree(tuple(levels))


def children_lists(t: LevelTree) -> list[list[list[int]]]:
    """Per level, each node's child indices one level down."""
    out = [[[] for _ in level] for level in t.levels]
    for i, level in enumerate(t.levels[1:]):
        for c, parent in enumerate(level):
            out[i][parent].append(c)
    return out


def shuffled_literal(t: LevelTree, rng: random.Random) -> str:
    """A literal of ``t`` with every node's children written in a random order."""
    children = children_lists(t)
    out = []
    stack = [(0, 0)]
    while stack:
        item = stack.pop()
        if item is None:
            out.append(")")
            continue
        level, idx = item
        out.append("(")
        kids = list(children[level][idx])
        rng.shuffle(kids)
        stack.append(None)
        stack.extend((level + 1, c) for c in reversed(kids))
    return "".join(out)


def tree_pairs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        depth = rng.randint(2, 6)
        yield (random_tree(rng.randint(10, 60), depth, rng),
               random_tree(rng.randint(10, 60), depth, rng), rng)


def child_counts(t: LevelTree):
    return tuple(tuple(map(len, kids)) for kids in children_lists(t))


def test_canonical_form_is_the_reparsed_literal():
    for a, b, rng in tree_pairs(3, 300):
        for t in (a, rendering(b, rng)):
            literal, shape = canonical_form(t)
            reparsed = parse_tree_literal(literal)
            assert literal == to_tree_literal(reparsed) == t.canonical_literal()
            assert shape == child_counts(reparsed)
            assert canonical_form(rendering(t, rng)) == (literal, shape)


@pytest.fixture
def ahu_calls(monkeypatch):
    """The trees the canonical pass ``tree._ahu`` runs on, one per call."""
    calls = []
    ahu = tree_module._ahu
    monkeypatch.setattr(tree_module, "_ahu", lambda t: calls.append(t) or ahu(t))
    return calls


def test_canonical_form_is_memoized_and_leaves_the_tree_as_it_is(ahu_calls):
    t = LevelTree(((None,), (0, 0), (0,)), (("r",), ("x", "y"), ("z",)))
    literal, shape = canonical_form(t)
    assert (literal, shape) == ("(()(()))", ((2,), (0, 1), (0,)))
    assert canonical_form(t)[1] is shape
    assert len(ahu_calls) == 1
    assert (t.levels, t.node_ids) == (((None,), (0, 0), (0,)), (("r",), ("x", "y"), ("z",)))


def test_ted_star_canonizes_each_tree_once(ahu_calls):
    (a, b, rng), = tree_pairs(5, 1)
    a, b = rendering(a, rng), rendering(b, rng)
    for w in (UNIT, W_PLUS, UNIT):
        ted_star(a, b, w)
        ted_star(b, a, w)
    assert len(ahu_calls) == 2


def test_depth_three_ted_star_runs_no_canonical_pass(ahu_calls):
    rng = random.Random(6)
    a, b = random_tree(40, 3, rng), random_tree(50, 3, rng)
    for w in (UNIT, W_PLUS):
        assert ted_star(a, b, w)[0] == ted_star(rendering(b, rng), a, w)[0]
    assert ahu_calls == []
    # a malformed tree is still refused: a second root, a parent out of range
    for bad in (LevelTree(((None, None),)), LevelTree(((None,), (0,), (1,)))):
        for t1, t2 in ((bad, a), (a, bad)):
            with pytest.raises(UsageError):
                ted_star(t1, t2)


def test_cached_distance_canonizes_each_tree_once(ahu_calls):
    (a, b, _), = tree_pairs(7, 1)
    TreeDistanceCache().distance(a, b)
    assert len(ahu_calls) == 2


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_ted_star_ignores_level_order(scheme):
    w = SCHEMES[scheme]
    differ = []
    for j, (a, b, rng) in enumerate(tree_pairs(11, 120)):
        d = ted_star_distance_only(a, b, w)
        again = ted_star_distance_only(rendering(a, rng), rendering(b, rng), w)
        if again != d:
            differ.append((j, d, again))
    assert differ == []


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_ned_equals_cached_distance(scheme):
    w = SCHEMES[scheme]
    g1 = random_graph(150, 300, seed=1)
    g2 = random_graph(150, 300, seed=2)
    cache = TreeDistanceCache(w)
    rng = random.Random(5)
    for _ in range(60):
        u, v = rng.randrange(g1.n), rng.randrange(g2.n)
        assert ned(g1, u, g2, v, 4, w) == cache.distance(tree_for(g1, u, 4),
                                                         tree_for(g2, v, 4))


def test_ned_directed_equals_cached_distance():
    g1 = random_graph(150, 400, seed=3, directed=True)
    g2 = random_graph(150, 400, seed=4, directed=True)
    cache = TreeDistanceCache()
    rng = random.Random(6)
    for _ in range(60):
        u, v = rng.randrange(g1.n), rng.randrange(g2.n)
        want = sum(cache.distance(tree_for(g1, u, 4, mode), tree_for(g2, v, 4, mode))
                   for mode in ("in", "out"))
        assert ned_directed(g1, u, g2, v, 4) == want


def test_cli_dist_ignores_how_the_literal_is_written(capsys):
    for a, b, rng in tree_pairs(17, 60):
        totals = []
        for _ in range(2):
            assert run(["dist", "--tree1", shuffled_literal(a, rng),
                        "--tree2", shuffled_literal(b, rng)]) == 0
            totals.append(capsys.readouterr().out)
        assert totals[0] == totals[1]


# deep trees: every entry point is iterative, so no recursion limit applies

DEEP = 1300


def path_literal(levels: int) -> str:
    return "(" * levels + ")" * levels


def test_deep_path_canonical_literal_and_distance():
    t = parse_tree_literal(path_literal(DEEP))
    assert t.depth == DEEP
    assert t.canonical_literal() == path_literal(DEEP)
    shorter = parse_tree_literal(path_literal(DEEP - 50))
    assert ted_star_distance_only(t, shorter) == 50
    total, breakdown = ted_star(t, shorter)
    assert total == 50 and breakdown.levels == DEEP


def test_deep_path_ned():
    n = 1500
    g = build_graph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)],
                    directed=False)
    # v1's tree has v0 as a second child of the root, otherwise both are paths
    assert ned(g, "v0", g, "v1", k=1400) == 1


def test_deep_path_cli(capsys):
    assert run(["dist", "--tree1", path_literal(DEEP),
                "--tree2", path_literal(DEEP - 1)]) == 0
    assert capsys.readouterr().out == "1\n"
