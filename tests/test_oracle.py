import random
from fractions import Fraction

import pytest

from nedist.errors import UsageError
from nedist.oracle import (
    enumerate_trees,
    exact_ged_on_trees,
    exact_ted_star,
    exact_unordered_ted,
)
from nedist.ted import UNIT, W_PLUS, WeightScheme, ted_star_distance_only
from nedist.tree import parse_tree_literal as P


def lits(n_max, depth_max=10**9):
    return [t.canonical_literal() for t in enumerate_trees(n_max, depth_max)]


def test_enumeration_tiny_counts():
    assert lits(1) == ["()"]
    assert lits(2) == ["()", "(())"]
    assert set(lits(3)) == {"()", "(())", "((()))", "(()())"}
    assert len(lits(4)) == 8   # 1 + 1 + 2 + 4 rooted shapes


def test_enumeration_depth_cap():
    assert "((()))" not in lits(4, depth_max=2)
    assert all(P(l).depth <= 3 for l in lits(5, depth_max=3))


def test_enumeration_no_duplicates():
    all6 = lits(6)
    assert len(all6) == len(set(all6))


def test_enumeration_cap():
    with pytest.raises(UsageError):
        list(enumerate_trees(10))


def test_ahu_examples():
    assert P("((())())").canonical_literal() == "(()(()))"
    assert P("()").canonical_literal() == "()"
    assert P("((()())(()))").canonical_literal() == P("((())(()()))").canonical_literal()


def test_exact_ted_star_basics():
    t = P("(()(()))")
    assert exact_ted_star(t, t) == 0
    assert exact_ted_star(P("(()())"), P("(()()())")) == 1
    assert exact_ted_star(P("((()())())"), P("((())(()))")) == 1
    assert exact_ted_star(P("()"), P("((()))")) == 2


def test_exact_ted_star_symmetric():
    rng = random.Random(5)
    trees = list(enumerate_trees(6))
    for _ in range(30):
        a, b = rng.choice(trees), rng.choice(trees)
        assert exact_ted_star(a, b) == exact_ted_star(b, a)


def test_exact_ted_star_budget_exhaustion():
    assert exact_ted_star(P("()"), P("(()()()())"), budget=2) is None


def test_exact_ted_star_weighted_basics():
    a, b = P("((()())())"), P("((())(()))")
    # one move at level 2 costs 8 under W_PLUS; deleting the level-3 leaf and
    # re-inserting it under the other level-2 node costs 2
    assert exact_ted_star(a, b, budget=None, weights=W_PLUS) == 2
    assert exact_ted_star(a, b, budget=1, weights=W_PLUS) is None
    moves_cheap = WeightScheme(leaf={3: 5}, move={2: 3})
    assert exact_ted_star(a, b, budget=None, weights=moves_cheap) == 3
    assert exact_ted_star(P("()"), P("((()))"), weights=UNIT) == 2


def _criterion_1_random_scheme():
    # the random scheme of the release gate's criterion 1 (seed 97)
    rng = random.Random(97)
    leaf = {lv: Fraction(rng.randint(1, 8), rng.randint(1, 4)) for lv in range(1, 8)}
    move = {lv: Fraction(rng.randint(1, 8), rng.randint(1, 4)) for lv in range(1, 8)}
    return WeightScheme(leaf, move, name="random")


@pytest.mark.parametrize("scheme", [UNIT, W_PLUS, _criterion_1_random_scheme()],
                         ids=lambda w: w.name)
def test_weighted_ted_star_equals_oracle(scheme):
    trees = list(enumerate_trees(6))
    mismatches = []
    for i in range(len(trees)):
        for j in range(i, len(trees)):
            a, b = trees[i], trees[j]
            got = ted_star_distance_only(a, b, scheme)
            exact = exact_ted_star(a, b, budget=None, weights=scheme)
            if got != exact:
                mismatches.append((a.canonical_literal(), b.canonical_literal(), got, exact))
    assert not mismatches, mismatches[:5]


def test_float_weights_equal_oracle():
    # an int leaf cost beside float move costs keeps the matrices in floats
    scheme = WeightScheme(move=lambda level: 2.5 * level)
    trees = list(enumerate_trees(5))
    for a in trees:
        for b in trees:
            assert ted_star_distance_only(a, b, scheme) == \
                exact_ted_star(a, b, budget=None, weights=scheme)


def test_exact_unordered_ted_basics():
    assert exact_unordered_ted(P("()"), P("()")) == 0
    assert exact_unordered_ted(P("()"), P("(())")) == 1
    assert exact_unordered_ted(P("((()))"), P("(()())")) == 2
    # the deep leaf can be deleted and re-inserted higher: classic TED 2,
    # while the level-preserving distance must also move siblings around
    assert exact_unordered_ted(P("(((())))"), P("(()()())")) == 4


def test_exact_ged_basics():
    assert exact_ged_on_trees(P("(())"), P("(())")) == 0
    assert exact_ged_on_trees(P("()"), P("(())")) == 2   # one node + one edge
    # a 3-chain and a 3-star are the same unrooted graph
    assert exact_ged_on_trees(P("((()))"), P("(()())")) == 0


def test_size_caps():
    big = P("(" + "()" * 10 + ")")   # 11 nodes
    with pytest.raises(UsageError):
        exact_ted_star(big, big)
    with pytest.raises(UsageError):
        exact_unordered_ted(big, big)
    with pytest.raises(UsageError):
        exact_ged_on_trees(P("(()()()()()()())"), P("()"))


def test_identity_equivalence_on_corpus():
    trees = list(enumerate_trees(5))
    for i in range(len(trees)):
        for j in range(len(trees)):
            same = trees[i].canonical_literal() == trees[j].canonical_literal()
            zero = ted_star_distance_only(trees[i], trees[j]) == 0
            assert same == zero


def test_cross_bounds_on_small_corpus():
    trees = list(enumerate_trees(5))
    for i in range(len(trees)):
        for j in range(i, len(trees)):
            a, b = trees[i], trees[j]
            ts = ted_star_distance_only(a, b)
            assert exact_ged_on_trees(a, b) <= 2 * ts
            assert exact_unordered_ted(a, b) <= ted_star_distance_only(a, b, W_PLUS)
