import gc
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nedist.assignment import matching_with_duals
from nedist.errors import InvariantError, UsageError
from nedist.experiments import random_graph, random_tree
from nedist.oracle import exact_ted_star
from nedist.ned import TreeDistanceCache, tree_for
from nedist.ted import (
    UNIT,
    W_PLUS,
    WeightScheme,
    _spans,
    _split_table,
    build_bipartite_weights,
    canonize_level,
    exact_number,
    ted_star,
    ted_star_distance_only,
)
from nedist.tree import parse_tree_literal as P
from nedist.vptree import build_index
from schemes import criterion_1_random_scheme


def test_canonize_orders_by_size_then_elements():
    assert canonize_level([(), (0,), (0,), (0, 1)]) == [0, 1, 1, 2]
    assert canonize_level([(1,), (), (0, 0)]) == [1, 0, 2]


def unit_matrix(paying, partners):
    """A unit level's matrix from the split table, rows the paying nodes'
    collections, both sides padded to one size with empty collections."""
    n = max(len(paying), len(partners))
    labels = [l for c in paying for l in c]
    partners = tuple(partners) + ((),) * (n - len(partners))
    table, col_of = _split_table(_spans([len(c) for c in paying]), labels,
                                 [(1, 1)] * len(labels), partners)
    return build_bipartite_weights(table, col_of, np.int64, [len(c) for c in partners])


def test_bipartite_weights_counted_symmetric_difference():
    for a, b, expected in (((0, 0, 1), (1, 1), 3), ((0, 0), (0, 0), 0),
                           ((0, 0), (), 2)):   # the last: a padded right node
        for W in (unit_matrix([a], [b]), unit_matrix([b], [a]).T):
            assert W.dtype == np.int64
            assert W[0][0] == expected
    # seeded collections, with padded rows and columns, in both pay directions
    rng = random.Random(17)
    for _ in range(200):
        cols_a = [tuple(sorted(rng.choices(range(4), k=rng.randint(0, 5))))
                  for _ in range(rng.randint(1, 6))]
        cols_b = [tuple(sorted(rng.choices(range(4), k=rng.randint(0, 5))))
                  for _ in range(rng.randint(1, 6))]
        n = max(len(cols_a), len(cols_b))
        padded_a = cols_a + [()] * (n - len(cols_a))
        padded_b = cols_b + [()] * (n - len(cols_b))
        expected = [[sum(((Counter(x) - Counter(y)) + (Counter(y) - Counter(x))).values())
                     for y in padded_b] for x in padded_a]
        assert unit_matrix(cols_a, cols_b).tolist() == expected
        assert unit_matrix(cols_b, cols_a).T.tolist() == expected


def test_forced_leaf_insertion():
    assert ted_star_distance_only(P("(()())"), P("(()()())")) == 1


def test_single_move():
    total, br = ted_star(P("((()())())"), P("((())(()))"))
    assert total == 1
    assert br.padding == [0, 0, 0]
    assert br.matching_raw[1] == 2
    assert br.matching[1] == 1


def test_single_move_weighted():
    assert ted_star_distance_only(P("((()())())"), P("((())(()))"), W_PLUS) == 2


def test_weighted_breakdown_counts_reinsertion():
    total, br = ted_star(P("((()())())"), P("((())(()))"), W_PLUS)
    assert total == 2
    assert br.matching == [0, 0, 0]
    assert br.reinserted == [0, 0, 1]
    assert br.matching_raw[1] == 2


def assert_root_row(br):
    """The root's row is level 2's padding, with nothing moved or reinserted."""
    assert br.matching_raw[0] == (br.padding[1] if br.levels > 1 else 0)
    assert br.matching[0] == br.reinserted[0] == 0


def test_root_is_never_matched(monkeypatch):
    calls = []

    def counting(W):
        calls.append(W.shape)
        return matching_with_duals(W)

    monkeypatch.setattr("nedist.ted.matching_with_duals", counting)
    # depth 2: level 2 is all leaves, so nothing is solved
    assert ted_star_distance_only(P("(()())"), P("(()()())")) == 1
    assert calls == []
    # depth 3: the closed form, nothing is solved
    assert ted_star_distance_only(P("((()())())"), P("((())(()))")) == 1
    assert calls == []
    # depth 4: levels 3 and 2 are solved
    assert ted_star_distance_only(P("(((())())(()))"), P("(((()))(()()))")) == 1
    assert calls == [(3, 3), (2, 2)]


def test_unit_level_value_must_match_the_table(monkeypatch):
    def off_by_two(W):
        m, f, u, v = matching_with_duals(W)
        return m + 2, f, u, v

    monkeypatch.setattr("nedist.ted.matching_with_duals", off_by_two)
    with pytest.raises(InvariantError):
        ted_star(P("(((())())(()))"), P("(((()))(()()))"))


def test_weighted_breakdown_recomposes():
    rng = random.Random(6)
    schemes = [W_PLUS, WeightScheme.from_table([(1, 2, 5), (2, "1/2", 3), (3, 1, "7/3")])]
    for _ in range(40):
        t1 = random_tree(rng.randint(1, 30), 5, rng)
        t2 = random_tree(rng.randint(1, 30), 5, rng)
        for w in schemes:
            total, br = ted_star(t1, t2, w)
            rebuilt = sum(w.leaf_cost(i + 1) * br.padding[i]
                          + w.move_cost(i + 1) * br.matching[i]
                          + 2 * w.leaf_cost(i + 1) * br.reinserted[i]
                          for i in range(br.levels))
            assert rebuilt == total == br.total
            assert total == ted_star_distance_only(t1, t2, w)
            for i in range(br.levels):
                below = br.padding[i + 1] if i + 1 < br.levels else 0
                assert br.matching_raw[i] >= below
                assert (br.matching_raw[i] - below) % 2 == 0
            assert_root_row(br)


def test_identity_any_tree():
    for lit in ("()", "(()())", "((())(()))", "(((())))"):
        assert ted_star_distance_only(P(lit), P(lit)) == 0


def test_identity_iff_isomorphic():
    a = P("((()())(()))")
    b = P("((())(()()))")   # same tree, children permuted
    c = P("((())(())())")
    assert ted_star_distance_only(a, b) == 0
    assert ted_star_distance_only(a, c) > 0


def test_symmetry_exact():
    rng = random.Random(3)
    for _ in range(60):
        t1 = random_tree(rng.randint(1, 25), 5, rng)
        t2 = random_tree(rng.randint(1, 25), 5, rng)
        for w in (UNIT, W_PLUS):
            assert ted_star_distance_only(t1, t2, w) == ted_star_distance_only(t2, t1, w)


def test_breakdown_recomposes():
    rng = random.Random(4)
    for _ in range(40):
        t1 = random_tree(rng.randint(1, 20), 4, rng)
        t2 = random_tree(rng.randint(1, 20), 4, rng)
        total, br = ted_star(t1, t2)
        assert isinstance(total, int)
        assert total >= 0
        assert total == sum(br.padding) + sum(br.matching)
        assert br.padding[0] == 0
        for i in range(br.levels):
            assert br.matching_raw[i] >= 0
            assert br.matching[i] >= 0
        assert_root_row(br)


def test_depth_mismatch_charges_whole_levels():
    # a lone root vs a 3-level chain: two leaf insertions, one per level
    assert ted_star_distance_only(P("()"), P("((()))")) == 2
    total, br = ted_star(P("()"), P("((()))"))
    assert br.padding == [0, 1, 1]


def test_triangle_on_small_random_trees():
    rng = random.Random(9)
    trees = [random_tree(rng.randint(1, 15), 4, rng) for _ in range(25)]
    d = {}
    for i in range(len(trees)):
        for j in range(len(trees)):
            d[i, j] = ted_star_distance_only(trees[i], trees[j])
    for _ in range(400):
        x, y, z = rng.randrange(25), rng.randrange(25), rng.randrange(25)
        assert d[x, z] <= d[x, y] + d[y, z]


def test_deterministic_repeats():
    t1 = P("((()()())(())(()))")
    t2 = P("((()())(()())())")
    runs = {ted_star(t1, t2)[0] for _ in range(5)}
    assert len(runs) == 1


def test_weight_scheme_from_table():
    w = WeightScheme.from_table([(1, "1/2", 3), (2, 1, "7/2")])
    assert w.leaf_cost(1) == Fraction(1, 2)
    assert w.move_cost(2) == Fraction(7, 2)
    assert w.leaf_cost(9) == 1   # unlisted levels default to unit


def test_weight_table_levels_are_counts():
    # a level is read as check_count reads it: not truncated, not a bool
    for level in (1.5, True, 0, "2"):
        with pytest.raises(UsageError, match="level"):
            WeightScheme.from_table([(level, 1, 1)])
    assert WeightScheme.from_table([(np.int64(2), 3, 1)]).leaf_cost(2) == 3


def test_weight_mapping_levels_are_counts():
    # a mapping's level is read as a weight table's is: {0: 2}, {"x": 3} and
    # {1.5: 2} name no level, and {True: 5} does not price level 1
    for bad in (0, -1, "x", 1.5, True, False, None):
        for what in ("leaf", "move"):
            with pytest.raises(UsageError, match=f"{what} weight level"):
                WeightScheme(**{what: {bad: 2}})
    w = WeightScheme(leaf={np.int64(2): 3}, move={1: 2})
    assert (w.leaf_cost(2), w.leaf_cost(1), w.move_cost(1)) == (3, 1, 2)


def test_weight_table_weights_are_read_or_refused():
    w = WeightScheme.from_table([(1, "1/3", 0.3), (2, Fraction(5, 2), "2")])
    assert (w.leaf_cost(1), w.move_cost(1)) == (Fraction(1, 3), Fraction(3, 10))
    assert (w.leaf_cost(2), w.move_cost(2)) == (Fraction(5, 2), 2)
    for bad in ("x", "1/0", None, 1j, object()):
        with pytest.raises(UsageError):
            WeightScheme.from_table([(2, bad, 1)])
        with pytest.raises(UsageError):
            WeightScheme.from_table([(2, 1, bad)])


def test_weight_scheme_rejects_nonpositive():
    with pytest.raises(UsageError):
        WeightScheme(leaf={1: 0})
    with pytest.raises(UsageError):
        WeightScheme(leaf=lambda level: -1).leaf_cost(2)
    with pytest.raises(UsageError):
        WeightScheme(leaf=object())


def test_a_bool_is_not_a_weight():
    # a bool is an int, but True is not a weight of 1
    for bad in (True, False):
        assert exact_number(bad) is None
        with pytest.raises(UsageError, match="finite positive number"):
            WeightScheme(leaf={2: bad})
        with pytest.raises(UsageError, match="finite positive number"):
            WeightScheme(move=lambda level: bad).move_cost(1)
    assert exact_number(np.int64(2)) == 2 and WeightScheme(leaf={2: np.int64(2)}).leaf_cost(2) == 2


def test_weight_scheme_rejects_nan_and_non_real_weights():
    nan = float("nan")
    for bad in (nan, 1j, "2", None, math.inf, -math.inf, np.float32("inf")):
        with pytest.raises(UsageError):
            WeightScheme(leaf={2: bad})
        with pytest.raises(UsageError):
            WeightScheme(move=lambda level: bad).move_cost(1)
    with pytest.raises(UsageError):
        ted_star(P("(()())"), P("((()))"), WeightScheme(move=lambda level: nan))
    # an infinite move price once left the matching spinning on this pair;
    # the reads above fail first, so a regression fails here and does not hang
    with pytest.raises(UsageError, match="finite"):
        ted_star(P("((())(((()()()()))((()()())(()()()))))"),
                 P("(()()(())(())(()(()()(()())))((()(())(()))(()(())(()()()()))"
                   "(()()()(())(()()))))"), WeightScheme(move=lambda level: math.inf))


def test_float_weights_are_read_as_their_decimals():
    w = WeightScheme(leaf={2: 0.1}, move=lambda level: 0.3)
    assert w.leaf_cost(2) == Fraction(1, 10) and type(w.leaf_cost(2)) is Fraction
    assert w.move_cost(5) == Fraction(3, 10)
    assert WeightScheme(leaf={2: np.float32(0.1)}).leaf_cost(2) == Fraction(1, 10)
    assert type(WeightScheme(leaf={2: np.int64(3)}).leaf_cost(2)) is int


def test_float_schemes_equal_their_decimal_fraction_schemes():
    # a float weight is read once as Fraction(str(w)), so every result,
    # breakdown included, is the one the Fraction scheme of those decimals gives
    def leaf(level):
        return 0.1 * level + 0.07

    def move(level):
        return 0.3 * level + 0.11

    floats = WeightScheme(leaf=leaf, move=move)
    decimals = WeightScheme(leaf=lambda level: Fraction(str(leaf(level))),
                            move=lambda level: Fraction(str(move(level))))
    rng = random.Random(22)
    for _ in range(80):
        a, b = (random_tree(rng.randint(2, 60), rng.randint(2, 7), rng) for _ in "ab")
        assert repr(ted_star(a, b, floats)) == repr(ted_star(a, b, decimals))


def test_numpy_weights_equal_python_weights():
    # numpy floats once came back as np.float32 at depth 3 and raised a bare
    # TypeError at depth 4 and in build_index; numpy ints now read as ints
    as_numpy = WeightScheme(leaf=lambda level: np.float32(0.5),
                            move=lambda level: np.float32(1.5))
    as_fractions = WeightScheme(leaf=lambda level: Fraction(1, 2),
                                move=lambda level: Fraction(3, 2))
    ints_numpy = WeightScheme(leaf={2: np.int64(3)}, move=lambda level: np.int64(2 * level))
    ints = WeightScheme(leaf={2: 3}, move=lambda level: 2 * level)
    pairs = [(P("((()())(()))"), P("(()(()()))")),            # depth 3
             (P("(((()))(()))"), P("((()())(()))"))]          # depth 4
    g = random_graph(30, 50, seed=23)
    for numpy_scheme, python_scheme in ((as_numpy, as_fractions), (ints_numpy, ints)):
        for a, b in pairs:
            assert repr(ted_star(a, b, numpy_scheme)) == repr(ted_star(a, b, python_scheme))
        for k in (3, 4):
            index = build_index(g, k, cache=TreeDistanceCache(numpy_scheme))
            reference = build_index(g, k, cache=TreeDistanceCache(python_scheme))
            for v in range(0, g.n, 5):
                q = tree_for(g, v, k)
                assert repr(index.knn(q, 4)) == repr(reference.knn(q, 4))


def test_mapping_weights_are_checked_once(monkeypatch):
    import nedist.ted as ted_module
    mapped = WeightScheme(leaf={3: 3, 4: 2}, move={2: 6, 3: 4})
    checked = []
    check = ted_module._check_weight
    monkeypatch.setattr(ted_module, "_check_weight",
                        lambda w, what: checked.append(what) or check(w, what))
    a, b = P("((()(()()))(())(()()))"), P("(((()))((()())())())")
    for w in (UNIT, mapped):
        ted_star(a, b, w)
    assert checked == []
    with pytest.raises(UsageError):   # a callable's weight is checked when read
        ted_star(a, b, WeightScheme(move=lambda level: -1 if level == 3 else 1))
    assert checked


def test_weights_past_the_exact_range_stay_exact():
    # a reinsert entry that could leave int64 puts the level's matrix in
    # Python ints; the trees give what the same trees one level up give at
    # depth 3, where the closed form builds no matrix
    assert ted_star_distance_only(P("(((()()()())()))"), P("(((())(()()()())))"),
                                  WeightScheme(leaf={4: 2 ** 61}, move={3: 2 ** 63 - 1})) == 2 ** 61
    assert ted_star_distance_only(P("((()()()())())"), P("((())(()()()()))"),
                                  WeightScheme(leaf={3: 2 ** 61}, move={2: 2 ** 63 - 1})) == 2 ** 61
    # the root is not matched, so its move price builds no matrix
    assert ted_star_distance_only(P("(()())"), P("(()()())"),
                                  WeightScheme(move={1: 2 ** 62})) == 1
    # each of the paying side's surplus leaves is priced at 2 ** 50; a level
    # wider than 24 nodes goes to scipy's float64 solver only while its sums
    # stay below 2 ** 53, and to the exact solver past that
    w = WeightScheme(leaf={4: 2 ** 49}, move={3: 2 ** 51})
    assert ted_star_distance_only(P("((" + "(()())" * 5 + "()" * 5 + "))"),
                                  P("((" + "(())" * 11 + "))"), w) == 11 * 2 ** 49 + 1
    assert ted_star_distance_only(P("((" + "(()())" * 15 + "()" * 15 + "))"),
                                  P("((" + "(())" * 31 + "))"), w) == 31 * 2 ** 49 + 1
    w = WeightScheme(leaf={3: 2 ** 49}, move={2: 2 ** 51})
    assert ted_star_distance_only(P("(" + "(()())" * 15 + "()" * 15 + ")"),
                                  P("(" + "(())" * 31 + ")"), w) == 31 * 2 ** 49 + 1


def narrow_deep_pairs(rng, count, sizes, depths):
    """Seeded pairs of trees with no level wider than 24 nodes."""
    pairs = []
    while len(pairs) < count:
        pair = [random_tree(rng.randint(*sizes), rng.randint(*depths), rng) for _ in "ab"]
        if all(len(level) <= 24 for t in pair for level in t.levels):
            pairs.append(pair)
    return pairs


def record_matrix_kinds(monkeypatch):
    import nedist.ted as ted_module
    kinds = set()

    def matching(W):
        kinds.add(W.dtype.kind)
        return matching_with_duals(W)

    monkeypatch.setattr(ted_module, "matching_with_duals", matching)
    return kinds


def test_wplus_scaled_past_int64_scales_the_distance(monkeypatch):
    # levels of at most 24 nodes match in the pure-Python solver either way,
    # whose duals scale with the matrix, so the whole level search does
    kinds = record_matrix_kinds(monkeypatch)
    c = 2 ** 62
    scaled = WeightScheme(leaf=lambda level: c, move=lambda level: 4 * level * c)
    for a, b in narrow_deep_pairs(random.Random(20), 60, (5, 40), (5, 5)):
        total, br = ted_star(a, b, W_PLUS)
        scaled_total, scaled_br = ted_star(a, b, scaled)
        assert scaled_total == total * c
        assert (scaled_br.matching, scaled_br.reinserted) == (br.matching, br.reinserted)
    assert "O" in kinds


def test_small_pairs_past_int64_equal_the_oracle(monkeypatch):
    # a common denominator of 10 ** 19 scales level 3's move past int64
    kinds = record_matrix_kinds(monkeypatch)
    w = WeightScheme.from_table([(3, 1, 9), (4, "1.0000000000000000001", 1)])
    for a, b in narrow_deep_pairs(random.Random(21), 30, (5, 8), (4, 5)):
        assert ted_star_distance_only(a, b, w) == exact_ted_star(a, b, budget=None, weights=w)
    assert "O" in kinds


def test_wplus_scales_moves_by_level():
    assert W_PLUS.move_cost(3) == 12
    assert W_PLUS.leaf_cost(3) == 1


def test_weighted_result_exact_rational():
    w = WeightScheme.from_table([(2, "1/3", "1/7")])
    total = ted_star_distance_only(P("(()())"), P("(()()())"), w)
    assert total == Fraction(1, 3)


def checked_repr(result) -> str:
    """repr of a ``ted_star`` result whose total is in its one type: an int
    when whole, else a Fraction, and the breakdown's total the same."""
    total, br = result
    assert type(total) is type(br.total) and total == br.total
    assert type(total) is int or (type(total) is Fraction and total.denominator != 1)
    return repr(result)


def test_pinned_values_beyond_oracle_horizon():
    # every (distance, breakdown) on trees far past the exhaustive oracle's
    # 8 nodes, pinned by digest: a refactor of the level search must leave
    # each of them byte-identical
    rng = random.Random(5)
    pairs = [(random_tree(rng.randint(3, 100), rng.randint(2, 7), rng),
              random_tree(rng.randint(3, 100), rng.randint(2, 7), rng))
             for _ in range(200)]
    pairs += [(random_tree(n, 3, rng), random_tree(n, 3, rng)) for n in (250, 500)]
    digest = hashlib.sha256()
    for w in (UNIT, W_PLUS, criterion_1_random_scheme()):
        for a, b in pairs:
            digest.update(checked_repr(ted_star(a, b, w)).encode())
    assert digest.hexdigest() == \
        "7b78fdfa3f3bdff9423d33d91cd3d355ae62becde07dbf9c85fde371f050477c"


def test_pinned_float_weights_beyond_oracle_horizon():
    # float weights are read as their decimals, so every total is an exact
    # Fraction; depth >= 4 reaches this scheme's reinsert levels
    # (move_cost(L) > 2 * leaf_cost(L + 1) from L = 3)
    w = WeightScheme(leaf=lambda level: 0.1 * level + 0.07,
                     move=lambda level: 0.3 * level + 0.11, name="float")
    rng = random.Random(12)
    pairs = [(random_tree(rng.randint(3, 100), rng.randint(4, 7), rng),
              random_tree(rng.randint(3, 100), rng.randint(4, 7), rng))
             for _ in range(120)]
    digest = hashlib.sha256()
    for a, b in pairs:
        digest.update(checked_repr(ted_star(a, b, w)).encode())
    assert digest.hexdigest() == \
        "14be7f669ceb32736c6058ae813937d04f572e994db7ba8a30683d7d611d8d3d"


def test_pinned_wplus_scripts():
    # among cost-equal scripts the breakdown reports the first cheapest state
    # the level search met, so dropping states that cannot lower a total can
    # still change it: pair 16 here reports another script of the same total
    # 59 when level 2's tie search is skipped
    rng = random.Random(1)
    pairs = [(random_tree(rng.randint(3, 120), rng.randint(2, 7), rng),
              random_tree(rng.randint(3, 120), rng.randint(2, 7), rng))
             for _ in range(40)]
    digest = hashlib.sha256()
    for a, b in pairs:
        digest.update(checked_repr(ted_star(a, b, W_PLUS)).encode())
    assert digest.hexdigest() == \
        "0e9a70aaf49c50dd88fb4c5fdb9c271d5aa37538acdc8d0c2cd76aca56ca95dd"


def test_pinned_depth_three_scripts():
    # depth <= 3 under schemes on both sides of move_cost(2) = 2 * leaf_cost(3),
    # where level 2 may or may not reinsert, with level 2 often wider than
    # the pure-Python solver's range: (total, breakdown) pinned by digest
    schemes = [UNIT, W_PLUS, criterion_1_random_scheme(),
               WeightScheme(leaf=lambda level: 0.1 * level + 0.07,
                            move=lambda level: 0.3 * level + 0.11, name="float"),
               WeightScheme(leaf={3: 3}, move={2: 6}, name="move2-at-reinsert"),
               WeightScheme(leaf={2: 2, 3: 5}, move={1: 3, 2: 7}, name="move2-below")]
    rng = random.Random(16)
    pairs = [(random_tree(rng.randint(1, 300), rng.randint(2, 3), rng),
              random_tree(rng.randint(1, 300), rng.randint(2, 3), rng))
             for _ in range(300)]
    digest = hashlib.sha256()
    for w in schemes:
        for a, b in pairs:
            digest.update(checked_repr(ted_star(a, b, w)).encode())
    assert digest.hexdigest() == \
        "8ef66cc80a72e01fbf732368d82ffa3f587f5e4131acb219a17bda9676d8dd53"


def test_pinned_exact_weights_beyond_oracle_horizon():
    # depth 4-7 under a Fraction scheme, which the search scales to
    # integers, and a scheme on the boundary move_cost(L) = 2 * leaf_cost(L + 1)
    # at levels 2 and 3, where nothing is reinserted, in both argument
    # orders: (total, breakdown) pinned by digest
    schemes = [WeightScheme(leaf=lambda level: Fraction(level, 3),
                            move=lambda level: Fraction(2 * level + 1, 7), name="fraction"),
               WeightScheme(leaf={3: 3, 4: 2}, move={2: 6, 3: 4}, name="boundary")]
    rng = random.Random(18)
    pairs = [(random_tree(rng.randint(3, 80), rng.randint(4, 7), rng),
              random_tree(rng.randint(3, 80), rng.randint(4, 7), rng))
             for _ in range(100)]
    digest = hashlib.sha256()
    for w in schemes:
        for a, b in pairs:
            digest.update(checked_repr(ted_star(a, b, w)).encode())
            digest.update(checked_repr(ted_star(b, a, w)).encode())
    assert digest.hexdigest() == \
        "e6e5493712dc74b29a6cd226b74628f87934c99625a659dc8f3f5a700d237e62"


def test_pinned_graph_neighborhood_scripts():
    # k = 4-6 neighborhoods of criterion 4's graphs: wide levels full of
    # repeated labels, where the matching's lex-min refinement does most of
    # its work, unlike the random_tree pairs above: (total, breakdown)
    # pinned by digest
    g1 = random_graph(400, 700, seed=41)
    g2 = random_graph(400, 700, seed=42)
    rng = random.Random(19)
    pairs = []
    for _ in range(200):
        k = rng.randint(4, 6)
        pairs.append((tree_for(g1, rng.randrange(g1.n), k),
                      tree_for(g2, rng.randrange(g2.n), k)))
    digest = hashlib.sha256()
    for w in (UNIT, W_PLUS):
        for a, b in pairs:
            digest.update(checked_repr(ted_star(a, b, w)).encode())
    assert digest.hexdigest() == \
        "3a7733485fa7a21a182d4103d48186a7b23efeb37a2da822d305272b592f1363"


def test_ted_star_leaves_no_reference_cycles():
    rng = random.Random(8)
    pairs = [(random_tree(40, 4, rng), random_tree(40, 4, rng)) for _ in range(50)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for a, b in pairs:
            ted_star(a, b)
            ted_star(a, b, W_PLUS)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("scheme", [UNIT, W_PLUS, criterion_1_random_scheme()],
                         ids=lambda s: s.name)
def test_triangle_inequality_at_depth_three(scheme):
    # TED* at depth <= 3 is an l1 distance between per-tree vectors, so on
    # criterion 1's pool it holds on every ordered triple of shallow trees
    rng = random.Random(11)
    pool = [random_tree(rng.randint(2, 60), rng.randint(2, 6),
                        seed=rng.randrange(1 << 30)) for _ in range(60)]
    shallow = [t for t in pool if t.depth <= 3]
    assert len(shallow) == 28
    d = [[ted_star_distance_only(a, b, scheme) for b in shallow] for a in shallow]
    n = len(shallow)
    assert all(d[i][j] + d[j][k] >= d[i][k]
               for i in range(n) for j in range(n) for k in range(n))
