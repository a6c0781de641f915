import random
from fractions import Fraction
from itertools import permutations

import numpy as np

from scipy.optimize import linear_sum_assignment

from nedist.assignment import (
    _hungarian,
    _lex_min_refine,
    _scipy_with_duals,
    matching_with_duals,
)


def matching(matrix, dtype=np.int64):
    """(cost, assignment) of ``matrix`` as an int64 array, or an object array
    of Fractions or large ints, as TED* builds its level matrices."""
    return matching_with_duals(np.array(matrix, dtype=dtype))[:2]


def brute_force(matrix):
    n = len(matrix)
    best = None
    for perm in permutations(range(n)):
        cost = sum(matrix[i][perm[i]] for i in range(n))
        key = (cost, perm)
        if best is None or key < best:
            best = key
    return best  # (min cost, lexicographically smallest optimal assignment)


def test_trivial_cases():
    assert matching([[0]]) == (0, [0])
    assert matching([[0, 1], [1, 0]]) == (0, [0, 1])


def test_documented_three_by_three():
    cost, f = matching([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
    assert cost == 10
    assert f == [2, 1, 0]


def test_matches_brute_force_on_random_int_matrices():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = [[rng.randint(0, 6) for _ in range(n)] for _ in range(n)]
        cost, f = matching(m)
        bcost, bf = brute_force(m)
        assert cost == bcost
        assert f == list(bf)


def test_matches_brute_force_on_fraction_matrices():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        cost, f = matching(m, dtype=object)
        bcost, bf = brute_force(m)
        assert cost == bcost
        assert f == list(bf)


def test_numpy_input_and_large_instance():
    rng = np.random.default_rng(5)
    W = rng.integers(0, 50, size=(60, 60))
    cost, f = matching(W)
    assert sorted(f) == list(range(60))
    assert cost == int(W[np.arange(60), f].sum())
    # cost must not beat the scipy reference optimum
    r, c = linear_sum_assignment(W)
    assert cost == int(W[r, c].sum())


def test_dual_feasibility_and_tightness():
    rng = np.random.default_rng(7)
    for n in (3, 8, 30, 50):
        W = rng.integers(0, 20, size=(n, n))
        cost, f, u, v = matching_with_duals(W)
        for i in range(n):
            for j in range(n):
                assert u[i] + v[j] <= W[i, j]
            assert u[i] + v[f[i]] == W[i, f[i]]
        assert cost == sum(u) + sum(v)


def test_lex_refinement_under_heavy_ties():
    # all-equal matrix: every permutation is optimal, identity is smallest
    for n in (2, 5, 9, 30):
        cost, f = matching(np.full((n, n), 3))
        assert f == list(range(n))
        assert cost == 3 * n


def heavy_tie_matrix(rng, n):
    """Few distinct values, rows and columns repeated, as in TED*'s level
    matrices, where many assignments share the optimal cost."""
    pool = [[rng.randrange(4) for _ in range(n)] for _ in range(rng.randint(1, 4))]
    rows = [rng.choice(pool) for _ in range(n)]
    cols = [rng.randrange(n) for _ in range(n)]
    return np.array([[row[c] for c in cols] for row in rows], dtype=np.int64)


def lex_min_by_fixing_rows(W):
    """Each row in turn takes the smallest free column that keeps the optimum
    reachable, checked by solving the rest of the matrix."""
    def rest(rows, cols):
        if not rows:
            return 0
        sub = W[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub)
        return int(sub[r, c].sum())

    n = W.shape[0]
    best = rest(list(range(n)), list(range(n)))
    spent, free, f = 0, list(range(n)), []
    for i in range(n):
        for j in free:
            others = [c for c in free if c != j]
            if spent + int(W[i, j]) + rest(list(range(i + 1, n)), others) == best:
                f.append(j)
                spent += int(W[i, j])
                free = others
                break
    return best, f


def test_lex_refinement_on_small_heavy_tie_matrices():
    rng = random.Random(19)
    for _ in range(300):
        W = heavy_tie_matrix(rng, rng.randint(1, 6))
        cost, f = matching(W)
        assert (cost, tuple(f)) == brute_force(W.tolist())


def test_lex_refinement_on_large_heavy_tie_matrices():
    # above 24 rows scipy solves and the refinement reads its recovered duals
    rng = random.Random(23)
    for _ in range(8):
        W = heavy_tie_matrix(rng, rng.randint(25, 40))
        cost, f = matching(W)
        assert (cost, f) == lex_min_by_fixing_rows(W)


def test_lex_refinement_does_not_depend_on_the_duals():
    # the lex-min optimum is unique, so both solvers' duals lead to it
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 30)
        W = heavy_tie_matrix(rng, n)
        listed = W.tolist()
        f1 = _lex_min_refine(listed, n, *_hungarian(listed, n))
        f2 = _lex_min_refine(listed, n, *_scipy_with_duals(W))
        assert f1 == f2


def test_integers_past_float64_exactness_are_exact():
    # above 24 rows scipy solves in float64, where integer sums stay exact
    # only below 2 ** 53; past that, and past int64 in an object array, the
    # pure-Python solver runs.  c times a matrix has the matrix's optimum at
    # c times its cost
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(25, 40)
        base = np.array([[rng.randint(0, 9) for _ in range(n)] for _ in range(n)])
        cost, f = matching(base)
        for c in (2 ** 50, 2 ** 70):   # int64 with max * n >= 2 ** 53; past int64
            scaled = base * c if c < 2 ** 63 else base.astype(object) * c
            got = matching(scaled, dtype=scaled.dtype)
            assert got == (cost * c, f)
            assert type(got[0]) is int
        # float64 rounds every entry of base + 2 ** 60 to 2 ** 60
        assert matching(base + 2 ** 60) == (cost + n * 2 ** 60, f)
    # entries 2 ** 63 + 1 fit neither int64 nor float64; row 0 makes the
    # optimum take one
    zero_one = [[1] * 30] + [[rng.randint(0, 1) for _ in range(30)] for _ in range(29)]
    cost, f = matching(zero_one)
    big = [[1 + x * 2 ** 63 for x in row] for row in zero_one]
    assert matching(big, dtype=object) == (30 + cost * 2 ** 63, f)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(0, 2) * 2 ** 80 + rng.randint(0, 1) for _ in range(n)]
             for _ in range(n)]
        cost, f = matching(m, dtype=object)
        bcost, bf = brute_force(m)
        assert cost == bcost
        assert f == list(bf)


def test_the_float64_gate_from_both_sides():
    # an int64 matrix whose largest entry times its width is below 2 ** 53
    # runs scipy; one more on every entry crosses that and runs the
    # pure-Python solver, with the same optimal assignment at n more
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randint(25, 40)
        top = (2 ** 53 - 1) // n
        ties = heavy_tie_matrix(rng, n)
        below = ties * (top // 3)
        below[ties == ties.max()] = top
        above = below + 1
        assert int(below.max()) * n < 2 ** 53 <= int(above.max()) * n
        best, lex_f = lex_min_by_fixing_rows(below)
        for W, expected in ((below, (best, lex_f)), (above, (best + n, lex_f))):
            cost, f, u, v = matching_with_duals(W)
            listed = W.tolist()
            assert (cost, f) == expected
            assert f == _lex_min_refine(listed, n, *_hungarian(listed, n))
            for i in range(n):
                assert all(u[i] + v[j] <= listed[i][j] for j in range(n))
                assert u[i] + v[f[i]] == listed[i][f[i]]


def test_fraction_arrays_match_their_lists():
    # an object array of Fractions wider than 24 runs the exact solver, with
    # the optimum of the matrix times the common denominator 12
    rng = random.Random(29)
    m = [[Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(25)]
         for _ in range(25)]
    cost, f, u, v = matching_with_duals(np.array(m, dtype=object))
    assert type(cost) is Fraction
    scaled_cost, scaled_f = matching([[int(x * 12) for x in row] for row in m])
    assert (cost, f) == (Fraction(scaled_cost, 12), scaled_f)
    assert all(u[i] + v[j] <= m[i][j] for i in range(25) for j in range(25))
    assert all(u[i] + v[f[i]] == m[i][f[i]] for i in range(25))
