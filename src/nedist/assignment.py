"""Exact minimum-cost perfect matching on square cost matrices.

Small instances run a pure-Python Hungarian algorithm with potentials;
larger integer/float instances are solved by scipy's O(n^3) implementation
with dual potentials recovered afterwards.  Either way the returned
assignment is refined to the lexicographically smallest optimal one, which
makes downstream consumers fully deterministic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import UsageError

# below this size the pure-Python solver beats the scipy call overhead
_SMALL_N = 24


def _validate(matrix):
    n = len(matrix)
    if n == 0:
        raise UsageError("cost matrix must be non-empty")
    for row in matrix:
        if len(row) != n:
            raise UsageError("cost matrix must be square")
        for x in row:
            if x < 0:
                raise UsageError("cost matrix entries must be non-negative")
    return n


def _hungarian(matrix, n):
    """Hungarian algorithm with potentials; exact for any ordered number type.

    Returns (assignment, u, v) with dual feasibility u[i] + v[j] <= w[i][j]
    and equality on matched edges.
    """
    inf = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)          # p[j] = row matched to column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = matrix[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[p[j] - 1] = j - 1
    return assignment, u[1:], v[1:]


def _scipy_with_duals(W: np.ndarray):
    """Solve with scipy, then recover feasible duals by Bellman-Ford relaxation.

    The dual constraints reduce to u[i] - u[i2] <= w[i, f(i2)] - w[i2, f(i2)];
    relaxing to a fixpoint from u = 0 yields feasible potentials because an
    optimal assignment rules out negative cycles.
    """
    n = W.shape[0]
    rows, cols = linear_sum_assignment(W)
    f = np.empty(n, dtype=np.int64)
    f[rows] = cols
    c = W[np.arange(n), f]
    D = W[:, f].T - c[:, None]       # D[i2, i] = w[i, f(i2)] - w[i2, f(i2)]
    u = np.zeros(n, dtype=W.dtype)
    for _ in range(n):
        nu = np.minimum(u, (u[:, None] + D).min(axis=0))
        if np.array_equal(nu, u):
            break
        u = nu
    v = np.empty(n, dtype=W.dtype)
    v[f] = c - u
    return f.tolist(), u.tolist(), v.tolist()


def _lex_min_refine(matrix, n, f, u, v):
    """Restrict to tight edges (all optima live there) and greedily pick the
    lexicographically smallest assignment vector, keeping a perfect matching
    feasible via augmenting paths."""
    cand = []
    for i in range(n):
        row = matrix[i]
        ui = u[i]
        cand.append([j for j in range(n) if row[j] == ui + v[j]])

    col_row = [0] * n
    for i, j in enumerate(f):
        col_row[j] = i
    fixed_col = [False] * n

    def augment(start: int, free_col: int) -> bool:
        prev: dict[int, int] = {}
        seen_rows = {start}
        stack = [start]
        while stack:
            r = stack.pop()
            for jc in cand[r]:
                if fixed_col[jc] or jc in prev:
                    continue
                prev[jc] = r
                if jc == free_col:
                    j = jc
                    while True:
                        r2 = prev[j]
                        old = f[r2]
                        f[r2] = j
                        col_row[j] = r2
                        if r2 == start:
                            return True
                        j = old
                r2 = col_row[jc]
                if r2 not in seen_rows:
                    seen_rows.add(r2)
                    stack.append(r2)
        return False

    for i in range(n):
        j0 = f[i]
        for j in cand[i]:
            if j >= j0:
                break
            if fixed_col[j]:
                continue
            displaced = col_row[j]
            # give column j to row i; the displaced row must re-match, with
            # the released column j0 now free
            f[i] = j
            col_row[j] = i
            fixed_col[j] = True
            if augment(displaced, j0):
                fixed_col[j] = False
                j0 = j
                break
            f[i] = j0
            col_row[j] = displaced
            fixed_col[j] = False
        fixed_col[j0] = True
    return f


def _solve(matrix, n: int):
    """The one solver path: Hungarian below _SMALL_N or on exact Fraction
    input, scipy with recovered duals above it, then the lex-min refinement.
    Returns (cost, assignment, u, v); the cost is summed from the matrix
    entries, so it keeps their number type."""
    exact = not isinstance(matrix, np.ndarray) and any(
        isinstance(x, Fraction) for row in matrix for x in row)
    if n <= _SMALL_N or exact:
        listed = matrix.tolist() if isinstance(matrix, np.ndarray) else [list(r) for r in matrix]
        f, u, v = _hungarian(listed, n)
    else:
        W = np.asarray(matrix)
        f, u, v = _scipy_with_duals(W)
        listed = W.tolist()
    f = _lex_min_refine(listed, n, f, u, v)
    cost = sum(listed[i][f[i]] for i in range(n))
    return cost, f, u, v


def min_cost_perfect_matching(matrix):
    """Minimum-cost perfect matching of a square non-negative matrix.

    Returns (cost, assignment) where assignment[i] is the column matched to
    row i.  Among cost-equal optima the lexicographically smallest
    assignment vector is returned.
    """
    if isinstance(matrix, np.ndarray):
        n = matrix.shape[0]
        if matrix.ndim != 2 or matrix.shape[1] != n or n == 0:
            raise UsageError("cost matrix must be square and non-empty")
        if (matrix < 0).any():
            raise UsageError("cost matrix entries must be non-negative")
    else:
        n = _validate(matrix)
    cost, f, _, _ = _solve(matrix, n)
    return cost, f


def matching_with_duals(W: np.ndarray):
    """Fast internal path for the distance computation: numpy matrix in,
    (cost, assignment, u, v) out with the same lexicographic tie-break.

    The duals satisfy u[i] + v[j] <= W[i][j] with equality on every edge any
    optimal assignment uses, which lets callers enumerate cost-equal optima.
    """
    return _solve(W, W.shape[0])
