"""Exact minimum-cost perfect matching on square cost matrices.

An int64 matrix wider than _SMALL_N with every sum below 2 ** 53, which
scipy sums exactly, is solved by scipy's O(n^3) implementation, with dual
potentials recovered afterwards; every other matrix, object arrays of
Fractions and of ints past int64 included, by an exact pure-Python Hungarian
algorithm with potentials.  Either way the returned assignment is refined to
the lexicographically smallest optimal one, with one reverse search per row,
in O(n^3).  That optimum is unique, so the assignment does not depend on
which optimal duals the solver returned; the duals themselves do, and the
TED* tie search (``ted._tight_matchings``) reads them.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

# at or below this size the pure-Python solver runs, above it scipy.  Speed
# alone would switch near n = 6 (with the refinement, on a 2-core Xeon: 7 vs
# 23 us at n = 1, 79 vs 57 us at n = 8, 755 vs 164 us at n = 22), but the
# switch also picks which optimal duals the TED* tie search reads, so moving
# it changes TED* values (test_pinned_values_beyond_oracle_horizon)
_SMALL_N = 24


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
    """The lexicographically smallest optimal assignment, which is unique:
    under any optimal duals the optima are the perfect matchings of the
    tight edges, so ``f`` does not depend on which duals came in.

    Rows are fixed in order.  Row i may take a smaller tight column j iff j's
    holder can pass columns round to i's own: one search back from f[i]
    over the unfixed rows finds every such holder, so each row makes at most
    one O(n^2) search and the whole refinement is O(n^3).  Matched edges are
    followed through col_row, so f[i] need not pass the tightness test.
    """
    cand = []
    for i in range(n):
        row = matrix[i]
        ui = u[i]
        cand.append([j for j in range(n) if row[j] == ui + v[j]])

    col_row = [0] * n
    for i, j in enumerate(f):
        col_row[j] = i
    tight_on = None     # tight_on[c]: the rows tight on column c

    for i in range(n):
        j0 = f[i]
        # smaller tight columns still held by unfixed rows
        smaller = [j for j in cand[i] if j < j0 and col_row[j] > i]
        if not smaller:
            continue
        if tight_on is None:
            tight_on = [[] for _ in range(n)]
            for r in range(n):
                for c in cand[r]:
                    tight_on[c].append(r)
        # to[r]: the column unfixed row r moves to when its own is passed on;
        # no column beats the smallest candidate, so stop once its holder is in
        to = {}
        first = col_row[smaller[0]]
        stack = [j0]
        while stack and first not in to:
            c = stack.pop()
            for r in tight_on[c]:
                if r > i and r not in to:
                    to[r] = c
                    stack.append(f[r])
        j = next((j for j in smaller if col_row[j] in to), None)
        if j is None:
            continue
        # row i takes j, and from j's holder back to i each row takes the
        # column it was reached through
        r = col_row[j]
        f[i] = j
        col_row[j] = i
        while r != i:
            c = to[r]
            f[r], col_row[c], r = c, r, col_row[c]
    return f


def matching_with_duals(W: np.ndarray):
    """(cost, assignment, u, v) of an unchecked square int64 or object
    array, routed as the module docstring says.  assignment[i] is the column
    matched to row i, and among cost-equal optima the assignment is the
    lexicographically smallest vector; the cost is summed from the entries,
    so it keeps their number type.

    The duals satisfy u[i] + v[j] <= W[i][j] with equality on every edge any
    optimal assignment uses, which lets callers enumerate cost-equal optima.
    """
    n = W.shape[0]
    listed = W.tolist()
    if n > _SMALL_N and W.dtype.kind == "i" and int(W.max()) * n < 2 ** 53:
        f, u, v = _scipy_with_duals(W)
    else:
        f, u, v = _hungarian(listed, n)
    f = _lex_min_refine(listed, n, f, u, v)
    return sum(listed[i][f[i]] for i in range(n)), f, u, v
