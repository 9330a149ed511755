"""Minimum-cost bipartite assignment with deterministic tie-breaking.

The solver is the Hungarian method in its shortest-augmenting-path form
(Kuhn 1955; Munkres 1957; Jonker and Volgenant 1987), run on the zero-padded
square matrix.  Besides the matching sigma it returns row and column
potentials u, v: the reduced costs rc = c - u - v are >= 0 everywhere and 0
on sigma, which certifies that sigma is optimal.

Among all assignments of minimal total cost, the lexicographically smallest
(row, col) pair list is returned: rows are fixed in order, each to the
smallest column whose best completion stays within a tolerance of the
optimum, or left unassigned when rows outnumber columns.  The potentials
decide almost every such test without a second solve.  The cheapest
assignment that uses edge (r, c) costs best + G[r, c], where
G[r, c] = rc[r, c] + D[c, sigma(r)] and D holds the shortest alternating-path
distances between columns over rc.  When no edge off sigma has G within the
tolerance, sigma is the answer; otherwise each fixed row leaves a smaller
problem whose optimum one augmenting path restores.  A completion is
re-solved only when G lies within rounding of the tolerance.  Rectangular
matrices are supported; only min(rows, cols) pairs are produced.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .geometry import numbers, sum_in_order

# Sub-solutions within tol = _TIE_RTOL * max(1, |best|) + 2 n^2 eps max|c|
# (n pairs) of the optimal total are ties: summation-order noise, plus the
# rounding of sums whose entries cancel.  Real cost gaps are far larger.
_TIE_RTOL = 1e-9
_EPS = float(np.finfo(float).eps)


def _validated_cost(cost) -> np.ndarray:
    """cost as a 2-D, non-empty array of finite floats; a float64 array is
    returned as itself, not copied: nothing here writes into it."""
    c = numbers(cost, "cost", copy=False)
    if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
        raise ValidationError(f"cost matrix must be 2-D and non-empty, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValidationError("cost matrix contains non-finite entries")
    return c


def _pairs_total(cost: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    # Row-order summation, so equal pair sets always produce identical floats.
    total = 0.0
    for r, c in pairs:
        total += float(cost[r, c])
    return total


def _augment(c, u, v, row_of, col_of, i) -> None:
    """Match free row i along a shortest augmenting path over the reduced
    costs (Dijkstra over columns), shifting u and v so that the path and
    the matching stay tight."""
    n = c.shape[0]
    dist = c[i] - u[i] - v
    prev = np.full(n, i)
    todo = np.ones(n, dtype=bool)
    scanned = []
    while True:
        j = int(np.where(todo, dist, np.inf).argmin())
        r = row_of[j]
        if r < 0:
            break
        todo[j] = False
        scanned.append(j)
        alt = dist[j] + (c[r] - u[r] - v)
        better = todo & (alt < dist)
        dist[better] = alt[better]
        prev[better] = r
    d = dist[j]
    u[i] += d
    for k in scanned:
        u[row_of[k]] += d - dist[k]
        v[k] -= d - dist[k]
    while True:
        r = int(prev[j])
        row_of[j] = r
        col_of[r], j = j, col_of[r]
        if r == i:
            break


def _hungarian(cost: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Optimal matching of the zero-padded square form of cost, with its
    dual potentials.

    Returns (sigma, u, v): row r is matched to column sigma[r], and
    padded - u[:, None] - v is >= 0 up to rounding and 0 on the matching.
    A matrix with more rows than columns is solved transposed, so that its
    padding is zero rows, which the tight start below places at once.
    """
    if cost.shape[0] > cost.shape[1]:
        col_of, v, u = _hungarian(cost.T)
        sigma = [0] * len(col_of)
        for r, j in enumerate(col_of):
            sigma[j] = r
        return sigma, u, v
    c = _padded(cost)
    n = c.shape[0]
    u = c.min(axis=1)
    v = np.zeros(n)
    row_of = [-1] * n
    col_of = [-1] * n
    # Row minima are tight edges: a column still free goes to its first
    # claimant.  On well-separated costs that is already the whole matching.
    for r, j in enumerate(c.argmin(axis=1).tolist()):
        if row_of[j] < 0:
            row_of[j], col_of[r] = r, j
    left = [r for r in range(n) if col_of[r] < 0]
    if left:
        # A row whose first minimum is taken may have another one still
        # free: zero padding rows always do, integer or repeated costs often.
        free = np.array(row_of) < 0
        tight = (c[left] == u[left, None]) & free
        for i in np.flatnonzero(tight.any(axis=1)).tolist():
            js = np.flatnonzero(tight[i] & free)
            if js.size:
                j = int(js[0])
                row_of[j], col_of[left[i]], free[j] = left[i], j, False
        for i in [r for r in left if col_of[r] < 0]:
            _augment(c, u, v, row_of, col_of, i)
    return col_of, u, v


def _padded(c: np.ndarray) -> np.ndarray:
    n_rows, n_cols = c.shape
    if n_rows == n_cols:
        return c
    p = np.zeros((max(n_rows, n_cols),) * 2)
    p[:n_rows, :n_cols] = c
    return p


def _real_pairs(sigma: list[int], n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    return [(r, j) for r, j in enumerate(sigma[:n_rows]) if j < n_cols]


def _optimal_total(cost: np.ndarray) -> float:
    if cost.size == 0:
        return 0.0
    sigma = _hungarian(cost)[0]
    return _pairs_total(cost, _real_pairs(sigma, *cost.shape))


def _tie_gaps(rc: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """G[r, c]: what the cheapest assignment using edge (r, c) costs above
    the optimum, from the reduced costs rc of the padded square matrix."""
    n = rc.shape[0]
    rows = np.arange(n)
    rc[rows, sigma] = 0.0
    np.maximum(rc, 0.0, out=rc)
    # Moving from column a to column b re-matches a's row to b.  Floyd-Warshall
    # over those moves gives D, the alternating-path distances.
    row_of = np.empty(n, dtype=int)
    row_of[sigma] = rows
    dist = rc[row_of]
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    return rc + dist[:, sigma].T


def solve_assignment(cost) -> list[tuple[int, int]]:
    """Solve the rectangular assignment problem.

    Args:
        cost: 2-D array-like of finite costs, rows x cols.

    Returns:
        List of (row, col) pairs sorted by row, exactly min(rows, cols) of
        them, achieving the optimal total.  Among equal-cost optima the
        lexicographically smallest pair list is returned.
    """
    c = _validated_cost(cost)
    n_rows, n_cols = c.shape
    n_pairs = min(n_rows, n_cols)
    sub = _padded(c)
    sigma, u, v = _hungarian(c)
    n = sub.shape[0]
    rows = np.arange(n)
    # at: each row of sub with its column in sigma, and costs its cost there,
    # a padding pair's +0.0, which leaves the row-order total's bits alone.
    at = (rows, np.array(sigma, dtype=int))
    costs = sub[at]
    best_total = sum_in_order(costs[:n_rows])
    c_max = np.abs(sub).max()
    tol = _TIE_RTOL * max(1.0, abs(best_total)) + 2.0 * n_pairs * n_pairs * _EPS * c_max

    # Greedy prefix fixing.  sub is what is left of the padded matrix: rows
    # row.. in order, then padding rows, against the columns `cols`, real
    # ones first; sigma, u and v are its optimum and potentials.
    pairs: list[tuple[int, int]] = []
    partial = 0.0
    cols = list(range(n))
    row = 0
    while len(pairs) < n_pairs:
        m = sub.shape[0]
        k = n_cols - len(pairs)                 # real columns left
        rc = sub - u[:, None] - v
        # spent: what the best completion of the fixed rows costs above the
        # optimum.  band bounds the rounding of spent + G against the totals
        # the tolerance test sums: the drift of the matched edges' reduced
        # costs, the most negative reduced cost, and summation error.
        spent = partial + float(costs.sum()) - best_total
        band = m * (np.abs(rc[at]).max() + max(0.0, -rc.min())) + \
            8.0 * n * n * _EPS * (c_max + np.abs(u).max() + np.abs(v).max())
        rc[at] = np.inf
        # sigma is the answer when every other assignment is over tol for
        # sure: by rc alone, or else by G, which rc bounds from below.
        settled = abs(spent) <= tol - band
        if settled and spent + rc[:n_rows - row, :k].min() > tol + band:
            break
        # gaps: |spent + G| along this row.  Once G has been worked out, a
        # row whose rc keeps every column but sigma's out of reach skips it.
        gaps = np.full(m, np.inf)
        if row == 0 or spent + rc[0].min() <= tol + band:
            g = np.abs(spent + _tie_gaps(rc, at[1]))
            g[at] = np.inf
            if settled and g[:n_rows - row, :k].min() > tol + band:
                break
            gaps = g[0]
        gaps[sigma[0]] = abs(spent)

        def off_by(j: int) -> float:
            # Exact test: re-solve the rows below without column j.
            rest = [cols[x] for x in range(k) if x != j]
            head = float(c[row, cols[j]]) if j < k else 0.0
            return abs(partial + head + _optimal_total(c[row + 1:, rest]) - best_total)

        def fits(j: int) -> bool:
            return gaps[j] <= tol - band or (gaps[j] <= tol + band and off_by(j) <= tol)

        # The smallest real column that fits; else leave the row unassigned
        # (a padding column) if that fits; else, numerical slack, the
        # nearest miss over the real columns.
        skip = [sigma[0] if sigma[0] >= k else k] if m > k else []
        chosen = next((j for j in [*range(k), *skip] if fits(j)), None)
        if chosen is None:
            chosen = min(range(k), key=off_by)
        col = cols.pop(chosen)
        if col < n_cols:
            pairs.append((row, col))
            partial += float(c[row, col])

        # Drop the fixed row and its column; the row that held the column,
        # if another, is matched again along one augmenting path.
        holder = sigma.index(chosen)
        keep = np.arange(m) != chosen
        sub, u, v = sub[1:, keep], u[1:], v[keep]
        sigma = [j - (j > chosen) for j in sigma[1:]]
        row_of = [-1] * (m - 1)
        for r, j in enumerate(sigma):
            if r != holder - 1:
                row_of[j] = r
        if holder > 0:
            sigma[holder - 1] = -1
            _augment(sub, u, v, row_of, sigma, holder - 1)
        row += 1
        at = (rows[:m - 1], np.array(sigma, dtype=int))
        costs = sub[at]
    k = n_cols - len(pairs)
    return pairs + [(row + r, cols[j]) for r, j in enumerate(sigma[:n_rows - row]) if j < k]


def assignment_total(cost, pairs: list[tuple[int, int]]) -> float:
    """Total cost of an assignment, summed in row order."""
    c = _validated_cost(cost)
    return _pairs_total(c, pairs)


def checked_norms(vectors, refusal: str) -> np.ndarray:
    """np.linalg.norm of each row of a 2-D stack, a vector counting as one
    row, refused with ValidationError(refusal) unless every norm is finite
    and positive, so every element finite.  A norm that overflows counts as
    not finite, without numpy's overflow warning: the refusal is the one
    report.  The norm squares before its root, so a nonzero vector whose
    squared norm underflows, such as [1e-200, 1e-200], counts as zero and is
    refused: each cosine in tubekit divides by this norm."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(np.atleast_2d(vectors), axis=1)
    if not ((0.0 < norms) & (norms < np.inf)).all():
        raise ValidationError(refusal)
    return norms


def cos_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosine of each row of `a` with the same row of `b`, and both row norms,
    for (N, D) stacks that pass checked_norms.  On C-ordered rows each value
    has the bits np.dot and np.linalg.norm give on that pair alone."""
    na, nb = (np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]) for x in (a, b))
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0] / (na * nb), na, nb


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between two vectors, whose norms must pass
    checked_norms: cos_pairs of the one pair."""
    ua, va = numbers(u, "u"), numbers(v, "v")
    if ua.shape != va.shape or ua.ndim != 1:
        raise ValidationError(
            f"cosine_similarity needs two 1-D vectors of equal length, got {ua.shape} and {va.shape}"
        )
    checked_norms(np.stack([ua, va]),
                  "cosine_similarity needs vectors whose norm is finite and positive")
    return float(cos_pairs(ua[None], va[None])[0][0])
