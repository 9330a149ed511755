"""Minimum-cost bipartite assignment with deterministic tie-breaking.

The core solver is scipy's linear_sum_assignment.  On top of it we pin down
which optimum is returned: among all assignments of minimal total cost, the
lexicographically smallest (row, col) pair list wins.  Rectangular matrices
are supported directly; only min(rows, cols) pairs are produced.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Sub-solutions within this tolerance of the optimal total are treated as
# ties during lexicographic refinement.  Summation-order noise is a few ulps;
# genuine cost gaps on real data are many orders larger.
_TIE_RTOL = 1e-9


def _validated_cost(cost) -> np.ndarray:
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
        raise ValidationError(f"cost matrix must be 2-D and non-empty, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValidationError("cost matrix contains non-finite entries")
    return c


def _pairs_total(cost: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    # Row-order summation, so equal pair sets always produce identical floats.
    total = 0.0
    for r, c in pairs:
        total += float(cost[r, c])
    return total


def _optimal_total(cost: np.ndarray) -> float:
    # Imported here, not at module top: scipy.optimize takes most of a second
    # to import, and only subcommands that assign should pay for it.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return _pairs_total(cost, list(zip(rows.tolist(), cols.tolist())))


def solve_assignment(cost, maximize: bool = False) -> list[tuple[int, int]]:
    """Solve the rectangular assignment problem.

    Args:
        cost: 2-D array-like of finite costs, rows x cols.
        maximize: if True, maximize total similarity instead (the matrix is
            negated internally; tie-breaking still applies to the result).

    Returns:
        List of (row, col) pairs sorted by row, exactly min(rows, cols) of
        them, achieving the optimal total.  Among equal-cost optima the
        lexicographically smallest pair list is returned.
    """
    c = _validated_cost(cost)
    if maximize:
        c = -c
    n_rows, n_cols = c.shape
    n_pairs = min(n_rows, n_cols)
    best_total = _optimal_total(c)

    # Greedy prefix fixing: walk rows in order, give each the smallest column
    # that still admits an optimal completion.  A row may stay unassigned only
    # when rows outnumber columns.
    pairs: list[tuple[int, int]] = []
    partial = 0.0
    free_cols = list(range(n_cols))
    row = 0
    while len(pairs) < n_pairs and row < n_rows:
        rows_left_after = n_rows - row - 1
        tol = _TIE_RTOL * max(1.0, abs(best_total))
        chosen = None
        fallback = None
        fallback_gap = np.inf
        for ci, col in enumerate(free_cols):
            need = n_pairs - len(pairs) - 1
            if need > 0:
                if rows_left_after < need:
                    break  # not enough rows left to finish; cannot assign this row
                sub = c[np.ix_(range(row + 1, n_rows), [x for x in free_cols if x != col])]
                completion = _optimal_total(sub)
            else:
                completion = 0.0
            total = partial + float(c[row, col]) + completion
            gap = abs(total - best_total)
            if gap <= tol:
                chosen = ci
                break
            if gap < fallback_gap:
                fallback_gap = gap
                fallback = ci
        if chosen is None and n_rows <= n_cols:
            # Every row must be assigned; numerical slack forced us here.
            chosen = fallback
        if chosen is None:
            # rows > cols: check whether skipping this row keeps the optimum.
            sub = c[np.ix_(range(row + 1, n_rows), free_cols)]
            skip_total = partial + _optimal_total(sub)
            if abs(skip_total - best_total) <= tol or fallback is None:
                row += 1
                continue
            chosen = fallback
        col = free_cols.pop(chosen)
        pairs.append((row, col))
        partial += float(c[row, col])
        row += 1
    return pairs


def assignment_total(cost, pairs: list[tuple[int, int]]) -> float:
    """Total cost of an assignment, summed in row order."""
    c = _validated_cost(cost)
    return _pairs_total(c, pairs)


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between two vectors; rejects zero-norm inputs."""
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    if ua.shape != va.shape or ua.ndim != 1:
        raise ValidationError(
            f"cosine_similarity needs two 1-D vectors of equal length, got {ua.shape} and {va.shape}"
        )
    if not (np.all(np.isfinite(ua)) and np.all(np.isfinite(va))):
        raise ValidationError("cosine_similarity: non-finite input")
    nu = float(np.linalg.norm(ua))
    nv = float(np.linalg.norm(va))
    if nu == 0.0 or nv == 0.0:
        raise ValidationError("cosine_similarity undefined for zero-norm vectors")
    return float(np.dot(ua, va) / (nu * nv))


def cosine_similarity_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities between two stacks of row vectors."""
    a = np.asarray(rows, dtype=float)
    b = np.asarray(cols, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"expected (n, d) and (m, d) feature stacks, got {a.shape} and {b.shape}"
        )
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValidationError("feature stack contains a zero-norm vector")
    return (a @ b.T) / np.outer(na, nb)
