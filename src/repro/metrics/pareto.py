"""Pareto dominance primitives (maximisation convention).

These back both the NSGA-II engines and the evaluation metrics.  The
non-dominated sort is the O(M N²) fast-non-dominated-sort of Deb et al.;
the pairwise dominance tests run as one broadcast comparison matrix
(row-blocked so huge archives never materialise an (N, N, M) tensor)
instead of N² Python-level :func:`dominates` calls — at paper-budget IOE
scale the scalar loop was the single largest line in the profile.

Bit-identity contract: dominance is pure float comparison (no arithmetic),
so the matrix path partitions points into *exactly* the fronts of Deb's
pairwise loop, in the same within-front index order (``np.flatnonzero`` is
ascending, as is the loop's ``sorted``).  The loops themselves live on as
the executable spec in ``tests/spec/pareto.py``.
"""

from __future__ import annotations

import numpy as np


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` (>= everywhere, > somewhere)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective vectors differ in shape: {a.shape} vs {b.shape}")
    return bool(np.all(a >= b) and np.any(a > b))


def _pairwise_ge(points: np.ndarray) -> np.ndarray:
    """``ge[i, j] = all(points[i] >= points[j])``, one objective at a time.

    Each objective contributes one (block, N) ``>=`` matrix, ANDed into the
    result in place — exact comparisons, no (N, N, M) temporary.  Row blocks
    bound each comparison matrix to a few MB no matter how large the point
    set grows (archive-scale calls pass thousands of rows).
    """
    n, m = points.shape
    ge = np.empty((n, n), dtype=bool)
    if m == 0:
        ge.fill(True)
        return ge
    columns = np.ascontiguousarray(points.T)
    step = max(1, 4_000_000 // max(1, n))
    for start in range(0, n, step):
        rows = ge[start : start + step]
        np.greater_equal.outer(columns[0, start : start + step], columns[0], out=rows)
        for column in columns[1:]:
            rows &= np.greater_equal.outer(column[start : start + step], column)
    return ge


def dominance_matrix(points: np.ndarray) -> np.ndarray:
    """Boolean ``D[i, j]`` — row ``i`` Pareto-dominates row ``j``.

    ``any(a > b)`` is equivalent to ``not all(b >= a)``, so one >= matrix
    serves both halves of the dominance test: ``D = ge & ~ge.T``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ge = _pairwise_ge(points)
    return ge & ~ge.T


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of Pareto-optimal rows of ``points`` (n, m).

    Duplicates of a Pareto point are all retained (none strictly dominates
    the others).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        return np.zeros(0, dtype=bool)
    return ~dominance_matrix(points).any(axis=0)


#: Rows merged into the kept front per dominance pass in :func:`pareto_rows`.
_BLOCK = 64


def pareto_rows(points: np.ndarray) -> np.ndarray:
    """Ascending ids of the rows of ``points`` that no row strictly dominates.

    ``np.flatnonzero(non_dominated_mask(points))``, computed by merging
    blocks of :data:`_BLOCK` rows into the front kept so far, one mask per
    block.  Strict dominance is transitive, so a row dominated by a dropped
    row is also dominated by a kept one, and each mask stays at
    (front + block)² comparisons instead of (rows)².
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    front = np.zeros(0, dtype=np.int64)
    for start in range(0, len(points), _BLOCK):
        rows = np.concatenate([front, np.arange(start, min(start + _BLOCK, len(points)))])
        front = rows[non_dominated_mask(points[rows])]
    return front


def pareto_front(points: np.ndarray) -> np.ndarray:
    """The Pareto-optimal subset of ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return points[pareto_rows(points)]


def non_dominated_sort(points: np.ndarray, bound: int | None = None) -> list[np.ndarray]:
    """Deb's fast non-dominated sort: list of index arrays, best front first.

    One dominance matrix replaces the N² scalar :func:`dominates` calls;
    the front peel then works on integer domination counts — subtracting
    each assigned front's column sums uncovers the next front, exactly
    Deb's decrement loop in matrix form.

    ``bound`` stops the peel once the fronts hold ``bound`` rows or more:
    the result is then the leading fronts of the full sort that first
    cover ``bound`` (NSGA-II's truncation never looks past them).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    bound = n if bound is None else bound
    if n == 0:
        return []
    matrix = dominance_matrix(points)
    domination_count = matrix.sum(axis=0)
    fronts: list[np.ndarray] = []
    covered = 0
    assigned = np.zeros(n, dtype=bool)
    current = domination_count == 0
    while covered < bound and current.any():
        front = np.flatnonzero(current)
        fronts.append(front)
        covered += len(front)
        assigned |= current
        domination_count = domination_count - matrix[front].sum(axis=0)
        current = (domination_count == 0) & ~assigned
    return fronts


def crowding_distance(points: np.ndarray, fronts: np.ndarray | None = None) -> np.ndarray:
    """NSGA-II crowding distance of each row (inf at objective extremes).

    ``fronts`` gives each row's front id; distances are measured within
    each front (``None``: all rows form one front).  Every front is handled
    in one pass per objective: a stable ``lexsort`` by (front, value)
    lays the fronts out one after another, each in exactly the order a
    per-front stable ``argsort`` gives, so the gaps, the spans and the
    order of the additions — and hence every distance — are bitwise those
    of a loop over the fronts.  Fronts of one or two rows are all extremes.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = points.shape
    fronts = np.zeros(n, dtype=np.int64) if fronts is None else np.asarray(fronts)
    if n == 0:
        return np.zeros(0)
    distance = np.where(np.bincount(fronts)[fronts] <= 2, np.inf, 0.0)
    position = np.arange(n)
    for k in range(m):
        order = np.lexsort((points[:, k], fronts))
        values = points[order, k]
        front = fronts[order]
        start = np.searchsorted(front, front, side="left")
        end = np.searchsorted(front, front, side="right") - 1
        extreme = (position == start) | (position == end)
        distance[order[extreme]] = np.inf
        span = values[end] - values[start]
        interior = np.flatnonzero(~extreme & ~(span <= 0))
        distance[order[interior]] += (values[interior + 1] - values[interior - 1]) / span[interior]
    return distance
