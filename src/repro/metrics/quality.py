"""Additional front-quality metrics: IGD and knee-point selection.

Inverted generational distance (IGD) measures how well a front approximates
a reference front; knee-point selection picks the best-trade-off solution —
the decision rule deployment engineers actually use on a 2-D front.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.pareto import pareto_rows


def inverted_generational_distance(front: np.ndarray, reference: np.ndarray) -> float:
    """Mean distance from each reference point to its nearest front point.

    Lower is better; 0 means the front covers the reference exactly.  Both
    inputs are (n, m) objective matrices in the same (maximisation) scale.
    """
    front = np.atleast_2d(np.asarray(front, dtype=float))
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    if front.shape[1] != reference.shape[1]:
        raise ValueError(
            f"front has {front.shape[1]} objectives, reference {reference.shape[1]}"
        )
    if len(front) == 0:
        return float("inf")
    distances = np.linalg.norm(
        reference[:, None, :] - front[None, :, :], axis=2
    ).min(axis=1)
    return float(distances.mean())


def knee_point(points: np.ndarray) -> int:
    """Index of the knee of a 2-D maximisation front.

    The knee is the Pareto point farthest *above* the chord joining the two
    objective extremes — the solution where giving up either objective
    starts costing disproportionately.  Degenerate fronts (single point,
    collinear chord) fall back to the utopia-closest point.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 2:
        raise ValueError("knee_point is defined for 2-D fronts")
    front_idx = pareto_rows(points)
    front = points[front_idx]
    if len(front) == 1:
        return int(front_idx[0])

    lo = front[np.argmin(front[:, 0])]
    hi = front[np.argmax(front[:, 0])]
    chord = hi - lo
    norm = np.linalg.norm(chord)
    if norm < 1e-12:
        # Collinear/degenerate: pick utopia-closest on the full front.
        utopia = front.max(axis=0)
        spans = np.maximum(front.max(axis=0) - front.min(axis=0), 1e-12)
        distance = np.linalg.norm((utopia - front) / spans, axis=1)
        return int(front_idx[int(np.argmin(distance))])
    # Signed perpendicular offset from the chord; the knee bulges toward
    # the utopia direction (positive side for a maximisation front).
    direction = chord / norm
    deltas = front - lo
    offsets = direction[0] * deltas[:, 1] - direction[1] * deltas[:, 0]
    return int(front_idx[int(np.argmax(np.abs(offsets)))])
