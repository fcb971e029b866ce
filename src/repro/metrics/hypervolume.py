"""Exact hypervolume for maximisation fronts in 2-D and 3-D.

The paper's Fig. 6a compares hypervolume coverage of HADAS against the
optimized baselines.  2-D uses the classic sorted sweep; 3-D uses the
dimension-sweep algorithm (sort by one objective, maintain a 2-D front and
accumulate slab volumes), which is exact and O(n² log n) — ample for fronts
of NAS size.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.pareto import pareto_rows


def _hv_2d(points: np.ndarray, reference: np.ndarray) -> float:
    keep = np.all(points > reference, axis=1)
    points = points[keep]
    if len(points) == 0:
        return 0.0
    points = points[pareto_rows(points)]
    order = np.argsort(-points[:, 0], kind="stable")
    points = points[order]
    volume = 0.0
    y_prev = reference[1]
    for x, y in points:
        if y > y_prev:
            volume += (x - reference[0]) * (y - y_prev)
            y_prev = y
    return float(volume)


def _hv_3d(points: np.ndarray, reference: np.ndarray) -> float:
    keep = np.all(points > reference, axis=1)
    points = points[keep]
    if len(points) == 0:
        return 0.0
    points = points[pareto_rows(points)]
    # Sweep descending in z; each slab [z_next, z) contributes the 2-D HV of
    # all points with z' >= z.
    order = np.argsort(-points[:, 2], kind="stable")
    points = points[order]
    volume = 0.0
    active: list[np.ndarray] = []
    z_levels = np.unique(points[:, 2])[::-1]
    idx = 0
    for level_i, z in enumerate(z_levels):
        while idx < len(points) and points[idx, 2] >= z:
            active.append(points[idx, :2])
            idx += 1
        z_next = z_levels[level_i + 1] if level_i + 1 < len(z_levels) else reference[2]
        slab = z - z_next
        if slab > 0 and active:
            volume += slab * _hv_2d(np.asarray(active), reference[:2])
    return float(volume)


def hypervolume(points: np.ndarray, reference: np.ndarray) -> float:
    """Hypervolume dominated by ``points`` above ``reference`` (maximise).

    Points not strictly better than the reference in every objective
    contribute nothing.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    reference = np.asarray(reference, dtype=float)
    if points.shape[1] != len(reference):
        raise ValueError(
            f"points have {points.shape[1]} objectives, reference has {len(reference)}"
        )
    if points.shape[1] == 1:
        best = points.max()
        return float(max(0.0, best - reference[0]))
    if points.shape[1] == 2:
        return _hv_2d(points, reference)
    if points.shape[1] == 3:
        return _hv_3d(points, reference)
    raise NotImplementedError("hypervolume implemented for 1-3 objectives")
