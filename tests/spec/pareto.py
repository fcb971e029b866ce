"""Spec of the Pareto primitives: Deb's pairwise loops.

:func:`repro.metrics.pareto.non_dominated_sort` and
:func:`~repro.metrics.pareto.non_dominated_mask` compute the same fronts
from one dominance matrix; these are the N² :func:`dominates` loops they
must match index for index and order for order.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.pareto import dominates


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the Pareto-optimal rows of ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        ge = np.all(points >= points[i], axis=1)
        gt = np.any(points > points[i], axis=1)
        dominated_by = ge & gt
        if dominated_by.any():
            mask[i] = False
    return mask


def non_dominated_sort(points: np.ndarray, bound: int | None = None) -> list[np.ndarray]:
    """Deb's fast non-dominated sort: index arrays, best front first.

    With ``bound``, fronts stop once they hold ``bound`` rows or more.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(points[i], points[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(points[j], points[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: list[np.ndarray] = []
    covered = 0
    bound = n if bound is None else bound
    current = np.flatnonzero(domination_count == 0)
    while covered < bound and len(current):
        fronts.append(current)
        covered += len(current)
        next_front: list[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current = np.asarray(sorted(next_front), dtype=int)
    return fronts
