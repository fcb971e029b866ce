"""The Pareto archive of a stream of candidates, built once."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.metrics.pareto import pareto_rows
from repro.search.individual import Individual


class ParetoArchive:
    """The non-dominated members of a stream of evaluated individuals.

    Duplicated genomes are kept once (first wins), and the members keep
    their first-seen order, their objectives mirrored in a stacked float
    matrix.  When a genome determines its objectives (as every search's
    does), inserting one candidate at a time keeps exactly the first
    occurrence of every genome that nothing in the stream strictly
    dominates, in first-seen order; filtering the stream's distinct genomes
    with :func:`~repro.metrics.pareto.pareto_rows` keeps that same set in
    that same order.
    """

    def __init__(self, candidates: Iterable[Individual] = ()):
        first: dict[tuple, Individual] = {}
        for individual in candidates:
            if not individual.evaluated:
                raise ValueError("cannot archive an unevaluated individual")
            first.setdefault(individual.key(), individual)
        distinct = list(first.values())
        objectives = (
            np.stack([np.asarray(ind.objectives, dtype=float) for ind in distinct])
            if distinct
            else np.zeros((0, 0))
        )
        keep = pareto_rows(objectives)
        self._items: list[Individual] = [distinct[i] for i in keep.tolist()]
        self._objs = objectives[keep]  # (len, m) mirror of the members

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def items(self) -> list[Individual]:
        return list(self._items)

    def objectives(self) -> np.ndarray:
        """Stacked objective matrix of the archive (n, m)."""
        if not self._items:
            return np.zeros((0, 0))
        return self._objs.copy()

    def best_by(self, scalarizer) -> Individual:
        """Archive member maximising ``scalarizer(individual)``."""
        if not self._items:
            raise ValueError("archive is empty")
        return max(self._items, key=scalarizer)
