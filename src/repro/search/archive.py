"""A Pareto archive of every non-dominated candidate seen during a run."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.metrics.pareto import non_dominated_mask
from repro.search.individual import Individual

#: Candidates merged per dominance pass in :meth:`ParetoArchive.add_all`.
_MERGE_BLOCK = 64


class ParetoArchive:
    """Maintains the non-dominated set over a stream of individuals.

    Duplicated genomes are kept once (first wins).  Members keep their
    first-seen order, and their objectives are mirrored in a stacked float
    matrix.

    :meth:`add_all` merges the stream in blocks of :data:`_MERGE_BLOCK`
    candidates, one :func:`~repro.metrics.pareto.non_dominated_mask` over
    members plus block each.  When a genome determines its objectives (as
    every search's does), inserting one candidate at a time keeps exactly
    the first occurrence of every genome that nothing seen strictly
    dominates, in first-seen order — and block-by-block filtering keeps
    that same set in that same order.  Blocks rather than one pass keep
    each mask at (archive + block)² comparisons instead of (stream)².
    """

    def __init__(self):
        self._items: list[Individual] = []
        self._keys: set[tuple] = set()
        self._objs: np.ndarray | None = None  # (len, m) mirror of the members

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

    def add(self, individual: Individual) -> bool:
        """Insert if non-dominated; evict newly dominated members.

        Returns True when the individual enters the archive.
        """
        return self.add_all([individual]) == 1

    def add_all(self, individuals: list[Individual]) -> int:
        """Insert many; returns how many entered.

        A candidate that a later one in its own block dominates never
        counts as entering.
        """
        if any(not ind.evaluated for ind in individuals):
            raise ValueError("cannot archive an unevaluated individual")
        if not individuals:
            return 0
        return self.add_rows(
            [ind.key() for ind in individuals],
            np.stack([np.asarray(ind.objectives, dtype=float) for ind in individuals]),
            individuals.__getitem__,
        )

    def add_rows(
        self, keys: list[tuple], objectives: np.ndarray, build: Callable[[int], Individual]
    ) -> int:
        """:meth:`add_all` over candidates given as rows.

        Candidate ``i`` has genome key ``keys[i]`` (as
        :meth:`Individual.key`) and objective row ``objectives[i]``;
        ``build(i)`` makes its :class:`Individual`, and runs only for the
        candidates that enter.
        """
        entered = 0
        for start in range(0, len(keys), _MERGE_BLOCK):
            entered += self._merge(keys, objectives, build, start, start + _MERGE_BLOCK)
        return entered

    def _merge(self, keys, objectives, build, start: int, stop: int) -> int:
        """One block: first occurrence of each new genome, one dominance pass."""
        fresh: dict[tuple, int] = {}
        for i, key in enumerate(keys[start:stop], start):
            if key not in self._keys and key not in fresh:
                fresh[key] = i
        if not fresh:
            return 0
        candidates = objectives[list(fresh.values())]
        merged = candidates if self._objs is None else np.concatenate([self._objs, candidates])
        keep = non_dominated_mask(merged)
        members = len(self._items)
        entering = keep[members:]
        if members:
            evicted = np.flatnonzero(~keep[:members])
            self._keys.difference_update(self._items[i].key() for i in evicted)
            self._items = [self._items[i] for i in np.flatnonzero(keep[:members])]
        for (key, i), enters in zip(fresh.items(), entering.tolist()):
            if enters:
                self._items.append(build(i))
                self._keys.add(key)
        self._objs = merged[keep]
        return int(entering.sum())

    def front(self) -> np.ndarray:
        """Objective matrix (already non-dominated by construction)."""
        objs = self.objectives()
        if objs.size == 0:
            return objs
        return objs[non_dominated_mask(objs)]

    def best_by(self, scalarizer) -> Individual:
        """Archive member maximising ``scalarizer(individual)``."""
        if not self._items:
            raise ValueError("archive is empty")
        return max(self._items, key=scalarizer)
