"""Search individuals: genome + objectives + payload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass(eq=False)
class Individual:
    """One evaluated candidate in a population.

    Equality is identity (``eq=False``): genomes are numpy arrays, so
    field-wise dataclass equality would be ill-defined; use :meth:`key`
    to compare genome content.

    Attributes
    ----------
    genome:
        Integer decision vector (meaning defined by the owning problem).
    objectives:
        Maximisation objective vector (filled by evaluation).
    payload:
        Problem-specific artefacts (decoded config, evaluations, ...).
    rank, crowding:
        NSGA-II bookkeeping (front index, crowding distance).
    """

    genome: np.ndarray
    objectives: np.ndarray | None = None
    payload: dict[str, Any] = field(default_factory=dict)
    rank: int = -1
    crowding: float = 0.0

    @property
    def evaluated(self) -> bool:
        return self.objectives is not None

    def key(self) -> tuple:
        """Hashable genome identity (for de-duplication).

        ``ndarray.tolist`` yields the same Python ints as a per-element
        ``int(g)`` generator, in one C call.  Archives key their members
        by it; the NSGA-II engine keys its evaluation table by genome
        bytes instead and builds individuals only for the rows asked for.
        """
        genome = self.genome
        if isinstance(genome, np.ndarray):
            return tuple(genome.tolist())
        return tuple(int(g) for g in genome)
