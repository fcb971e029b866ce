"""The exits subspace X: placement indicator vectors conditioned on a backbone.

Paper Table II:  number of exits n_X in [1, (Σ l_i) − 5]; positions in
[5, Σ l_i).  We realise this as an indicator vector over MBConv layer
positions 5 .. L−1 (position L is the backbone's own final classifier), so
``max(n_X) = L − 5`` — consistent with both Table II rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import comb

import numpy as np

from repro.utils.rng import make_rng

#: Earliest legal exit position (paper: from the fifth layer on).
MIN_EXIT_POSITION = 5


@dataclass(frozen=True)
class ExitPlacement:
    """A concrete exit configuration for a backbone of ``total_layers``.

    ``positions`` are 1-based MBConv layer indices, strictly increasing,
    each in [5, total_layers − 1].
    """

    total_layers: int
    positions: tuple[int, ...]

    def __post_init__(self):
        if not self.positions:
            raise ValueError("an exit placement requires at least one exit")
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError(f"positions must be strictly increasing, got {self.positions}")
        lo, hi = MIN_EXIT_POSITION, self.total_layers - 1
        for p in self.positions:
            if not lo <= p <= hi:
                raise ValueError(
                    f"exit position {p} outside [{lo}, {hi}] for a "
                    f"{self.total_layers}-layer backbone"
                )

    @property
    def num_exits(self) -> int:
        return len(self.positions)

    @property
    def indicators(self) -> np.ndarray:
        """Paper-style indicator vector [I_5 .. I_{L-1}] (0/1 ints)."""
        vec = np.zeros(self.total_layers - MIN_EXIT_POSITION, dtype=np.int64)
        vec[np.subtract(self.positions, MIN_EXIT_POSITION)] = 1
        return vec

    @classmethod
    def from_indicators(cls, total_layers: int, indicators: np.ndarray) -> "ExitPlacement":
        """Inverse of :attr:`indicators`."""
        return cls.from_indicator_rows(total_layers, np.asarray(indicators)[None])[0]

    @classmethod
    def from_indicator_rows(
        cls, total_layers: int, bits: np.ndarray
    ) -> list["ExitPlacement"]:
        """One placement per row of an ``(N, slots)`` indicator matrix."""
        positions, widths = indicator_positions(total_layers, bits)
        return [
            cls.unchecked(total_layers, tuple(row[:width]))
            for row, width in zip(positions.tolist(), widths.tolist())
        ]

    @classmethod
    def unchecked(cls, total_layers: int, positions: tuple[int, ...]) -> "ExitPlacement":
        """A placement built via ``__new__`` + ``__dict__``, for positions a
        matrix-wide check has already validated."""
        placement = cls.__new__(cls)
        placement.__dict__.update(total_layers=total_layers, positions=positions)
        return placement

    def relative_depths(self) -> np.ndarray:
        """Exit positions as fractions of the full depth (u_i in (0, 1))."""
        return np.asarray(self.positions, dtype=float) / self.total_layers

    @cached_property
    def key(self) -> str:
        # cached_property writes straight into __dict__, which frozen
        # dataclasses permit — placements are immutable, keys are hot
        # (evaluation caches, oracle memos), so build the string once.
        return "x" + "-".join(str(p) for p in self.positions)


def indicator_positions(total_layers: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`position_matrix` layout of an ``(N, slots)`` indicator
    matrix, rows ascending.

    One check of the matrix (2-D, ``slots`` wide, 0/1 entries, no empty
    row) implies every :class:`ExitPlacement` check of every row.  A stable
    sort of "slot off" moves each row's set slots to its front in slot
    order.
    """
    bits = np.asarray(bits)
    slots = total_layers - MIN_EXIT_POSITION
    if bits.ndim != 2 or bits.shape[1] != slots:
        raise ValueError(f"expected {slots} indicators per row, got shape {bits.shape}")
    invalid = (bits != 0) & (bits != 1)
    if invalid.any():
        row, slot = np.argwhere(invalid)[0].tolist()
        raise ValueError(
            f"indicator gene {slot} of row {row} is {bits[row, slot]}, outside {{0, 1}}"
        )
    widths = np.count_nonzero(bits, axis=1)
    if not widths.all():
        raise ValueError("an exit placement requires at least one exit")
    e_max = int(widths.max()) if len(widths) else 0
    order = np.argsort(bits == 0, axis=1, kind="stable")[:, :e_max]
    valid = np.arange(e_max) < widths[:, None]
    return np.where(valid, order + MIN_EXIT_POSITION, 0), widths


def position_matrix(position_lists) -> tuple[np.ndarray, np.ndarray]:
    """``(N, E_max)`` exit positions with each row padded by 0, and the
    ``(N,)`` row widths.

    ``position_lists`` holds one position sequence per row, or is already
    such a matrix (positions are >= 1, so its widths are its non-zero
    counts).  Both population kernels, accuracy and cost, gather with it.
    """
    if isinstance(position_lists, np.ndarray):
        return position_lists, np.count_nonzero(position_lists, axis=1)
    count = len(position_lists)
    widths = np.fromiter(
        (len(positions) for positions in position_lists), dtype=np.intp, count=count
    )
    e_max = int(widths.max()) if count else 0
    matrix = np.zeros((count, e_max), dtype=np.intp)
    matrix[np.arange(e_max) < widths[:, None]] = np.fromiter(
        chain.from_iterable(position_lists), dtype=np.intp, count=int(widths.sum())
    )
    return matrix, widths


class ExitSpace:
    """The X subspace for a backbone with ``total_layers`` MBConv layers."""

    def __init__(self, total_layers: int):
        if total_layers < MIN_EXIT_POSITION + 1:
            raise ValueError(
                f"backbone must have at least {MIN_EXIT_POSITION + 1} layers to host "
                f"an exit, got {total_layers}"
            )
        self.total_layers = total_layers

    @property
    def num_slots(self) -> int:
        """Number of candidate positions (indicator-vector length)."""
        return self.total_layers - MIN_EXIT_POSITION

    @property
    def max_exits(self) -> int:
        """Paper Table II: max(n_X) = Σ l_i − 5."""
        return self.num_slots

    def cardinality(self) -> int:
        """Number of non-empty exit subsets: 2^slots − 1."""
        return 2**self.num_slots - 1

    def count_with_exits(self, n: int) -> int:
        """Number of placements with exactly ``n`` exits (Table II binomial)."""
        return comb(self.num_slots, n)

    def sample(self, rng=None, density: float = 0.35) -> ExitPlacement:
        """Random placement: each slot on with probability ``density``
        (repaired to ensure at least one exit)."""
        rng = make_rng(rng)
        indicators = (rng.random(self.num_slots) < density).astype(np.int64)
        if indicators.sum() == 0:
            indicators[rng.integers(0, self.num_slots)] = 1
        positions = np.flatnonzero(indicators) + MIN_EXIT_POSITION
        return ExitPlacement.unchecked(self.total_layers, tuple(positions.tolist()))

    def repair(self, indicators: np.ndarray, rng=None) -> np.ndarray:
        """Force validity: at least one active indicator per vector.

        The last axis is the indicator vector, so an ``(N, slots)`` matrix
        repairs N placements; each empty one gets a uniformly drawn slot
        switched on (one draw for all of them).
        """
        indicators = np.asarray(indicators).astype(np.int64).clip(0, 1)
        rows = indicators.reshape(-1, indicators.shape[-1])  # a view of the copy
        empty = np.flatnonzero(~rows.any(axis=1))
        if len(empty):
            rows[empty, make_rng(rng).integers(0, rows.shape[1], size=len(empty))] = 1
        return indicators
