"""Cost tables: one network's per-layer costs at every DVFS setting, stacked.

A paper-budget inner run performs thousands of dynamic evaluations, and each
one used to re-walk the backbone prefix layer by layer in Python for every
exit — an O(layers × exits) loop whose per-layer terms depend only on
``(layer, setting)``.  The tables precompute those terms once: roofline
time, busy time, dispatch overhead and the four rail-energy contributions
per layer, plus their cumulative sums.  A backbone prefix report then
becomes a cumsum lookup at the prefix index, and an early-exit path costs
one precomputed scalar per traversed exit branch — O(exits) array work per
candidate.

A :class:`CostTableBank` holds the tables of the platform's whole
core × EMC grid — every setting the inner engine's two DVFS genes decode
to — as one stacked (setting × layer) bank, beside the scalar terms of
every legal exit branch.  The bank is built once, on first use, in one
broadcast pass over a column of per-setting scalars (rate factor,
bandwidth, dispatch overhead and the four rail powers), and never grows:
a setting off the grid or a position without an exit branch raises
``ValueError``.  A population of (placement, setting) rows — an NSGA
generation mixes settings freely — is then costed by one gather at the
flat index ``setting_row · L + prefix``
(:mod:`repro.hardware.population_kernel`).  A :class:`SettingCostTable` is
the view of one grid row that the scalar evaluator, the planners and the
serving ladder read.

Bit-identity contract: every number a table produces equals the reference
per-layer loop bit for bit (that loop is the executable spec in
``tests/spec/hardware.py``; the dynamic evaluator's per-layer twin is in
``tests/spec/evaluation.py``).
Each grid element is the float64 expression the one-setting kernel
evaluates; ``np.cumsum`` sums strictly left to right along the layer axis
(matching the loop's accumulator), the memory rail's two per-layer terms
are interleaved before summation to preserve their in-loop addition order
(float addition is not associative), and branch scalars are added to the
gathered prefix values in the exact sequence the loop appends branch
layers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.arch.cost import LayerCost, NetworkCost
from repro.hardware.dvfs import DvfsSetting, DvfsSpace
from repro.obs import trace
from repro.hardware.energy import EnergyModel, PathProfile, interleaved_cumsum


@dataclass(frozen=True)
class BranchTerms:
    """Scalar cost terms of one exit branch at one DVFS setting."""

    total_s: float
    busy_s: float
    overhead_s: float
    core_j: float
    mem_dyn_j: float
    mem_bg_j: float
    static_j: float


#: Per-layer term names; a grid's branch arrays are keyed by them.
_BRANCH_FIELDS = tuple(f.name for f in fields(BranchTerms))


def _layer_terms(
    model: EnergyModel, layers: Sequence[LayerCost], settings: Sequence[DvfsSetting]
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-layer cost terms of ``layers`` at every setting, in one pass.

    Returns ``({term name: (S, n) matrix}, (S,) passive power)``.  The
    per-setting operands come from the one-setting scalar functions
    (:meth:`EnergyModel.table_scalars`, memoised per setting) as ``(S, 1)``
    columns, so row ``s`` is bit-identical to timing ``layers`` at
    ``settings[s]`` alone.
    """
    count = len(layers)
    macs = np.fromiter((layer.macs for layer in layers), dtype=np.float64, count=count)
    traffic = np.fromiter(
        (layer.traffic_bytes for layer in layers), dtype=np.float64, count=count
    )
    scalars = np.array([model.table_scalars(s) for s in settings], dtype=np.float64)
    rate, bandwidth, overhead, core_w, mem_w, mem_bg_w, static_w = np.hsplit(
        scalars.reshape(len(settings), 7), 7
    )
    timing = model.latency.scalar_timing(macs, traffic, rate, bandwidth, overhead)
    core, mem_dyn, mem_bg, static = model.power_energy_terms(
        timing, core_w, mem_w, mem_bg_w, static_w
    )
    terms = {
        "total_s": timing.total_s,
        "busy_s": timing.busy_s,
        "overhead_s": timing.overhead_s,
        "core_j": core,
        "mem_dyn_j": mem_dyn,
        "mem_bg_j": mem_bg,
        "static_j": static,
    }
    return terms, (static_w + mem_bg_w)[:, 0]


class _CostGrid:
    """Stacked cost tables of one network, one row per DVFS setting.

    ``cum[name]`` holds ``(S, L)`` cumulative per-layer terms: ``total``,
    ``core``, ``mem`` and ``static`` for reports and path costs, ``busy``,
    ``overhead`` and ``dynamic`` for path profiles.  ``branch[term]`` holds
    ``(S, P + 1)`` exit-branch terms indexed by MBConv position; column 0
    is the all-zero padding sentinel, and ``branched[p]`` is true for the
    sentinel and every position with a branch.  No value changes after
    construction (a population kernel may swap in equal views).
    """

    __slots__ = ("settings", "rows", "cum", "branch", "branched", "passive_power_w")

    def __init__(
        self,
        model: EnergyModel,
        cost: NetworkCost,
        settings: list[DvfsSetting],
        branch_layers: dict[int, LayerCost],
        width: int,
    ):
        """Rows for ``settings``: the backbone and every branch in one pass."""
        n = len(cost.layers)
        terms, passive = _layer_terms(
            model, cost.layers + list(branch_layers.values()), settings
        )
        layer = {name: matrix[:, :n] for name, matrix in terms.items()}
        self.settings = settings
        self.rows = {(s.core_ghz, s.emc_ghz): row for row, s in enumerate(settings)}
        self.cum = {
            "total": np.cumsum(layer["total_s"], axis=1),
            "core": np.cumsum(layer["core_j"], axis=1),
            "mem": np.ascontiguousarray(
                interleaved_cumsum(layer["mem_dyn_j"], layer["mem_bg_j"])
            ),
            "static": np.cumsum(layer["static_j"], axis=1),
            # Path-profile accumulators (see :class:`~repro.hardware.energy.
            # PathProfile`): busy/overhead split and the dynamic-rail energy
            # (core and mem_dyn interleaved, matching the reference
            # profile's per-layer addition order).
            "busy": np.cumsum(layer["busy_s"], axis=1),
            "overhead": np.cumsum(layer["overhead_s"], axis=1),
            "dynamic": np.ascontiguousarray(
                interleaved_cumsum(layer["core_j"], layer["mem_dyn_j"])
            ),
        }
        columns = list(branch_layers)
        self.branch = {}
        for name, matrix in terms.items():
            block = np.zeros((len(settings), width))
            block[:, columns] = matrix[:, n:]
            self.branch[name] = block
        self.branched = np.zeros(width, dtype=bool)
        self.branched[0] = True
        self.branched[columns] = True
        self.passive_power_w = passive


class SettingCostTable:
    """Precomputed per-layer cost vectors of one network at one setting.

    Cumulative arrays are indexed like ``cost.layers``; ``cum_*[i]`` is the
    reference loop's accumulator value after processing layer ``i``.  Exit
    branches are per-position scalars read off the grid row — one branch
    profile per position, which holds by construction (the evaluator
    derives the branch from the backbone's channels at that position).

    A table is the view of one grid row; :meth:`CostTableBank.table` hands
    out the views of its bank's rows.  Paths are indexed like a
    placement's ``positions``: path ``i < E`` leaves at exit ``i`` and
    path ``E`` runs the full network, each after every branch it passes.
    """

    def __init__(
        self, cost: NetworkCost, setting: DvfsSetting, grid: _CostGrid, row: int
    ):
        self.setting = setting
        self.cost = cost
        cum = grid.cum
        self.cum_total = cum["total"][row]
        self.cum_core = cum["core"][row]
        self.cum_mem = cum["mem"][row]
        self.cum_static = cum["static"][row]
        # Serving-ladder construction reads the path-profile accumulators
        # instead of re-walking layers through the timing kernel.
        self.cum_busy = cum["busy"][row]
        self.cum_overhead = cum["overhead"][row]
        self.cum_dynamic = cum["dynamic"][row]
        self.passive_power_w = float(grid.passive_power_w[row])
        columns = (np.flatnonzero(grid.branched[1:]) + 1).tolist()
        values = zip(
            *(grid.branch[name][row, columns].tolist() for name in _BRANCH_FIELDS)
        )
        self._branch = {
            position: BranchTerms(*terms) for position, terms in zip(columns, values)
        }

    def prefix_end(self, position: int) -> int:
        """Cumulative-array index of the prefix ending at MBConv ``position``."""
        return self.cost.prefix_end(position)

    def _branches(self, positions: Iterable[int]) -> list[BranchTerms]:
        """The branch terms of ``positions``, in order."""
        branch = self._branch
        try:
            return [branch[p] for p in positions]
        except KeyError as missing:
            raise ValueError(f"no exit branch at position {missing.args[0]}") from None

    def path_costs(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """``(energy_j, latency_s)`` arrays of a placement's E + 1 paths.

        Element ``i`` covers the backbone prefix up to ``positions[i]`` (the
        whole backbone for ``i = E``) plus the branches at
        ``positions[: i + 1]`` — gathered from the cumulative arrays, then
        branch scalars added in exactly the order the reference loop
        appends branch layers (branch ``j`` lands on every path ``i >= j``
        before branch ``j + 1`` does).
        """
        branches = self._branches(positions)
        ends = [self.prefix_end(p) for p in positions]
        ends.append(len(self.cum_total) - 1)
        indices = np.array(ends, dtype=np.intp)
        latency = self.cum_total[indices]
        core = self.cum_core[indices]
        mem = self.cum_mem[indices]
        static = self.cum_static[indices]
        for j, terms in enumerate(branches):
            latency[j:] += terms.total_s
            core[j:] += terms.core_j
            mem[j:] += terms.mem_dyn_j
            mem[j:] += terms.mem_bg_j
            static[j:] += terms.static_j
        return core + mem + static, latency

    def path_profile(self, positions: Sequence[int], index: int) -> PathProfile:
        """Batch-decomposable profile of path ``index`` (``E``: the full
        network).

        Bit-identical to profiling the layer walk: the gathered cumulative
        values continue the reference cumsums, and branch scalars are added
        in the loop's append order (core before mem_dyn per branch,
        preserving the dynamic rail's interleave).
        """
        end = self.prefix_end(positions[index]) if index < len(positions) else -1
        busy = float(self.cum_busy[end])
        overhead = float(self.cum_overhead[end])
        dynamic = float(self.cum_dynamic[end])
        for terms in self._branches(positions[: index + 1]):
            busy += terms.busy_s
            overhead += terms.overhead_s
            dynamic += terms.core_j
            dynamic += terms.mem_dyn_j
        return PathProfile(
            busy_s=busy,
            overhead_s=overhead,
            dynamic_energy_j=dynamic,
            passive_power_w=self.passive_power_w,
        )


class CostTableBank:
    """One network's cost tables over the platform's whole DVFS grid.

    One bank lives for a whole inner run (it hangs off the run's
    :class:`~repro.eval.dynamic.DynamicEvaluator`), so the thousands of
    (placement, setting) evaluations share one grid.  The first request
    builds every core × EMC setting's row in one broadcast pass, under a
    lock so thread-executor runs sharing a bank build it once; later
    requests read it without the lock.

    ``branch_provider`` (a callable returning ``(position, branch
    LayerCost)`` pairs, called once by the build) names the exit branches
    timed alongside the backbone: every position a caller may name.
    ``prefix_index[p]`` is the cumulative-array index of MBConv position
    ``p``'s prefix (0 for the padding sentinel ``p = 0``).
    """

    def __init__(
        self,
        model: EnergyModel,
        cost: NetworkCost,
        branch_provider: Callable[[], Iterable[tuple[int, LayerCost]]],
    ):
        self.model = model
        self.cost = cost
        self._branch_provider = branch_provider
        # One entry per branch column: the sentinel plus every MBConv position.
        width = max((layer.index for layer in cost.mbconv_layers()), default=0) + 1
        self.prefix_index = np.zeros(width, dtype=np.intp)
        for position in range(1, len(self.prefix_index)):
            self.prefix_index[position] = cost.prefix_end(position)
        self._grid: _CostGrid | None = None
        self._tables: dict[tuple[float, float], SettingCostTable] = {}
        self._lock = threading.Lock()

    def _build(self) -> _CostGrid:
        """The grid, built on the first call (under the lock)."""
        with self._lock:
            if self._grid is None:
                settings = DvfsSpace(self.model.platform).all_settings()
                with trace.span("cost_table.build", rows=len(settings)):
                    self._grid = _CostGrid(
                        self.model,
                        self.cost,
                        settings,
                        dict(self._branch_provider()),
                        len(self.prefix_index),
                    )
                trace.count("cost_table.builds")
                # The provider is usually a bound method of the bank's
                # owner; dropping it breaks that reference cycle.
                self._branch_provider = None
        return self._grid

    def rows(self, settings: Sequence[DvfsSetting]) -> tuple[_CostGrid, np.ndarray]:
        """The grid and the grid row of each of ``settings``; a setting off
        the grid raises ``ValueError``."""
        grid = self._grid
        if grid is None:
            grid = self._build()
        lookup = grid.rows
        try:
            rows = [lookup[(s.core_ghz, s.emc_ghz)] for s in settings]
        except KeyError:
            off = next(s for s in settings if (s.core_ghz, s.emc_ghz) not in lookup)
            raise ValueError(
                f"{off!r} is not on the {self.model.platform.key} DVFS grid"
            ) from None
        return grid, np.asarray(rows, dtype=np.intp)

    def table(self, setting: DvfsSetting) -> SettingCostTable:
        """The per-setting view of ``setting``'s grid row.

        Thread-safe: a seen setting costs one dict lookup, and racing first
        requests all receive the one view ``setdefault`` keeps.
        """
        key = (setting.core_ghz, setting.emc_ghz)
        table = self._tables.get(key)
        if table is None:
            grid, rows = self.rows([setting])
            table = self._tables.setdefault(
                key, SettingCostTable(self.cost, setting, grid, int(rows[0]))
            )
        return table

    def __len__(self) -> int:
        """Number of settings whose table views were handed out so far."""
        return len(self._tables)
