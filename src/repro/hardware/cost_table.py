"""Cost tables: one network's per-layer costs at every DVFS setting, stacked.

A paper-budget inner run performs thousands of dynamic evaluations, and each
one used to re-walk the backbone prefix layer by layer in Python for every
exit — an O(layers × exits) loop whose per-layer terms depend only on
``(layer, setting)``.  The tables precompute those terms once: roofline
time, busy time, dispatch overhead and the four rail-energy contributions
per layer, plus their cumulative sums.  A backbone prefix report then
becomes a cumsum lookup at the prefix index, and an early-exit path costs
one cached scalar per traversed exit branch — O(exits) array work per
candidate.

A :class:`CostTableBank` holds the tables of the platform's whole
core × EMC grid as one stacked (setting × layer) bank, built on first use
in one broadcast pass over a column of per-setting scalars (rate factor,
bandwidth, dispatch overhead and the four rail powers).  A population of
(placement, setting) rows — an NSGA generation mixes settings freely — is
then costed by one gather at the flat index ``setting_row · L + prefix``
(:mod:`repro.hardware.population_kernel`).  A :class:`SettingCostTable` is
the view of one grid row that planners and the serving ladder read.

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
import time
from dataclasses import dataclass, fields
from typing import Callable, Sequence

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
    is the all-zero padding sentinel, and a column is valid once
    ``filled``.  Rows are never rewritten: a bank appends rows into a new
    grid, so a reader's grid stays valid.
    """

    __slots__ = ("settings", "rows", "cum", "branch", "filled", "passive_power_w")

    def __init__(
        self,
        settings: list[DvfsSetting],
        cum: dict[str, np.ndarray],
        branch: dict[str, np.ndarray],
        filled: np.ndarray,
        passive_power_w: np.ndarray,
    ):
        self.settings = settings
        self.rows = {(s.core_ghz, s.emc_ghz): row for row, s in enumerate(settings)}
        self.cum = cum
        self.branch = branch
        self.filled = filled
        self.passive_power_w = passive_power_w

    @classmethod
    def build(
        cls,
        model: EnergyModel,
        cost: NetworkCost,
        settings: list[DvfsSetting],
        branch_layers: dict[int, LayerCost],
        width: int,
    ) -> "_CostGrid":
        """Rows for ``settings``: the backbone and every branch in one pass."""
        n = len(cost.layers)
        terms, passive = _layer_terms(
            model, cost.layers + list(branch_layers.values()), settings
        )
        layer = {name: matrix[:, :n] for name, matrix in terms.items()}
        cum = {
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
        branch = {}
        for name, matrix in terms.items():
            block = np.zeros((len(settings), width))
            block[:, columns] = matrix[:, n:]
            branch[name] = block
        filled = np.zeros(width, dtype=bool)
        filled[0] = True
        filled[columns] = True
        return cls(settings, cum, branch, filled, passive)

    def append(self, block: "_CostGrid") -> "_CostGrid":
        """A new grid with ``block``'s rows (same branch columns) below ours."""
        return _CostGrid(
            self.settings + block.settings,
            {name: np.concatenate((m, block.cum[name])) for name, m in self.cum.items()},
            {
                name: np.concatenate((m, block.branch[name]))
                for name, m in self.branch.items()
            },
            self.filled.copy(),
            np.concatenate((self.passive_power_w, block.passive_power_w)),
        )

    def fill(
        self, model: EnergyModel, positions: list[int], layers: list[LayerCost]
    ) -> None:
        """Fill the branch columns of ``positions`` for every row, in place."""
        terms, _ = _layer_terms(model, layers, self.settings)
        for name, matrix in terms.items():
            self.branch[name][:, positions] = matrix
        self.filled[positions] = True


class SettingCostTable:
    """Precomputed per-layer cost vectors of one network at one setting.

    Cumulative arrays are indexed like ``cost.layers``; ``cum_*[i]`` is the
    reference loop's accumulator value after processing layer ``i``.  Exit
    branches are cached as per-position scalars — one branch profile per
    position, which holds by construction (the evaluator derives the branch
    from the backbone's channels at that position).

    A table is a view of one grid row, built by :meth:`over_row`;
    :meth:`CostTableBank.table` hands out the views of its bank's rows.
    """

    @classmethod
    def over_row(
        cls,
        model: EnergyModel,
        cost: NetworkCost,
        setting: DvfsSetting,
        grid: _CostGrid,
        row: int,
    ) -> "SettingCostTable":
        """The view of ``grid``'s row ``row`` (the row of ``setting``)."""
        table = cls.__new__(cls)
        table.setting = setting
        table.cost = cost
        table._model = model
        cum = grid.cum
        table.cum_total = cum["total"][row]
        table.cum_core = cum["core"][row]
        table.cum_mem = cum["mem"][row]
        table.cum_static = cum["static"][row]
        # Serving-ladder construction reads the path-profile accumulators
        # instead of re-walking layers through the timing kernel.
        table.cum_busy = cum["busy"][row]
        table.cum_overhead = cum["overhead"][row]
        table.cum_dynamic = cum["dynamic"][row]
        table.passive_power_w = float(grid.passive_power_w[row])
        columns = (np.flatnonzero(grid.filled[1:]) + 1).tolist()
        values = zip(
            *(grid.branch[name][row, columns].tolist() for name in _BRANCH_FIELDS)
        )
        table._branch = {
            position: BranchTerms(*terms) for position, terms in zip(columns, values)
        }
        return table

    # ------------------------------------------------------------- indexing
    def prefix_end(self, position: int) -> int:
        """Cumulative-array index of the prefix ending at MBConv ``position``."""
        return self.cost.prefix_end(position)

    # -------------------------------------------------------- branch scalars
    def _terms(self, layer: LayerCost) -> BranchTerms:
        terms, _ = _layer_terms(self._model, [layer], [self.setting])
        return BranchTerms(*(float(terms[name][0, 0]) for name in _BRANCH_FIELDS))

    def branch_terms(self, position: int, layer: LayerCost) -> BranchTerms:
        """Cached scalar costs of the exit branch attached at ``position``.

        ``setdefault`` keeps the write idempotent under concurrent callers
        (thread-executor runs sharing a bank): racing threads compute the
        same deterministic terms and exactly one value is kept.
        """
        terms = self._branch.get(position)
        if terms is None:
            terms = self._branch.setdefault(position, self._terms(layer))
        return terms

    # ------------------------------------------------------------ path costs
    def exit_path_costs(
        self, positions: Sequence[int], branch_layers: Sequence[LayerCost]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(energy_j, latency_s)`` arrays of a placement's early-exit paths.

        Element ``i`` covers the backbone prefix up to ``positions[i]`` plus
        the branches at ``positions[: i + 1]`` — gathered from the
        cumulative arrays, then branch scalars added in exactly the order
        the reference loop appends branch layers (branch ``j`` lands on
        every exit ``i >= j`` before branch ``j + 1`` does).
        """
        count = len(positions)
        indices = np.fromiter(
            (self.prefix_end(p) for p in positions), dtype=np.intp, count=count
        )
        latency = self.cum_total[indices]
        core = self.cum_core[indices]
        mem = self.cum_mem[indices]
        static = self.cum_static[indices]
        for j, (position, layer) in enumerate(zip(positions, branch_layers)):
            terms = self.branch_terms(position, layer)
            latency[j:] += terms.total_s
            core[j:] += terms.core_j
            mem[j:] += terms.mem_dyn_j
            mem[j:] += terms.mem_bg_j
            static[j:] += terms.static_j
        return core + mem + static, latency

    def full_path_cost(
        self, positions: Sequence[int], branch_layers: Sequence[LayerCost]
    ) -> tuple[float, float]:
        """``(energy_j, latency_s)`` of the full network plus every branch."""
        latency = float(self.cum_total[-1])
        core = float(self.cum_core[-1])
        mem = float(self.cum_mem[-1])
        static = float(self.cum_static[-1])
        for position, layer in zip(positions, branch_layers):
            terms = self.branch_terms(position, layer)
            latency += terms.total_s
            core += terms.core_j
            mem += terms.mem_dyn_j
            mem += terms.mem_bg_j
            static += terms.static_j
        return (core + mem + static), latency

    # ---------------------------------------------------------- path profiles
    def exit_path_profile(
        self,
        positions: Sequence[int],
        branch_layers: Sequence[LayerCost],
        index: int,
    ) -> PathProfile:
        """Batch-decomposable profile of the path leaving at exit ``index``.

        Bit-identical to profiling the layer walk — the prefix up to
        ``positions[index]`` plus the branches at ``positions[: index+1]``:
        the gathered cumulative values continue the reference cumsums, and
        branch scalars are added in the loop's append order (core before
        mem_dyn per branch, preserving the dynamic rail's interleave).
        """
        end = self.prefix_end(positions[index])
        busy = float(self.cum_busy[end])
        overhead = float(self.cum_overhead[end])
        dynamic = float(self.cum_dynamic[end])
        for position, layer in zip(positions[: index + 1], branch_layers[: index + 1]):
            terms = self.branch_terms(position, layer)
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

    def full_path_profile(
        self, positions: Sequence[int], branch_layers: Sequence[LayerCost]
    ) -> PathProfile:
        """Profile of the full network plus every branch (the final path)."""
        busy = float(self.cum_busy[-1])
        overhead = float(self.cum_overhead[-1])
        dynamic = float(self.cum_dynamic[-1])
        for position, layer in zip(positions, branch_layers):
            terms = self.branch_terms(position, layer)
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
    builds every core × EMC setting's row in one broadcast pass; an
    off-grid setting appends a row through the same builder, and a branch
    position the first pass did not cover gets its column filled for every
    row on first request.

    ``branch_provider`` (a callable returning ``(position, branch
    LayerCost)`` pairs, called once on the first build) names the exit
    branches the first pass times alongside the backbone.
    ``prefix_index[p]`` is the cumulative-array index of MBConv position
    ``p``'s prefix (0 for the padding sentinel ``p = 0``).
    """

    def __init__(
        self,
        model: EnergyModel,
        cost: NetworkCost,
        branch_provider=None,
    ):
        self.model = model
        self.cost = cost
        self._branch_layers: dict[int, LayerCost] = {}
        self._branch_provider = branch_provider
        # One entry per branch column: the sentinel plus every MBConv position.
        width = max((layer.index for layer in cost.mbconv_layers()), default=0) + 1
        self.prefix_index = np.zeros(width, dtype=np.intp)
        for position in range(1, len(self.prefix_index)):
            self.prefix_index[position] = cost.prefix_end(position)
        self._grid: _CostGrid | None = None
        self._tables: dict[tuple[float, float], SettingCostTable] = {}
        self._lock = threading.Lock()

    def rows(
        self,
        settings: Sequence[DvfsSetting],
        positions: np.ndarray | None = None,
        branch_cost: Callable[[int], LayerCost] | None = None,
    ) -> tuple[_CostGrid, np.ndarray]:
        """The current grid and the grid row of each of ``settings``.

        ``positions`` (an integer array) holds the MBConv positions whose
        branch columns the caller will read; columns the grid lacks are
        filled from ``branch_cost(position)``.  Lock-free when every row and
        column exists; otherwise the missing ones are built under the lock,
        so thread-executor runs sharing a bank never build twice.
        """
        grid = self._grid
        if grid is not None:
            lookup = grid.rows
            try:
                rows = [lookup[(s.core_ghz, s.emc_ghz)] for s in settings]
            except KeyError:
                pass
            else:
                if positions is None or grid.filled[positions].all():
                    return grid, np.asarray(rows, dtype=np.intp)
        return self._extend(settings, positions, branch_cost)

    def _extend(self, settings, positions, branch_cost) -> tuple[_CostGrid, np.ndarray]:
        """:meth:`rows` after building the missing rows and columns."""
        # Timed only on the miss path, so the lock-free hit costs nothing
        # extra; when tracing is off the clock reads are skipped too.
        timing = trace.active() is not None
        wait_start = time.perf_counter() if timing else 0.0
        with self._lock:
            if timing:
                trace.observe("cost_table.lock_wait_s", time.perf_counter() - wait_start)
            grid = self._grid
            new: list[DvfsSetting] = []
            if grid is None:
                if self._branch_provider is not None:
                    self._branch_layers.update(self._branch_provider())
                    self._branch_provider = None
                new = DvfsSpace(self.model.platform).all_settings()
            seen = {(s.core_ghz, s.emc_ghz) for s in new}
            if grid is not None:
                seen.update(grid.rows)
            for setting in settings:
                key = (setting.core_ghz, setting.emc_ghz)
                if key not in seen:
                    seen.add(key)
                    new.append(setting)
            if new:
                with trace.span("cost_table.build", rows=len(new)):
                    block = _CostGrid.build(
                        self.model,
                        self.cost,
                        new,
                        self._branch_layers,
                        len(self.prefix_index),
                    )
                grid = block if grid is None else grid.append(block)
                trace.count("cost_table.builds")
            missing = []
            if positions is not None:
                missing = [p for p in np.unique(positions).tolist() if not grid.filled[p]]
            if missing:
                layers = [branch_cost(p) for p in missing]
                with trace.span("cost_table.build", columns=len(missing)):
                    grid.fill(self.model, missing, layers)
                self._branch_layers.update(zip(missing, layers))
                trace.count("cost_table.builds")
            if not new and not missing:
                trace.count("cost_table.build_races")
            self._grid = grid
        lookup = grid.rows
        return grid, np.fromiter(
            (lookup[(s.core_ghz, s.emc_ghz)] for s in settings),
            dtype=np.intp,
            count=len(settings),
        )

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
                key,
                SettingCostTable.over_row(
                    self.model, self.cost, setting, grid, int(rows[0])
                ),
            )
        return table

    def __len__(self) -> int:
        """Number of settings whose table views were handed out so far."""
        return len(self._tables)
