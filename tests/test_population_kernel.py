"""Population-vectorized dynamic evaluation: stacked kernel bit-identity.

``DynamicEvaluator.evaluate_population`` lowers N (placement, DVFS setting)
rows — one setting for all, or a mixed-setting NSGA generation via
``evaluate_generation`` — to a single padded gather over the bank's
stacked (setting × layer) grid.  Its contract is the same absolute one the
cost tables carry: every field of every :class:`DynamicEvaluation` row it
returns equals the per-pair ``evaluate`` loop *bit for bit*, and every
objective row the per-exit means of that evaluation
(``spec.evaluation.scalar_objectives``), across population sizes
(including N=1 and duplicate genomes), one to every exit, random
placements and random settings — so search trajectories, caches and
golden artifacts are unchanged no matter which kernel produced them.
Every grid row also equals the per-setting table the bank used to build
one setting at a time (:func:`_per_setting_table`, kept here as the
spec).  Alongside it: the thread-safety of the shared
:class:`CostTableBank`, its rejection of settings off the platform's grid
and of positions without an exit branch, the table-backed runtime
planner/serving-profile paths, and the exhaustive DVFS grids built in one
population call.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy.exit_model import BackboneExitOracle
from repro.arch.cost import estimate_cost
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement, position_matrix
from repro.hardware.cost_table import CostTableBank
from repro.hardware.dvfs import DvfsSetting, DvfsSpace
from repro.hardware.energy import EnergyModel, interleaved_cumsum
from repro.hardware.platform import get_platform
from repro.obs import trace
from spec import evaluation as spec_evaluation

PLATFORM_KEYS = ("tx2-gpu", "carmel-cpu")

_CONTEXTS: dict[str, dict] = {}


def _context(platform_key: str) -> dict:
    """Session-lazy heavy objects per platform.

    Three evaluators share one oracle (accuracy statistics are identical by
    construction), so each comparison isolates exactly one cost kernel:
    the stacked population kernel, the per-call cost-table path, and the
    per-layer reference loop (the last two from ``spec.evaluation``).
    """
    if platform_key not in _CONTEXTS:
        platform = get_platform(platform_key)
        model = EnergyModel(platform)
        config = attentivenas_model("a3")
        cost = estimate_cost(config)
        dvfs = DvfsSpace(platform)
        oracle = BackboneExitOracle(
            config.key, config.total_mbconv_layers, 0.87, seed=0, n_samples=512
        )
        base = model.network_report(cost, dvfs.default_setting())
        kwargs = dict(
            config=config,
            cost=cost,
            oracle=oracle,
            energy_model=model,
            baseline_energy_j=base.energy_j,
            baseline_latency_s=base.latency_s,
        )
        _CONTEXTS[platform_key] = {
            "platform": platform,
            "model": model,
            "config": config,
            "cost": cost,
            "dvfs": dvfs,
            "settings": DvfsSpace(platform).all_settings(),
            "kwargs": kwargs,
            "population": DynamicEvaluator(**kwargs),
            "per_call": spec_evaluation.PerCallEvaluator(**kwargs),
            "reference": spec_evaluation.ReferenceEvaluator(**kwargs),
        }
    return _CONTEXTS[platform_key]


def _assert_evaluations_identical(got, want):
    """Every field of a DynamicEvaluation, compared bit for bit."""
    assert got.placement == want.placement
    assert got.setting == want.setting
    assert got.exit_stats is want.exit_stats or np.array_equal(
        got.exit_stats.n_i, want.exit_stats.n_i
    )
    assert np.array_equal(got.exit_energy_j, want.exit_energy_j)
    assert np.array_equal(got.exit_latency_s, want.exit_latency_s)
    assert np.array_equal(got.scores, want.scores)
    assert got.dynamic_energy_j == want.dynamic_energy_j
    assert got.dynamic_latency_s == want.dynamic_latency_s
    assert got.energy_gain == want.energy_gain
    assert got.latency_gain == want.latency_gain
    assert got.d_score == want.d_score


def _placement_strategy(total_layers: int):
    """One exit to every slot, the exit count drawn first (uniformly), so
    every row width up to the full width is as likely as any other."""
    slots = list(range(MIN_EXIT_POSITION, total_layers))
    return st.tuples(
        st.integers(min_value=1, max_value=len(slots)), st.permutations(slots)
    ).map(lambda drawn: tuple(sorted(drawn[1][: drawn[0]])))


def _per_setting_table(model, cost, setting, branch_items):
    """Executable spec of one grid row: the table as built one setting at a
    time — one timing pass over the backbone plus branch layers at
    ``setting``, 1-D cumsums, branch terms split off the tail.

    Returns ``(cumulative arrays by name, {position: {term: value}},
    passive power)``.
    """
    layers = cost.layers + [layer for _, layer in branch_items]
    timing = model.latency.batch_timing(layers, setting)
    core, mem_dyn, mem_bg, static = model.layer_energy_terms(timing, setting)
    n = len(cost.layers)
    cum = {
        "total": np.cumsum(timing.total_s[:n]),
        "core": np.cumsum(core[:n]),
        "mem": interleaved_cumsum(mem_dyn[:n], mem_bg[:n]),
        "static": np.cumsum(static[:n]),
        "busy": np.cumsum(timing.busy_s[:n]),
        "overhead": np.cumsum(timing.overhead_s[:n]),
        "dynamic": interleaved_cumsum(core[:n], mem_dyn[:n]),
    }
    tails = {
        "total_s": timing.total_s[n:],
        "busy_s": timing.busy_s[n:],
        "overhead_s": timing.overhead_s[n:],
        "core_j": core[n:],
        "mem_dyn_j": mem_dyn[n:],
        "mem_bg_j": mem_bg[n:],
        "static_j": static[n:],
    }
    branch = {
        position: {name: float(values[i]) for name, values in tails.items()}
        for i, (position, _) in enumerate(branch_items)
    }
    passive = model.power.static_power(setting) + model.power.mem_background_power(
        setting
    )
    return cum, branch, passive


class TestPopulationBitIdentity:
    """evaluate_population == [evaluate(p) for p in placements], bitwise."""

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_per_placement_loop(self, platform_key, data):
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        pool = data.draw(
            st.lists(
                _placement_strategy(total_layers), min_size=1, max_size=4, unique=True
            )
        )
        # Population indices into the pool: duplicates allowed, N from 1 up.
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pool) - 1),
                min_size=1,
                max_size=8,
            )
        )
        setting = ctx["settings"][
            data.draw(st.integers(min_value=0, max_value=len(ctx["settings"]) - 1))
        ]
        placements = [
            ExitPlacement(total_layers, pool[i]) for i in indices
        ]
        batch = ctx["population"].evaluate_population(placements, setting)
        assert len(batch) == len(placements)
        for row, (placement, got) in enumerate(zip(placements, batch)):
            want = ctx["per_call"].evaluate(placement, setting)
            _assert_evaluations_identical(got, want)
            reference = ctx["reference"].evaluate(placement, setting)
            _assert_evaluations_identical(got, reference)
            assert tuple(batch.objectives[row].tolist()) == (
                spec_evaluation.scalar_objectives(ctx["per_call"], want)
            )

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_singleton_and_duplicates(self, platform_key):
        """Explicit N=1 and duplicate-heavy populations (not left to
        hypothesis's whims): duplicates come back as identical rows, and a
        singleton batch must equal the scalar call."""
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        setting = ctx["dvfs"].default_setting()
        single = ExitPlacement(total_layers, (MIN_EXIT_POSITION, total_layers - 1))
        (only,) = ctx["population"].evaluate_population([single], setting)
        _assert_evaluations_identical(only, ctx["per_call"].evaluate(single, setting))

        other = ExitPlacement(total_layers, (total_layers // 2,))
        batch = ctx["population"].evaluate_population(
            [single, other, single, single, other], setting
        )
        for a, b in ((0, 2), (0, 3), (1, 4)):
            _assert_evaluations_identical(batch[a], batch[b])
            assert np.array_equal(batch.objectives[a], batch.objectives[b])
        _assert_evaluations_identical(batch[1], ctx["per_call"].evaluate(other, setting))

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_wide_population_crosses_vector_width(self, platform_key):
        """Mixed widths spanning the 8-exit pairwise-summation boundary,
        where numpy's sum unrolls: every width group's reduction must stay
        bit-identical to the reference ``mean()``."""
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        rng = np.random.default_rng(7)
        slots = list(range(MIN_EXIT_POSITION, total_layers))
        placements = [
            ExitPlacement(
                total_layers,
                tuple(sorted(rng.choice(slots, size=size, replace=False).tolist())),
            )
            for size in (1, 3, 8, 10, min(11, len(slots)))
        ]
        setting = ctx["dvfs"].sample(rng)
        batch = ctx["population"].evaluate_population(placements, setting)
        for placement, got in zip(placements, batch):
            _assert_evaluations_identical(
                got, ctx["reference"].evaluate(placement, setting)
            )

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_fallback_without_population_kernel(self, platform_key):
        """The per-call spec routes populations through the per-placement
        path but keeps the batched signature and result order."""
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        setting = ctx["dvfs"].default_setting()
        placements = [
            ExitPlacement(total_layers, (MIN_EXIT_POSITION,)),
            ExitPlacement(total_layers, (MIN_EXIT_POSITION + 2, total_layers - 1)),
        ]
        batch = ctx["per_call"].evaluate_population(placements, setting)
        for placement, got in zip(placements, batch):
            _assert_evaluations_identical(got, ctx["per_call"].evaluate(placement, setting))


class TestGenerationBitIdentity:
    """evaluate_generation == [evaluate(p, s) for (p, s) in decoded],
    bitwise, with settings mixed freely across rows."""

    @staticmethod
    def _check(ctx, decoded, reference_rows: int = 2):
        generation = DynamicEvaluator(**ctx["kwargs"])
        positions, _ = position_matrix([placement.positions for placement, _ in decoded])
        got = generation.evaluate_generation(positions, [setting for _, setting in decoded])
        assert len(got) == len(decoded)
        for row, ((placement, setting), evaluation) in enumerate(zip(decoded, got)):
            want = ctx["per_call"].evaluate(placement, setting)
            _assert_evaluations_identical(evaluation, want)
            assert tuple(got.objectives[row].tolist()) == (
                spec_evaluation.scalar_objectives(ctx["per_call"], want)
            )
        for (placement, setting), evaluation in list(zip(decoded, got))[:reference_rows]:
            _assert_evaluations_identical(
                evaluation, ctx["reference"].evaluate(placement, setting)
            )
        return got

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_mixed_settings_match_per_pair_loop(self, platform_key, data):
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        pool = data.draw(
            st.lists(
                _placement_strategy(total_layers),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        choices = ctx["settings"]
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(pool) - 1), st.integers(0, len(choices) - 1)
                ),
                min_size=1,
                max_size=12,
            )
        )
        decoded = [
            (ExitPlacement(total_layers, pool[p]), choices[s]) for p, s in rows
        ]
        self._check(ctx, decoded)

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_explicit_generation_shapes(self, platform_key):
        """N=1, duplicate pairs, one placement at every grid setting, and
        rows of >= 8 exits (past numpy's pairwise unroll) beside narrow
        ones."""
        ctx = _context(platform_key)
        total_layers = ctx["config"].total_mbconv_layers
        grid = ctx["settings"]
        wide = ExitPlacement(
            total_layers, tuple(range(MIN_EXIT_POSITION, MIN_EXIT_POSITION + 9))
        )
        narrow = ExitPlacement(total_layers, (MIN_EXIT_POSITION + 1, total_layers - 1))
        self._check(ctx, [(narrow, grid[0])])
        duplicates = self._check(
            ctx, [(narrow, grid[3]), (wide, grid[3]), (narrow, grid[3]), (narrow, grid[4])]
        )
        _assert_evaluations_identical(duplicates[0], duplicates[2])
        assert duplicates[0].setting != duplicates[3].setting
        self._check(ctx, [(wide, setting) for setting in grid])
        self._check(ctx, [(wide, grid[-1]), (narrow, grid[-1])])

    def test_traced_ioe_makes_one_population_call_per_generation(
        self, static_evaluator, surrogate
    ):
        from repro.obs.trace import Recorder
        from repro.search.ioe import InnerEngine
        from repro.search.nsga2 import Nsga2Config

        backbone = attentivenas_model("a0")
        engine = InnerEngine(
            backbone,
            static_evaluator,
            surrogate.accuracy_fraction(backbone),
            nsga=Nsga2Config(population=12, generations=4),
            seed=3,
        )
        recorder = Recorder()
        trace.install(recorder)
        try:
            engine.run()
        finally:
            trace.uninstall()
        counters = recorder.counters
        generations = counters["dyneval.generation_calls"]
        assert generations >= 4
        assert counters["dyneval.population_calls"] == generations
        assert counters["oracle.batch_calls"] <= generations


class TestStackedGrid:
    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_every_row_matches_per_setting_spec(self, platform_key):
        """The grid holds one row per setting of the platform's grid and a
        branch column per legal exit position; every row equals the
        per-setting spec, and the ``bank.table`` views read the same bits."""
        ctx = _context(platform_key)
        evaluator = DynamicEvaluator(**ctx["kwargs"])
        bank = evaluator.bank
        legal = list(range(MIN_EXIT_POSITION, ctx["config"].total_mbconv_layers + 1))
        grid, rows = bank.rows(ctx["settings"])
        assert grid.settings == ctx["settings"]
        assert rows.tolist() == list(range(len(ctx["settings"])))
        assert np.flatnonzero(grid.branched).tolist() == [0, *legal]
        assert not grid.branch["total_s"][:, 0].any()  # the padding sentinel
        branch_items = [(p, evaluator.branch_cost(p)) for p in legal]
        for setting, row in zip(ctx["settings"], rows.tolist()):
            cum, branch, passive = _per_setting_table(
                ctx["model"], ctx["cost"], setting, branch_items
            )
            for name, values in cum.items():
                assert np.array_equal(grid.cum[name][row], values), name
            table = bank.table(setting)
            for position, terms in branch.items():
                for name, value in terms.items():
                    assert grid.branch[name][row, position] == value, (position, name)
                assert dataclasses.asdict(table._branch[position]) == terms
            assert grid.passive_power_w[row] == passive
            assert np.array_equal(table.cum_mem, cum["mem"])
            assert np.array_equal(table.cum_dynamic, cum["dynamic"])
            assert table.passive_power_w == passive

    def test_rejects_off_grid_settings_and_branchless_positions(self):
        """A setting off the platform's core × EMC grid and a position
        without an exit branch raise ``ValueError`` at the population
        kernel and at ``CostTableBank.table``, instead of being costed."""
        ctx = _context("tx2-gpu")
        evaluator = DynamicEvaluator(**ctx["kwargs"])
        kernel, bank = evaluator.population, evaluator.bank
        on_grid = ctx["dvfs"].default_setting()
        off_grid = DvfsSetting(0.7777, 1.2345)
        with pytest.raises(ValueError, match="not on the tx2-gpu DVFS grid"):
            kernel.path_costs([(MIN_EXIT_POSITION,)] * 2, [on_grid, off_grid])
        with pytest.raises(ValueError, match="not on the tx2-gpu DVFS grid"):
            bank.table(off_grid)
        total_layers = ctx["config"].total_mbconv_layers
        for position in (2, MIN_EXIT_POSITION - 1, total_layers + 1):
            positions = (position, MIN_EXIT_POSITION + 1)
            with pytest.raises(ValueError, match=f"no exit branch at position {position}"):
                kernel.path_costs([(MIN_EXIT_POSITION,), positions], [on_grid] * 2)
            table = bank.table(on_grid)
            with pytest.raises(ValueError, match=f"no exit branch at position {position}"):
                table.path_costs(positions)
            with pytest.raises(ValueError):
                table.path_profile(positions, len(positions))
        assert len(bank) == 1

    def test_concurrent_first_use_builds_each_row_once(self):
        """Eight threads race the one grid build under a tiny switch
        interval, each with its own grid settings: each gets the serial
        costs, and the shared grid, built once, holds exactly the
        platform's settings."""
        from repro.obs.trace import Recorder

        ctx = _context("tx2-gpu")
        shared = DynamicEvaluator(**ctx["kwargs"])
        total_layers = ctx["config"].total_mbconv_layers
        position_lists = [
            (MIN_EXIT_POSITION, 6),
            (7, 9, 11),
            (MIN_EXIT_POSITION + 3,),
            (8, total_layers - 1),
        ]
        grid_settings = ctx["settings"]
        jobs = [
            [grid_settings[(t * 17 + k * 5) % len(grid_settings)] for k in range(4)]
            for t in range(8)
        ]
        expected = [
            DynamicEvaluator(**ctx["kwargs"]).population.path_costs(position_lists, job)
            for job in jobs
        ]
        results = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def run(slot):
            barrier.wait()
            results[slot] = shared.population.path_costs(position_lists, jobs[slot])

        recorder = Recorder()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        trace.install(recorder)
        try:
            threads = [
                threading.Thread(target=run, args=(slot,)) for slot in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            trace.uninstall()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert np.array_equal(got.exit_energy_j, want.exit_energy_j)
            assert np.array_equal(got.exit_latency_s, want.exit_latency_s)
            assert np.array_equal(got.full_energy_j, want.full_energy_j)
        assert recorder.counters["cost_table.builds"] == 1
        grid, _ = shared.bank.rows([])
        assert grid.settings == grid_settings
        assert len(grid.rows) == len(grid_settings)


class TestCostTableBankThreadSafety:
    def test_racing_builders_share_one_table(self):
        ctx = _context("tx2-gpu")
        bank = CostTableBank(ctx["model"], ctx["cost"], ctx["population"]._branch_items)
        setting = ctx["dvfs"].default_setting()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        tables = [None] * n_threads

        def build(slot):
            barrier.wait()
            tables[slot] = bank.table(setting)

        threads = [
            threading.Thread(target=build, args=(slot,)) for slot in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(bank) == 1
        assert all(table is tables[0] for table in tables)

    def test_distinct_settings_race_to_distinct_tables(self):
        ctx = _context("tx2-gpu")
        bank = CostTableBank(ctx["model"], ctx["cost"], ctx["population"]._branch_items)
        rng = np.random.default_rng(3)
        settings_pair = [ctx["dvfs"].default_setting(), ctx["dvfs"].sample(rng)]
        assert settings_pair[0] != settings_pair[1]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        tables = [None] * n_threads

        def build(slot):
            barrier.wait()
            tables[slot] = bank.table(settings_pair[slot % 2])

        threads = [
            threading.Thread(target=build, args=(slot,)) for slot in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(bank) == 2
        for slot, table in enumerate(tables):
            assert table is tables[slot % 2]


class TestRuntimePathsViaBank:
    """Runtime planners and serving profiles through the cost-table bank."""

    def test_per_exit_plan_identical_to_reference(self):
        from repro.runtime.planner import plan_per_exit_dvfs

        ctx = _context("tx2-gpu")
        placement = ExitPlacement(
            ctx["config"].total_mbconv_layers, (6, 10, ctx["config"].total_mbconv_layers - 1)
        )
        table_plan = plan_per_exit_dvfs(ctx["population"], placement, ctx["dvfs"])
        reference_plan = spec_evaluation.plan_per_exit_dvfs(
            ctx["reference"], placement, ctx["dvfs"]
        )
        assert table_plan.settings == reference_plan.settings
        assert table_plan.single_setting_energy_j == reference_plan.single_setting_energy_j
        assert table_plan.per_exit_energy_j == reference_plan.per_exit_energy_j

    def test_serving_profiles_identical_to_reference(self):
        from repro.runtime.governor import DvfsGovernor
        from repro.serving.governor import _profiles_for

        ctx = _context("tx2-gpu")
        rng = np.random.default_rng(11)
        placement = ExitPlacement(ctx["config"].total_mbconv_layers, (7, 12))
        per_exit = {
            0: ctx["dvfs"].sample(rng),
            1: ctx["dvfs"].sample(rng),
            2: ctx["dvfs"].default_setting(),
        }
        governor = DvfsGovernor(ctx["dvfs"].default_setting(), per_exit=per_exit)
        table_profiles = _profiles_for(ctx["population"], placement, governor)
        reference_profiles = spec_evaluation.profiles_for(
            ctx["reference"], placement, governor
        )
        assert len(table_profiles) == len(placement.positions) + 1
        for got, want in zip(table_profiles, reference_profiles):
            assert got.busy_s == want.busy_s
            assert got.overhead_s == want.overhead_s
            assert got.dynamic_energy_j == want.dynamic_energy_j
            assert got.passive_power_w == want.passive_power_w

    def test_path_costs_match_reference(self):
        ctx = _context("carmel-cpu")
        rng = np.random.default_rng(5)
        positions = (8, 13)
        setting = ctx["dvfs"].sample(rng)
        want = spec_evaluation.path_costs(ctx["reference"], positions, setting)
        got = ctx["population"]._path_costs(positions, setting)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        assert got[3] == want[3]
        stacked = ctx["population"].population.path_costs([positions], [setting])
        energy, latency = stacked.row(0)
        assert np.array_equal(energy, want[0])
        assert np.array_equal(latency, want[1])
        assert stacked.full_energy_j[0] == want[2]
        assert stacked.full_latency_s[0] == want[3]


class TestDvfsGrid:
    """Exhaustive core × EMC grids: one population call per grid."""

    def test_compute_grid_is_one_population_call(self):
        """Every (placement, setting) cell comes from one mixed-setting
        population call and equals a fresh evaluator's per-pair
        ``evaluate``; the argmin helpers read the filled arrays."""
        from repro.experiments.dvfs_grid import compute_grid
        from repro.obs.trace import Recorder

        ctx = _context("tx2-gpu")
        space = ctx["dvfs"]
        total = ctx["config"].total_mbconv_layers
        placements = [ExitPlacement(total, p) for p in [(5, 9, 14), (7,)]]
        recorder = Recorder()
        with trace.recording(recorder):
            grid = compute_grid(DynamicEvaluator(**ctx["kwargs"]), space, placements)
        assert recorder.counters["dyneval.population_calls"] == 1
        assert recorder.counters["dyneval.population_rows"] == (
            len(placements) * space.cardinality
        )
        assert grid.placements == ((5, 9, 14), (7,))
        assert grid.core_ghz == tuple(space.core_freqs)
        assert grid.emc_ghz == tuple(space.emc_freqs)
        assert grid.num_settings == space.cardinality
        shape = (len(placements), len(space.core_freqs), len(space.emc_freqs))
        assert grid.dynamic_energy_j.shape == shape

        fresh = DynamicEvaluator(**ctx["kwargs"])
        for pi, placement in enumerate(placements):
            energies = []
            for ci, core in enumerate(grid.core_ghz):
                for ei, emc in enumerate(grid.emc_ghz):
                    setting = DvfsSetting(core, emc)
                    want = fresh.evaluate(placement, setting)
                    assert grid.dynamic_energy_j[pi, ci, ei] == want.dynamic_energy_j
                    assert grid.dynamic_latency_s[pi, ci, ei] == want.dynamic_latency_s
                    assert grid.d_score[pi, ci, ei] == want.d_score
                    energies.append((want.dynamic_energy_j, setting))
            lowest = min(energy for energy, _ in energies)
            assert grid.min_energy_j(pi) == lowest
            first = next(setting for energy, setting in energies if energy == lowest)
            assert grid.best_energy_setting(pi) == first

    def test_reference_placement_is_deterministic(self):
        from repro.experiments.table2 import reference_placement

        assert reference_placement(21) == reference_placement(21)
        placement = reference_placement(21)
        assert placement.positions[0] == MIN_EXIT_POSITION
        assert all(
            MIN_EXIT_POSITION <= p <= 20 for p in placement.positions
        )
