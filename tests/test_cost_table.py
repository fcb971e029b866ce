"""The vectorized dynamic-evaluation kernel: cost tables and bit-identity.

The cost-table kernel's contract is absolute: every number it produces —
batch timings, prefix reports, exit-path costs, full dynamic evaluations —
must equal the per-layer reference loop (``spec.hardware`` and
``spec.evaluation``) *bit for bit* (same float64 additions in the same
order), so cache keys, golden artifacts and search trajectories are all
unchanged.  These tests pin that contract on
two registry platforms, plus the caching/sharing behaviour that makes the
kernel O(exits) on the hot path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy.exit_model import BackboneExitOracle, ExitCapabilityModel
from repro.arch.cost import estimate_cost, exit_branch_cost
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.dynamic import DynamicEvaluator
from repro.exits.evaluation import ExitEvaluation, ideal_mapping_stats
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement
from repro.hardware.cost_table import CostTableBank
from repro.hardware.dvfs import DvfsSpace
from repro.hardware.energy import EnergyModel, interleaved_cumsum
from repro.hardware.platform import get_platform
from spec import evaluation as spec_evaluation
from spec import hardware as spec_hardware

PLATFORM_KEYS = ("tx2-gpu", "carmel-cpu")

_CONTEXTS: dict[str, dict] = {}


def _context(platform_key: str) -> dict:
    """Session-lazy heavy objects per platform (shared oracle for the
    vectorized/reference evaluator pair, so only the kernel differs)."""
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
            "vectorized": DynamicEvaluator(**kwargs),
            "reference": spec_evaluation.ReferenceEvaluator(**kwargs),
        }
    return _CONTEXTS[platform_key]


def _report_fields(report) -> tuple:
    return (
        report.latency_s,
        report.energy_j,
        report.core_energy_j,
        report.mem_energy_j,
        report.static_energy_j,
    )


class TestBatchTiming:
    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_matches_layer_timing_bitwise(self, platform_key):
        ctx = _context(platform_key)
        rng = np.random.default_rng(1)
        for _ in range(5):
            setting = ctx["dvfs"].sample(rng)
            batch = ctx["model"].latency.batch_timing(ctx["cost"].layers, setting)
            for i, layer in enumerate(ctx["cost"].layers):
                single = ctx["model"].latency.layer_timing(layer, setting)
                assert batch.total_s[i] == single.total_s
                assert batch.compute_s[i] == single.compute_s
                assert batch.memory_s[i] == single.memory_s
                assert batch.overhead_s[i] == single.overhead_s
                assert batch.core_activity[i] == single.core_activity
                assert batch.mem_activity[i] == single.mem_activity

    def test_interleaved_cumsum_preserves_order(self):
        rng = np.random.default_rng(2)
        first, second = rng.normal(size=40), rng.normal(size=40)
        running, expected = 0.0, []
        for a, b in zip(first, second):
            running += a
            running += b
            expected.append(running)
        assert np.array_equal(
            interleaved_cumsum(first, second), np.asarray(expected)
        )


def _grid_report(grid, row: int, index: int) -> tuple:
    """:func:`_report_fields` read off grid row ``row``'s cumulative
    accumulators after layer ``index``."""
    latency, core, mem, static = (
        grid.cum[name][row, index] for name in ("total", "core", "mem", "static")
    )
    return (latency, core + mem + static, core, mem, static)


class TestSettingCostTable:
    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_prefix_report_equivalence(self, platform_key):
        """The grid's cumulative rows at every MBConv prefix end == the
        reference loop's report of that prefix."""
        ctx = _context(platform_key)
        cost, model, dvfs = ctx["cost"], ctx["model"], ctx["dvfs"]
        bank = CostTableBank(model, cost, ctx["vectorized"]._branch_items)
        rng = np.random.default_rng(3)
        settings_list = [dvfs.sample(rng) for _ in range(3)]
        grid, rows = bank.rows(settings_list)
        for setting, row in zip(settings_list, rows.tolist()):
            for position in range(1, ctx["config"].total_mbconv_layers + 1):
                reference = spec_hardware.composite_report(
                    model, cost.prefix(position), setting
                )
                assert _grid_report(
                    grid, row, bank.prefix_index[position]
                ) == _report_fields(reference)

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_network_report_equivalence(self, platform_key):
        """The grid's cumulative rows at the last layer == the reference
        loop's full-network report."""
        ctx = _context(platform_key)
        setting = ctx["dvfs"].default_setting()
        bank = CostTableBank(ctx["model"], ctx["cost"], ctx["vectorized"]._branch_items)
        grid, (row,) = bank.rows([setting])
        assert _grid_report(grid, row, len(ctx["cost"].layers) - 1) == _report_fields(
            spec_hardware.composite_report(ctx["model"], ctx["cost"].layers, setting)
        )

    def test_bank_shares_tables_across_placements(self):
        ctx = _context("tx2-gpu")
        bank = CostTableBank(ctx["model"], ctx["cost"], ctx["vectorized"]._branch_items)
        a = ctx["dvfs"].decode(0, 0)
        b = ctx["dvfs"].decode(1, 0)
        assert bank.table(a) is bank.table(a)
        bank.table(b)
        assert len(bank) == 2

    def test_vectorized_accumulate_matches_reference(self):
        """EnergyModel.composite_report (now vectorized) == reference loop
        over arbitrary layer sequences, including repeats and branches."""
        ctx = _context("tx2-gpu")
        layers = list(ctx["cost"].layers) + [exit_branch_cost(64, 14, 100)]
        rng = np.random.default_rng(4)
        for _ in range(10):
            size = int(rng.integers(1, len(layers) + 1))
            subset = [layers[i] for i in rng.choice(len(layers), size=size)]
            setting = ctx["dvfs"].sample(rng)
            assert _report_fields(
                ctx["model"].composite_report(subset, setting)
            ) == _report_fields(
                spec_hardware.composite_report(ctx["model"], subset, setting)
            )


def _evaluation_pair(platform_key, positions, core_idx, emc_idx):
    ctx = _context(platform_key)
    total = ctx["config"].total_mbconv_layers
    placement = ExitPlacement(total, positions)
    dvfs = ctx["dvfs"]
    setting = dvfs.decode(core_idx % len(dvfs.core_freqs), emc_idx % len(dvfs.emc_freqs))
    return (
        ctx["vectorized"].evaluate(placement, setting),
        ctx["reference"].evaluate(placement, setting),
    )


@st.composite
def placements(draw):
    """(platform, positions, core gene, emc gene) over both platforms."""
    platform_key = draw(st.sampled_from(PLATFORM_KEYS))
    total = _context(platform_key)["config"].total_mbconv_layers
    positions = draw(
        st.sets(
            st.integers(MIN_EXIT_POSITION, total - 1), min_size=1, max_size=6
        )
    )
    core = draw(st.integers(0, 63))
    emc = draw(st.integers(0, 63))
    return platform_key, tuple(sorted(positions)), core, emc


class TestDynamicEvaluatorBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(placements())
    def test_vectorized_equals_reference(self, drawn):
        """The acceptance contract: the cost-table evaluator reproduces the
        pre-refactor reference implementation exactly — every scalar and
        array, bit for bit — over random placements and DVFS settings on
        two registry platforms."""
        platform_key, positions, core, emc = drawn
        vec, ref = _evaluation_pair(platform_key, positions, core, emc)
        assert np.array_equal(vec.exit_energy_j, ref.exit_energy_j)
        assert np.array_equal(vec.exit_latency_s, ref.exit_latency_s)
        assert vec.dynamic_energy_j == ref.dynamic_energy_j
        assert vec.dynamic_latency_s == ref.dynamic_latency_s
        assert vec.energy_gain == ref.energy_gain
        assert vec.latency_gain == ref.latency_gain
        assert np.array_equal(vec.scores, ref.scores)
        assert vec.d_score == ref.d_score

    def test_objectives_identical(self):
        ctx = _context("tx2-gpu")
        total = ctx["config"].total_mbconv_layers
        placement = ExitPlacement(total, (6, 9, total - 1))
        setting = ctx["dvfs"].default_setting()
        vec = ctx["vectorized"].evaluate(placement, setting)
        ref = ctx["reference"].evaluate(placement, setting)
        want = spec_evaluation.scalar_objectives(ctx["reference"], ref)
        assert spec_evaluation.scalar_objectives(ctx["vectorized"], vec) == want
        generation = ctx["vectorized"].evaluate_population([placement], setting)
        assert tuple(generation.objectives[0].tolist()) == want

    def test_hot_path_is_table_driven(self):
        """Once a setting's table (and its branch scalars) exist, new
        placements at that setting do no per-layer work at all — neither the
        reference loop nor the batch kernel runs again."""
        ctx = _context("tx2-gpu")
        evaluator = ctx["vectorized"]
        total = ctx["config"].total_mbconv_layers
        setting = ctx["dvfs"].decode(2, 3)
        latency = evaluator.energy_model.latency
        # Warm the table and every branch position the new placements use.
        evaluator.evaluate(ExitPlacement(total, tuple(range(5, 12))), setting)
        before = (latency.layer_timing_calls, latency.batch_timing_calls)
        evaluator.evaluate(ExitPlacement(total, (7, 9, 11)), setting)
        evaluator.evaluate(ExitPlacement(total, (5, 8)), setting)
        assert (latency.layer_timing_calls, latency.batch_timing_calls) == before


class TestExitEvaluationVectorized:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.lists(st.booleans(), min_size=4, max_size=4),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_ideal_mapping_usage_matches_loop(self, rows):
        """First-true-column indexing == the masked per-exit loop."""
        correct = np.asarray(rows, dtype=bool)
        stats = ideal_mapping_stats(correct)
        n_samples, num_heads = correct.shape
        num_exits = num_heads - 1
        usage = np.zeros(num_exits + 1)
        remaining = np.ones(n_samples, dtype=bool)
        for i in range(num_exits):
            takes = remaining & correct[:, i]
            usage[i] = takes.mean()
            remaining &= ~takes
        usage[-1] = remaining.mean()
        assert np.array_equal(stats.usage, usage)
        assert float(stats.usage.sum()) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    def test_dissimilarity_cummax_matches_loop(self, values):
        n_i = np.asarray(values)
        stats = ExitEvaluation(
            n_i=n_i, final_accuracy=0.9, dynamic_accuracy=0.9,
            usage=np.ones(len(n_i) + 1) / (len(n_i) + 1),
        )
        expected = np.ones(len(n_i))
        for i in range(1, len(n_i)):
            expected[i] = 1.0 - float(n_i[:i].max())
        assert np.array_equal(stats.dissimilarity, expected)

    def test_dissimilarity_computed_once(self):
        stats = ExitEvaluation(
            n_i=np.asarray([0.3, 0.5, 0.4]), final_accuracy=0.9,
            dynamic_accuracy=0.9, usage=np.asarray([0.3, 0.2, 0.1, 0.4]),
        )
        assert stats.dissimilarity is stats.dissimilarity  # cached instance


class TestNetworkCostPrefix:
    def test_prefix_matches_scan_reference(self):
        cost = _context("tx2-gpu")["cost"]
        total = _context("tx2-gpu")["config"].total_mbconv_layers
        for position in range(1, total + 1):
            reference = []
            for layer in cost.layers:
                if layer.kind in ("head", "classifier"):
                    break
                reference.append(layer)
                if layer.kind == "mbconv" and layer.index == position:
                    break
            assert cost.prefix(position) == reference
            assert cost.layers[cost.prefix_end(position)].index == position

    def test_prefix_zero_returns_stem_only(self):
        cost = _context("tx2-gpu")["cost"]
        stem = cost.prefix(0)
        assert stem and all(layer.kind == "stem" for layer in stem)

    def test_prefix_invalid_position_raises(self):
        cost = _context("tx2-gpu")["cost"]
        total = _context("tx2-gpu")["config"].total_mbconv_layers
        with pytest.raises(ValueError, match="no MBConv layer"):
            cost.prefix(total + 1)
        with pytest.raises(ValueError, match="no MBConv layer"):
            cost.prefix_end(-3)


class TestOracleBatching:
    def test_basis_centers_cached(self):
        model = ExitCapabilityModel()
        assert model._centers is model._centers
        assert np.array_equal(model._centers, np.linspace(0.0, 1.0, model.num_basis))

    def test_basis_matrix_rows_equal_basis(self):
        model = ExitCapabilityModel()
        us = np.asarray([0.2, 0.5, 0.95, 1.0])
        matrix = model.basis_matrix(us)
        for row, u in zip(matrix, us):
            assert np.array_equal(row, model.basis(float(u)))

    def test_columns_independent_of_access_order(self):
        """Columns are pure functions of the oracle: demanding them through
        a placement batch or one by one (in any order) yields identical
        booleans — the fixed position-complete perturbation matrix makes the
        BLAS call shape independent of the access pattern."""
        config = attentivenas_model("a0")
        total = config.total_mbconv_layers
        make = lambda: BackboneExitOracle(config.key, total, 0.9, seed=5, n_samples=256)
        batched = make()
        batched.evaluate_placement(ExitPlacement(total, (6, 9, total - 1)))
        individual = make()
        for position in (total - 1, 9, 6):  # reversed, one at a time
            individual.exit_column(position)
        for position in (6, 9, total - 1):
            assert np.array_equal(
                batched.exit_column(position), individual.exit_column(position)
            )
        assert np.array_equal(batched.final_column(), individual.final_column())

    def test_placement_stats_match_independent_column_construction(self):
        """evaluate_placement == stats from columns rebuilt independently
        with the documented selection rule (rank by perceived difficulty,
        classify exactly the capability fraction), sharing the oracle's
        perturbation columns so the check exercises the selection and stats
        plumbing rather than BLAS summation order."""
        config = attentivenas_model("a0")
        total = config.total_mbconv_layers
        oracle = BackboneExitOracle(config.key, total, 0.9, seed=5, n_samples=256)
        placement = ExitPlacement(total, (6, 8, 11))
        stats = oracle.evaluate_placement(placement)
        columns = []
        for position in placement.positions:
            u = position / total
            cap = float(oracle.model.capability(0.9, u))
            score = oracle._difficulties - oracle._perturbation(position)
            n_correct = int(round(np.clip(cap, 0.0, 1.0) * oracle.n_samples))
            column = np.zeros(oracle.n_samples, dtype=bool)
            if n_correct > 0:
                easiest = np.argpartition(score, max(n_correct - 1, 0))[:n_correct]
                column[easiest] = True
            columns.append(column)
        for got, expected in zip(
            (oracle.exit_column(p) for p in placement.positions), columns
        ):
            assert np.array_equal(got, expected)
        assert np.array_equal(stats.n_i, [c.mean() for c in columns])
