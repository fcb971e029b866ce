"""Batched exit-oracle accuracy kernel: bit-identity and fusion contracts.

``BackboneExitOracle.evaluate_placements`` lowers a whole population's
ideal-mapping statistics to one dense sweep over the oracle's packed column
bank.  Its contract is absolute: every field of every
:class:`ExitEvaluation` row it returns equals the per-placement popcount
loop *bit for bit* — across sample counts with partial last bytes and
words, population sizes (N=1, duplicates, one to every exit) and
consecutive batches sharing prefixes — so search trajectories and golden
artifacts are unchanged no matter which kernel produced them.  Alongside
it: both row-popcount branches, the lazily filled bank, the stacked
:class:`PopulationExitStats` rows, the dynamic evaluator's objective
matrix and its built, self-owned rows, ``evaluate_generation`` ordering, and
the equivalence of whole search engines (IOE, random search) with the spec
comparators.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy import exit_model
from repro.accuracy.exit_model import BackboneExitOracle
from repro.arch.cost import estimate_cost
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement, position_matrix
from repro.hardware.dvfs import DvfsSpace
from repro.hardware.energy import EnergyModel
from repro.hardware.platform import get_platform
from spec import evaluation as spec_evaluation

PLATFORM_KEYS = ("tx2-gpu", "carmel-cpu")

_CONFIG = attentivenas_model("a3")
_LAYERS = _CONFIG.total_mbconv_layers


def _oracle(cls=BackboneExitOracle, **kwargs) -> BackboneExitOracle:
    defaults = dict(
        backbone_key=_CONFIG.key,
        total_layers=_LAYERS,
        backbone_accuracy=0.87,
        seed=0,
        n_samples=512,
    )
    defaults.update(kwargs)
    return cls(**defaults)


def _reference_oracle(**kwargs) -> BackboneExitOracle:
    return _oracle(spec_evaluation.PerPlacementOracle, **kwargs)


def _placement(positions) -> ExitPlacement:
    return ExitPlacement(_LAYERS, tuple(sorted(positions)))


def _placements_strategy(max_exits: int = 6):
    one = st.sets(
        st.integers(min_value=MIN_EXIT_POSITION, max_value=_LAYERS - 1),
        min_size=1,
        max_size=max_exits,
    ).map(_placement)
    return st.lists(one, min_size=1, max_size=12)


#: Sample counts with whole and partial last bytes and ``uint64`` words.
_SAMPLE_COUNTS = (64, 100, 513, 1000, 2048)


def _assert_stats_identical(got, want):
    """Every field of an ExitEvaluation, compared bit for bit."""
    assert np.array_equal(got.n_i, want.n_i)
    assert np.array_equal(got.usage, want.usage)
    assert np.array_equal(got.dissimilarity, want.dissimilarity)
    assert got.final_accuracy == want.final_accuracy
    assert got.dynamic_accuracy == want.dynamic_accuracy
    head_g, tail_g = got.usage_split
    head_w, tail_w = want.usage_split
    assert np.array_equal(head_g, head_w) and tail_g == tail_w


class TestBatchedOracleBitIdentity:
    """evaluate_placements == [evaluate_placement(p) ...], bitwise."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_reference_oracle(self, data):
        """Any sample count; one to every exit, with duplicates, per batch;
        then a second batch on the same oracle that keeps a prefix of each
        first-batch placement and extends it.  The per-placement path,
        filling its own bank, gives the same rows."""
        n_samples = data.draw(st.sampled_from(_SAMPLE_COUNTS))
        first = data.draw(_placements_strategy(max_exits=_LAYERS - MIN_EXIT_POSITION))
        first += data.draw(st.lists(st.sampled_from(first), max_size=4))
        second = []
        for placement in first:
            prefix = placement.positions[: data.draw(st.integers(1, placement.num_exits))]
            room = range(prefix[-1] + 1, _LAYERS)
            tail = data.draw(st.sets(st.sampled_from(room), max_size=3)) if room else ()
            second.append(_placement(prefix + tuple(tail)))
        batched = _oracle(n_samples=n_samples)
        single = _oracle(n_samples=n_samples)  # per-placement calls only
        reference = _reference_oracle(n_samples=n_samples)
        for batch in (first, second):
            got = batched.evaluate_placements(batch)
            want = reference.evaluate_placements(batch)
            for g, w, placement in zip(got, want, batch):
                _assert_stats_identical(g, w)
                _assert_stats_identical(single.evaluate_placement(placement), w)

    def test_single_placement(self):
        batched = _oracle()
        placement = _placement([MIN_EXIT_POSITION, _LAYERS - 1])
        (got,) = batched.evaluate_placements([placement])
        _assert_stats_identical(got, _reference_oracle().evaluate_placement(placement))

    def test_duplicates_get_identical_rows(self):
        """The sweep computes every row, duplicates included; only the
        per-placement call memoises."""
        batched = _oracle()
        placement = _placement([6, 9, 12])
        a, b = batched.evaluate_placements([placement, placement])
        _assert_stats_identical(a, b)
        single = batched.evaluate_placement(placement)
        _assert_stats_identical(a, single)
        assert batched.evaluate_placement(placement) is single

    def test_layer_mismatch_rejected(self):
        oracle = _oracle()
        wrong = ExitPlacement(_LAYERS + 4, (6, 9))
        with pytest.raises(ValueError):
            oracle.evaluate_placements([wrong])

    def test_bank_fills_lazily(self):
        """A batch touching positions {6, 9} builds exactly those columns
        plus the final one; each banked row packs its column."""
        oracle = _oracle(n_samples=100)
        oracle.evaluate_placements([_placement([6, 9]), _placement([9])])
        assert oracle.column_stats["built"] == 3
        assert set(oracle._columns) == {6, 9, "final"}
        assert np.flatnonzero(oracle._banked).tolist() == [0, 6, 9, _LAYERS + 1]
        for row, column in ((6, oracle.exit_column(6)), (-1, oracle.final_column())):
            bits = np.unpackbits(oracle._bank[row].view(np.uint8))
            assert np.array_equal(bits[:100], column) and not bits[100:].any()
        assert not oracle._bank[0].any()
        oracle.evaluate_placements([_placement([6, 9, 12])])
        assert oracle.column_stats["built"] == 4


class TestPopcountRows:
    """Both row-popcount branches count every set bit of every word."""

    def test_matches_bin_count(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64, size=(6, 5), dtype=np.uint64, endpoint=False)
        words[0] = 0
        words[1] = np.uint64(2**64 - 1)
        words[2, 3] = np.uint64(2**63)
        want = [sum(bin(int(word)).count("1") for word in row) for row in words]
        # The byte-table branch is called directly so it runs under any numpy.
        assert exit_model._popcount_rows_table(words).tolist() == want
        assert exit_model.popcount_rows(words).tolist() == want


class TestPopulationStats:
    """Stacked rows mirror the per-placement evaluations exactly."""

    def test_rows_match_evaluations(self):
        oracle = _oracle()
        placements = [
            _placement([6]),
            _placement([6, 9, 12]),
            _placement([7, 8, 9, 10, 11]),
        ]
        stats = oracle.evaluate_placements(placements)
        assert len(stats) == len(placements)
        for row, (placement, evaluation) in enumerate(zip(placements, stats)):
            w = placement.num_exits
            assert stats.widths[row] == w
            assert tuple(stats.positions[row, :w].tolist()) == placement.positions
            assert not stats.positions[row, w:].any()
            assert np.array_equal(stats.n_i[row, :w], evaluation.n_i)
            assert np.array_equal(stats.usage_head[row, :w], evaluation.usage[:-1])
            assert stats.usage_tail[row] == evaluation.usage[-1]
            assert np.array_equal(
                stats.dissimilarity[row, :w], evaluation.dissimilarity
            )
            assert stats.dynamic_accuracy[row] == evaluation.dynamic_accuracy
            _assert_stats_identical(evaluation, oracle.evaluate_placement(placement))

    def test_empty_population(self):
        stats = _oracle().evaluate_placements([])
        assert len(stats) == 0 and list(stats) == []


class _EvalContext:
    """Fused vs unfused (spec) evaluators sharing one oracle per platform."""

    def __init__(self, platform_key: str):
        platform = get_platform(platform_key)
        model = EnergyModel(platform)
        cost = estimate_cost(_CONFIG)
        self.dvfs = DvfsSpace(platform)
        oracle = _oracle()
        base = model.network_report(cost, self.dvfs.default_setting())
        kwargs = dict(
            config=_CONFIG,
            cost=cost,
            oracle=oracle,
            energy_model=model,
            baseline_energy_j=base.energy_j,
            baseline_latency_s=base.latency_s,
        )
        self.fused = DynamicEvaluator(**kwargs)
        self.reference = spec_evaluation.UnfusedEvaluator(**kwargs)


_EVAL_CONTEXTS: dict[str, _EvalContext] = {}


def _context(platform_key: str) -> _EvalContext:
    if platform_key not in _EVAL_CONTEXTS:
        _EVAL_CONTEXTS[platform_key] = _EvalContext(platform_key)
    return _EVAL_CONTEXTS[platform_key]


def _generation(evaluator, decoded):
    """``evaluate_generation`` on (placement, setting) pairs."""
    positions, _ = position_matrix([placement.positions for placement, _ in decoded])
    return evaluator.evaluate_generation(positions, [setting for _, setting in decoded])


class TestFusedObjectives:
    """Objective matrices equal the per-row scalar objectives bitwise."""

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_objectives_bitwise(self, platform_key, data):
        ctx = _context(platform_key)
        placements = data.draw(_placements_strategy())
        setting = ctx.dvfs.all_settings()[
            data.draw(st.integers(0, len(ctx.dvfs.all_settings()) - 1))
        ]
        fused = ctx.fused.evaluate_population(placements, setting)
        reference = ctx.reference.evaluate_population(placements, setting)
        assert np.array_equal(fused.objectives, reference.objectives)
        assert np.array_equal(fused.d_scores, reference.d_scores)
        for row, evaluation in enumerate(fused):
            want = spec_evaluation.scalar_objectives(ctx.fused, evaluation)
            assert tuple(fused.objectives[row].tolist()) == want

    @pytest.mark.parametrize("platform_key", PLATFORM_KEYS)
    def test_generation_matches_per_call(self, platform_key):
        """evaluate_generation == [evaluate(p, s) ...] across mixed
        settings, order-preserving."""
        ctx = _context(platform_key)
        settings_list = ctx.dvfs.all_settings()
        decoded = [
            (_placement([6, 9]), settings_list[0]),
            (_placement([7, 12, 15]), settings_list[-1]),
            (_placement([6, 9]), settings_list[-1]),
            (_placement([8]), settings_list[0]),
            (_placement([6, 9]), settings_list[0]),  # duplicate pair
        ]
        got = _generation(ctx.fused, decoded)
        assert len(got) == len(decoded)
        for evaluation, (placement, setting) in zip(got, decoded):
            want = ctx.reference.evaluate(placement, setting)
            assert evaluation.placement == placement
            assert evaluation.setting == setting
            assert np.array_equal(evaluation.scores, want.scores)
            assert evaluation.dynamic_energy_j == want.dynamic_energy_j
            assert evaluation.dynamic_latency_s == want.dynamic_latency_s
            assert evaluation.energy_gain == want.energy_gain
            assert evaluation.latency_gain == want.latency_gain
            assert evaluation.d_score == want.d_score

    def test_rows_are_built_and_own_their_arrays(self):
        """Indexing a block builds the whole row: every field set, every
        array a copy, equal to the per-pair ``evaluate``."""
        ctx = _context("tx2-gpu")
        settings_list = ctx.dvfs.all_settings()
        decoded = [
            (_placement([6, 10, 14]), settings_list[0]),
            (_placement([7]), settings_list[-1]),
            (_placement([6, 10, 14]), settings_list[-1]),
        ]
        generation = _generation(ctx.fused, decoded)
        assert generation.objectives.shape == (3, 3)
        rows = [generation[-1], *generation]
        assert rows[0].d_score == generation.d_scores[2]
        for evaluation, (placement, setting) in zip(rows, decoded[-1:] + decoded):
            want = ctx.reference.evaluate(placement, setting)
            stats = evaluation.exit_stats
            assert set(evaluation.__dict__) == {f.name for f in dataclasses.fields(evaluation)}
            arrays = [stats.n_i, stats.usage, evaluation.scores]
            arrays += [evaluation.exit_energy_j, evaluation.exit_latency_s]
            assert all(array.base is None for array in arrays)
            assert evaluation.placement == placement and evaluation.setting == setting
            assert np.array_equal(stats.n_i, want.exit_stats.n_i)
            assert np.array_equal(stats.usage, want.exit_stats.usage)
            assert np.array_equal(evaluation.exit_energy_j, want.exit_energy_j)
            assert np.array_equal(evaluation.exit_latency_s, want.exit_latency_s)
            assert np.array_equal(evaluation.scores, want.scores)
            assert evaluation.dynamic_energy_j == want.dynamic_energy_j
            assert evaluation.dynamic_latency_s == want.dynamic_latency_s
            assert evaluation.energy_gain == want.energy_gain
            assert evaluation.latency_gain == want.latency_gain
            assert evaluation.d_score == want.d_score

    def test_block_arrays_own_their_memory(self):
        """A retained block keeps only its own arrays alive: ``d_scores``
        and ``objectives`` are not views of the evaluator's scratch."""
        ctx = _context("tx2-gpu")
        generation = ctx.fused.evaluate_population(
            [_placement([6, 10, 14]), _placement([7])], ctx.dvfs.default_setting()
        )
        assert generation.d_scores.shape == (2,)
        assert generation.d_scores.base is None
        assert generation.objectives.base is None


class TestEngineEquivalence:
    """Whole-engine archives equal those of the per-placement oracle and
    unfused objectives (``spec.evaluation``)."""

    def _engines(self, static_evaluator, surrogate):
        from repro.search.ioe import InnerEngine
        from repro.search.nsga2 import Nsga2Config

        backbone = attentivenas_model("a0")
        fraction = surrogate.accuracy_fraction(backbone)
        nsga = Nsga2Config(population=8, generations=3)
        on = InnerEngine(
            backbone, static_evaluator, fraction, nsga=nsga, seed=11
        )
        off = spec_evaluation.SpecInnerEngine(
            backbone,
            static_evaluator,
            fraction,
            nsga=nsga,
            seed=11,
            evaluator_cls=spec_evaluation.UnfusedEvaluator,
            oracle_cls=spec_evaluation.PerPlacementOracle,
        )
        return on, off

    def test_ioe_archive_unchanged(self, static_evaluator, surrogate):
        on, off = self._engines(static_evaluator, surrogate)
        result_on, result_off = on.run(), off.run()
        assert [i.key() for i in result_on.explored] == [
            i.key() for i in result_off.explored
        ]
        for a, b in zip(result_on.explored, result_off.explored):
            assert np.array_equal(a.objectives, b.objectives)
        assert sorted(i.key() for i in result_on.pareto) == sorted(
            i.key() for i in result_off.pareto
        )

    def test_random_search_archive_unchanged(self, static_evaluator, surrogate):
        from repro.search.random_search import RandomSearch

        on, off = self._engines(static_evaluator, surrogate)
        search_on = RandomSearch(on.problem, budget=20, rng=5)
        search_off = RandomSearch(off.problem, budget=20, rng=5)
        history_on, history_off = search_on.run(), search_off.run()
        assert [i.key() for i in history_on] == [i.key() for i in history_off]
        for a, b in zip(history_on, history_off):
            assert np.array_equal(a.objectives, b.objectives)
        assert sorted(i.key() for i in search_on.pareto()) == sorted(
            i.key() for i in search_off.pareto()
        )
