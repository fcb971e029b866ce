"""Exit machinery: placement space X, evaluation semantics, branches."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exits.branch import ExitBranch
from repro.exits.evaluation import evaluate_exit_logits, ideal_mapping_stats
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement, ExitSpace
from repro.nn.tensor import Tensor


class TestExitPlacement:
    def test_valid(self):
        placement = ExitPlacement(20, (5, 10, 19))
        assert placement.num_exits == 3

    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            ExitPlacement(20, ())

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            ExitPlacement(20, (4,))  # before layer 5
        with pytest.raises(ValueError):
            ExitPlacement(20, (20,))  # the final layer hosts no exit

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            ExitPlacement(20, (7, 7))
        with pytest.raises(ValueError):
            ExitPlacement(20, (9, 7))

    def test_indicator_roundtrip(self):
        placement = ExitPlacement(20, (5, 12, 19))
        back = ExitPlacement.from_indicators(20, placement.indicators)
        assert back == placement

    def test_indicator_length(self):
        placement = ExitPlacement(20, (5,))
        assert len(placement.indicators) == 20 - MIN_EXIT_POSITION

    def test_indicator_wrong_length(self):
        with pytest.raises(ValueError):
            ExitPlacement.from_indicators(20, np.ones(3))

    def test_relative_depths(self):
        placement = ExitPlacement(20, (5, 10))
        np.testing.assert_allclose(placement.relative_depths(), [0.25, 0.5])

    def test_key_distinct(self):
        assert ExitPlacement(20, (5,)).key != ExitPlacement(20, (6,)).key

    @settings(max_examples=40, deadline=None)
    @given(st.integers(8, 40), st.data())
    def test_roundtrip_random(self, layers, data):
        slots = layers - MIN_EXIT_POSITION
        bits = data.draw(
            hnp.arrays(np.int64, slots, elements=st.integers(0, 1)).filter(
                lambda a: a.sum() > 0
            )
        )
        placement = ExitPlacement.from_indicators(layers, bits)
        np.testing.assert_array_equal(placement.indicators, bits)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 40), st.integers(1, 8), st.data())
    def test_indicator_rows_match_per_row(self, layers, rows, data):
        """The matrix decoder equals the validated per-row construction."""
        slots = layers - MIN_EXIT_POSITION
        bits = data.draw(hnp.arrays(np.int64, (rows, slots), elements=st.integers(0, 1)))
        bits[~bits.any(axis=1), -1] = 1
        decoded = ExitPlacement.from_indicator_rows(layers, bits)
        assert len(decoded) == rows
        for placement, row in zip(decoded, bits):
            want = ExitPlacement(
                layers, tuple(int(i) + MIN_EXIT_POSITION for i in np.flatnonzero(row))
            )
            assert placement == want == ExitPlacement.from_indicators(layers, row)
            assert hash(placement) == hash(want) and placement.key == want.key
            assert all(type(p) is int for p in placement.positions)

    def test_indicator_rows_reject_malformed(self):
        bits = np.zeros((3, 15), dtype=np.int64)
        bits[:, 4] = 1
        with pytest.raises(ValueError, match="15 indicators"):
            ExitPlacement.from_indicator_rows(20, bits[:, :14])
        with pytest.raises(ValueError, match="15 indicators"):
            ExitPlacement.from_indicator_rows(20, bits[0])
        for value in (2, -1):
            bad = bits.copy()
            bad[1, 7] = value
            with pytest.raises(ValueError, match=f"gene 7 of row 1 is {value}"):
                ExitPlacement.from_indicator_rows(20, bad)
        empty = bits.copy()
        empty[2] = 0
        with pytest.raises(ValueError, match="at least one exit"):
            ExitPlacement.from_indicator_rows(20, empty)

    def test_indicators_reject_non_binary_gene(self):
        """A gene of 2 is rejected, not read as an exit."""
        vec = np.zeros(15, dtype=np.int64)
        vec[[2, 6]] = (1, 2)
        with pytest.raises(ValueError, match=r"gene 6 of row 0 is 2, outside \{0, 1\}"):
            ExitPlacement.from_indicators(20, vec)


class TestExitSpace:
    def test_table2_formulas(self):
        """Table II: max(n_X) = sum(l_i) - 5 and positions in [5, L)."""
        space = ExitSpace(22)
        assert space.max_exits == 22 - 5
        assert space.num_slots == 17
        assert space.cardinality() == 2**17 - 1

    def test_count_with_exits_binomial(self):
        space = ExitSpace(15)
        assert space.count_with_exits(1) == 10
        assert space.count_with_exits(10) == 1
        assert sum(space.count_with_exits(k) for k in range(1, 11)) == space.cardinality()

    def test_too_shallow_backbone_rejected(self):
        with pytest.raises(ValueError):
            ExitSpace(5)

    def test_sample_valid(self, rng):
        space = ExitSpace(18)
        for _ in range(30):
            placement = space.sample(rng)
            assert 1 <= placement.num_exits <= space.max_exits

    def test_sample_density(self, rng):
        space = ExitSpace(40)
        counts = [space.sample(rng, density=0.5).num_exits for _ in range(100)]
        assert abs(np.mean(counts) - 0.5 * space.num_slots) < 4

    def test_repair_empty(self, rng):
        space = ExitSpace(12)
        repaired = space.repair(np.zeros(space.num_slots), rng)
        assert repaired.sum() == 1

    def test_repair_keeps_valid(self, rng):
        space = ExitSpace(12)
        bits = np.zeros(space.num_slots, dtype=np.int64)
        bits[2] = 1
        np.testing.assert_array_equal(space.repair(bits, rng), bits)


class TestIdealMappingStats:
    def test_known_case(self):
        # 4 samples, 2 exits + final.
        correct = np.asarray([
            [1, 1, 1],   # exits at 0
            [0, 1, 1],   # exits at 1
            [0, 0, 1],   # runs full, correct
            [0, 0, 0],   # runs full, wrong
        ], dtype=bool)
        stats = ideal_mapping_stats(correct)
        np.testing.assert_allclose(stats.n_i, [0.25, 0.5])
        assert stats.final_accuracy == 0.75
        assert stats.dynamic_accuracy == 0.75
        np.testing.assert_allclose(stats.usage, [0.25, 0.25, 0.5])

    def test_union_gain(self):
        correct = np.asarray([[1, 0], [0, 1]], dtype=bool)  # 1 exit + final
        stats = ideal_mapping_stats(correct)
        assert stats.dynamic_accuracy == 1.0
        assert stats.final_accuracy == 0.5

    def test_dissimilarity_definition(self):
        correct = np.zeros((10, 4), dtype=bool)
        correct[:3, 0] = True   # N_1 = 0.3
        correct[:6, 1] = True   # N_2 = 0.6
        correct[:5, 2] = True   # N_3 = 0.5
        stats = ideal_mapping_stats(correct)
        np.testing.assert_allclose(stats.dissimilarity, [1.0, 0.7, 0.4])

    def test_mean_n_i(self):
        correct = np.zeros((4, 3), dtype=bool)
        correct[:2, 0] = True
        correct[:1, 1] = True
        stats = ideal_mapping_stats(correct)
        assert stats.mean_n_i == pytest.approx((0.5 + 0.25) / 2)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            ideal_mapping_stats(np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 40), st.integers(1, 6))))
    def test_invariants(self, correct):
        stats = ideal_mapping_stats(correct)
        assert stats.usage.sum() == pytest.approx(1.0)
        assert 0 <= stats.dynamic_accuracy <= 1
        assert stats.dynamic_accuracy >= stats.final_accuracy - 1e-12
        assert stats.dynamic_accuracy >= max(stats.n_i, default=0) - 1e-12
        assert np.all(stats.dissimilarity >= 0) and np.all(stats.dissimilarity <= 1)
        # Usage at exit i can never exceed its marginal N_i.
        for i in range(stats.num_exits):
            assert stats.usage[i] <= stats.n_i[i] + 1e-12


class TestEvaluateExitLogits:
    def test_from_logits(self):
        labels = np.asarray([0, 1, 1])
        exit_logits = np.zeros((2, 3, 2))
        exit_logits[0, 0, 0] = 5.0   # exit0 correct on sample0
        exit_logits[0, 1:, 0] = 5.0  # exit0 wrong on samples 1,2
        exit_logits[1, :, 1] = 5.0   # exit1 predicts class1: right on 1,2
        final_logits = np.zeros((3, 2))
        final_logits[:, 1] = 5.0     # final predicts class1
        stats = evaluate_exit_logits(exit_logits, final_logits, labels)
        np.testing.assert_allclose(stats.n_i, [1 / 3, 2 / 3])
        assert stats.dynamic_accuracy == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            evaluate_exit_logits(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3))


class TestExitBranch:
    def test_output_shape(self):
        branch = ExitBranch(in_channels=8, num_classes=5, seed=0)
        out = branch(Tensor(np.random.default_rng(0).normal(size=(2, 8, 6, 6))))
        assert out.shape == (2, 5)

    def test_custom_width(self):
        branch = ExitBranch(8, 5, branch_width=4, seed=0)
        assert branch.width == 4
        out = branch(Tensor(np.zeros((1, 8, 4, 4))))
        assert out.shape == (1, 5)

    def test_trainable(self):
        branch = ExitBranch(4, 3, seed=0)
        out = branch(Tensor(np.random.default_rng(1).normal(size=(2, 4, 4, 4))))
        (out * out).sum().backward()
        assert all(p.grad is not None for p in branch.parameters())

    def test_seeded_init_deterministic(self):
        a = ExitBranch(4, 3, seed=9)
        b = ExitBranch(4, 3, seed=9)
        np.testing.assert_array_equal(a.conv.weight.data, b.conv.weight.data)
