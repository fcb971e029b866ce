"""Multi-objective metrics: dominance, Pareto sort, hypervolume, RoD."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics.dominance_ratio import dominance_report, ratio_of_dominance
from repro.metrics.hypervolume import hypervolume
from repro.metrics.pareto import (
    _pairwise_ge,
    crowding_distance,
    dominates,
    non_dominated_mask,
    non_dominated_sort,
    pareto_front,
    pareto_rows,
)
from spec import pareto as spec_pareto

point_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 30), st.integers(2, 3)),
    elements=st.floats(-5, 5, allow_nan=False),
)


class TestDominates:
    def test_strict(self):
        assert dominates(np.asarray([1, 2]), np.asarray([0, 2]))
        assert not dominates(np.asarray([1, 2]), np.asarray([1, 2]))
        assert not dominates(np.asarray([1, 0]), np.asarray([0, 1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dominates(np.zeros(2), np.zeros(3))

    @settings(max_examples=50, deadline=None)
    @given(point_arrays)
    def test_antisymmetric(self, points):
        a, b = points[0], points[-1]
        assert not (dominates(a, b) and dominates(b, a))


class TestNonDominated:
    def test_known_front(self):
        pts = np.asarray([[1, 3], [2, 2], [3, 1], [1, 1], [0, 0]])
        mask = non_dominated_mask(pts)
        np.testing.assert_array_equal(mask, [True, True, True, False, False])

    def test_duplicates_all_kept(self):
        pts = np.asarray([[1, 1], [1, 1], [0, 0]])
        mask = non_dominated_mask(pts)
        assert mask[0] and mask[1] and not mask[2]

    @settings(max_examples=50, deadline=None)
    @given(point_arrays)
    def test_front_is_mutually_nondominated(self, points):
        front = pareto_front(points)
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not dominates(front[i], front[j])

    @settings(max_examples=50, deadline=None)
    @given(point_arrays)
    def test_every_point_dominated_by_or_on_front(self, points):
        front = pareto_front(points)
        for p in points:
            on_front = any(np.array_equal(p, f) for f in front)
            dominated = any(dominates(f, p) for f in front)
            assert on_front or dominated


class TestNonDominatedSort:
    def test_fronts_partition(self):
        rng = np.random.default_rng(0)
        pts = rng.random((40, 3))
        fronts = non_dominated_sort(pts)
        flat = np.concatenate(fronts)
        assert sorted(flat.tolist()) == list(range(40))

    def test_front_ordering(self):
        pts = np.asarray([[2, 2], [1, 1], [0, 0]])
        fronts = non_dominated_sort(pts)
        assert [f.tolist() for f in fronts] == [[0], [1], [2]]

    def test_first_front_matches_mask(self):
        rng = np.random.default_rng(1)
        pts = rng.random((30, 2))
        fronts = non_dominated_sort(pts)
        mask = non_dominated_mask(pts)
        assert sorted(fronts[0].tolist()) == sorted(np.flatnonzero(mask).tolist())


class TestVectorizedMatchesReference:
    """The matrix-peel sort/mask equal the double-loop spec exactly.

    Dominance is a pure comparison, so the vectorized partitions must match
    index for index and order for order — the NSGA-II trajectory depends on
    the in-front index order, not just the partition sets.
    """

    @settings(max_examples=60, deadline=None)
    @given(point_arrays)
    def test_sort_identical(self, points):
        got = non_dominated_sort(points)
        want = spec_pareto.non_dominated_sort(points)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tolist() == list(w)

    @settings(max_examples=60, deadline=None)
    @given(point_arrays)
    def test_mask_identical(self, points):
        np.testing.assert_array_equal(
            non_dominated_mask(points), spec_pareto.non_dominated_mask(points)
        )

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 3), st.integers(0, 2**31))
    def test_pareto_rows_is_the_mask(self, rows, objectives, seed):
        """Tie-heavy matrices with duplicate rows, long enough to cross the
        filter's merge blocks."""
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 5, size=(rows, objectives)).astype(float)
        want = np.flatnonzero(spec_pareto.non_dominated_mask(points))
        assert pareto_rows(points).tolist() == want.tolist()

    def test_duplicate_rows_share_front(self):
        pts = np.asarray([[1.0, 1.0], [1.0, 1.0], [0.0, 2.0], [0.0, 0.0]])
        got = non_dominated_sort(pts)
        want = spec_pareto.non_dominated_sort(pts)
        assert [g.tolist() for g in got] == [list(w) for w in want]

    def test_all_equal_rows_single_front(self):
        pts = np.ones((7, 3))
        fronts = non_dominated_sort(pts)
        assert len(fronts) == 1 and fronts[0].tolist() == list(range(7))

    def test_empty(self):
        assert non_dominated_mask(np.zeros((0, 3))).shape == (0,)
        assert pareto_rows(np.zeros((0, 3))).shape == (0,)
        assert non_dominated_sort(np.zeros((0, 3))) == []


class TestCrowding:
    def test_extremes_infinite(self):
        pts = np.asarray([[0, 3], [1, 2], [2, 1], [3, 0]])
        crowd = crowding_distance(pts)
        assert np.isinf(crowd[0]) and np.isinf(crowd[-1])
        assert np.isfinite(crowd[1]) and np.isfinite(crowd[2])

    def test_small_sets_infinite(self):
        assert np.isinf(crowding_distance(np.asarray([[1, 2]]))).all()
        assert np.isinf(crowding_distance(np.asarray([[1, 2], [2, 1]]))).all()

    def test_denser_is_smaller(self):
        pts = np.asarray([[0.0, 4.0], [1.0, 3.0], [1.1, 2.9], [2.0, 2.0], [4.0, 0.0]])
        crowd = crowding_distance(pts)
        assert crowd[2] < crowd[3]

    def test_constant_objective_ignored(self):
        pts = np.asarray([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        crowd = crowding_distance(pts)
        assert np.isfinite(crowd[1])


def _crowding_one_front(points: np.ndarray) -> np.ndarray:
    """Spec: single-front NSGA-II crowding, one stable argsort per objective."""
    n, m = points.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(points[:, k], kind="stable")
        lo, hi = points[order[0], k], points[order[-1], k]
        distance[order[0]] = distance[order[-1]] = np.inf
        span = hi - lo
        if span <= 0:
            continue
        gaps = (points[order[2:], k] - points[order[:-2], k]) / span
        distance[order[1:-1]] += gaps
    return distance


def _crowding_per_front(points: np.ndarray, fronts: np.ndarray) -> np.ndarray:
    """Spec: the single-front loop run on each front in turn."""
    distance = np.zeros(len(points))
    for front in np.unique(fronts):
        rows = np.flatnonzero(fronts == front)
        distance[rows] = _crowding_one_front(points[rows])
    return distance


#: Tie-heavy point sets: few distinct values per objective, so equal values,
#: constant objectives and duplicated rows are common.
tie_heavy_points = st.tuples(st.integers(1, 40), st.integers(1, 4)).flatmap(
    lambda shape: hnp.arrays(
        np.float64, shape, elements=st.sampled_from([-1.5, 0.0, 0.25, 1.0, 2.0])
    )
)


class TestAllFrontsCrowding:
    @settings(max_examples=80, deadline=None)
    @given(tie_heavy_points, st.data())
    def test_matches_per_front_loop_on_random_fronts(self, points, data):
        fronts = np.asarray(
            data.draw(st.lists(st.integers(0, 4), min_size=len(points), max_size=len(points)))
        )
        got = crowding_distance(points, fronts)
        assert got.tobytes() == _crowding_per_front(points, fronts).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_points)
    def test_matches_per_front_loop_on_sorted_fronts(self, points):
        fronts = np.empty(len(points), dtype=np.int64)
        for rank, front in enumerate(non_dominated_sort(points)):
            fronts[front] = rank
        got = crowding_distance(points, fronts)
        assert got.tobytes() == _crowding_per_front(points, fronts).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(point_arrays)
    def test_one_front_by_default(self, points):
        got = crowding_distance(points)
        assert got.tobytes() == _crowding_one_front(points).tobytes()

    def test_empty(self):
        assert crowding_distance(np.zeros((0, 2))).shape == (0,)


class TestPairwiseGe:
    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_points)
    def test_matches_broadcast_reduction(self, points):
        want = (points[:, None, :] >= points[None, :, :]).all(axis=2)
        assert np.array_equal(_pairwise_ge(points), want)

    def test_row_blocks_match_broadcast_reduction(self):
        # More rows than one block holds (4e6 // n < n).
        points = np.random.default_rng(0).integers(0, 4, size=(2100, 2)).astype(float)
        want = (points[:, None, :] >= points[None, :, :]).all(axis=2)
        assert np.array_equal(_pairwise_ge(points), want)

    def test_no_objectives(self):
        assert _pairwise_ge(np.zeros((3, 0))).all()


class TestHypervolume:
    def test_single_point_rectangle(self):
        assert hypervolume(np.asarray([[2.0, 3.0]]), np.zeros(2)) == pytest.approx(6.0)

    def test_two_point_staircase(self):
        pts = np.asarray([[2.0, 1.0], [1.0, 2.0]])
        assert hypervolume(pts, np.zeros(2)) == pytest.approx(3.0)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume(np.asarray([[2.0, 2.0]]), np.zeros(2))
        extra = hypervolume(np.asarray([[2.0, 2.0], [1.0, 1.0]]), np.zeros(2))
        assert extra == pytest.approx(base)

    def test_below_reference_ignored(self):
        assert hypervolume(np.asarray([[-1.0, 5.0]]), np.zeros(2)) == 0.0

    def test_3d_box(self):
        assert hypervolume(np.asarray([[1.0, 2.0, 3.0]]), np.zeros(3)) == pytest.approx(6.0)

    def test_3d_two_boxes(self):
        pts = np.asarray([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
        # union volume = 2 + 2 - 1 (overlap) = 3
        assert hypervolume(pts, np.zeros(3)) == pytest.approx(3.0)

    def test_3d_matches_monte_carlo(self):
        rng = np.random.default_rng(2)
        pts = rng.random((12, 3))
        exact = hypervolume(pts, np.zeros(3))
        samples = rng.random((200_000, 3))
        covered = np.zeros(len(samples), dtype=bool)
        for p in pts:
            covered |= np.all(samples < p, axis=1)
        assert exact == pytest.approx(covered.mean(), abs=0.01)

    def test_1d(self):
        assert hypervolume(np.asarray([[3.0], [5.0]]), np.asarray([1.0])) == pytest.approx(4.0)

    def test_reference_mismatch(self):
        with pytest.raises(ValueError):
            hypervolume(np.zeros((2, 2)), np.zeros(3))

    def test_4d_not_implemented(self):
        with pytest.raises(NotImplementedError):
            hypervolume(np.zeros((2, 4)), np.zeros(4))

    @settings(max_examples=30, deadline=None)
    @given(point_arrays)
    def test_monotone_under_point_addition(self, points):
        reference = points.min(axis=0) - 1.0
        base = hypervolume(points[:-1], reference) if len(points) > 1 else 0.0
        assert hypervolume(points, reference) >= base - 1e-9


class TestRatioOfDominance:
    def test_total_dominance(self):
        ours = np.asarray([[2.0, 2.0], [3.0, 3.0]])
        theirs = np.asarray([[1.0, 1.0]])
        assert ratio_of_dominance(ours, theirs) == 1.0
        assert ratio_of_dominance(theirs, ours) == 0.0

    def test_partial(self):
        ours = np.asarray([[2.0, 2.0], [0.0, 0.0]])
        theirs = np.asarray([[1.0, 1.0]])
        assert ratio_of_dominance(ours, theirs) == 0.5

    def test_empty_ours(self):
        assert ratio_of_dominance(np.zeros((0, 2)), np.ones((3, 2))) == 0.0

    def test_report_advantage(self):
        report = dominance_report(np.asarray([[2.0, 2.0]]), np.asarray([[1.0, 1.0]]))
        assert report.advantage == pytest.approx(1.0)

    def test_incomparable_sets(self):
        ours = np.asarray([[1.0, 0.0]])
        theirs = np.asarray([[0.0, 1.0]])
        report = dominance_report(ours, theirs)
        assert report.rod_a_over_b == 0.0 and report.rod_b_over_a == 0.0
