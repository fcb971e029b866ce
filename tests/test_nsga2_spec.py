"""The array NSGA-II engine against its executable spec (``spec.search``).

* seeded runs of :class:`~repro.search.nsga2.NSGA2` and
  :class:`spec.search.SpecNSGA2` on the toy problem and on an IOE problem:
  the same final population, history, evaluation count and RNG state;
* the bounded non-dominated sort returns the full sort's leading fronts;
* array selection keeps what :func:`environmental_selection` keeps, with
  the same ranks and crowding, on tie-heavy matrices with duplicate rows;
* the archive of an evaluation table's Pareto rows is the archive of the
  whole materialised history, and the IOE's archive is that one;
* an OOE run with one IOE candidate per generation (too few survivors, so
  the whole ranked population mates) is the same on either engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.search.nsga2 as nsga2_module
from repro.baselines.attentivenas import attentivenas_model
from repro.metrics.pareto import non_dominated_sort, pareto_rows
from repro.search.archive import ParetoArchive
from repro.search.hadas import HadasConfig, HadasSearch
from repro.search.individual import Individual
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import (
    NSGA2,
    Nsga2Config,
    Problem,
    environmental_selection,
    rank_and_crowd,
    select,
)
from spec import pareto as spec_pareto
from spec import search as spec_search
from spec.search import SpecNSGA2, ZdtLikeProblem


def _assert_same_members(got: list[Individual], want: list[Individual]) -> None:
    assert [ind.key() for ind in got] == [ind.key() for ind in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.objectives, b.objectives)


def _assert_same_run(engine: NSGA2, spec: SpecNSGA2) -> tuple[list, list]:
    """Both runs to the end: the same final population, history,
    evaluation count and RNG state; returns both final populations."""
    final, want = engine.table.individuals(engine.run()), spec.run()
    rank_and_crowd(final)
    _assert_same_members(final, want)
    assert [(ind.rank, ind.crowding) for ind in final] == [
        (ind.rank, ind.crowding) for ind in want
    ]
    _assert_same_members(engine.history, spec.history)
    assert engine.num_evaluations == spec.num_evaluations
    assert engine.rng.bit_generator.state == spec.rng.bit_generator.state
    return final, want


class TestRunMatchesSpec:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("population,generations", [(10, 6), (7, 5), (2, 4)])
    def test_toy_problem(self, seed, population, generations):
        config = Nsga2Config(population=population, generations=generations)
        _assert_same_run(
            NSGA2(ZdtLikeProblem(), config, rng=seed),
            SpecNSGA2(ZdtLikeProblem(), config, rng=seed),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_ioe_problem(self, seed, static_evaluator, surrogate):
        """a3 on tx2-gpu: the fused generation kernel behind the batch hook."""
        backbone = attentivenas_model("a3")
        fraction = surrogate.accuracy_fraction(backbone)

        def problem():
            return InnerEngine(backbone, static_evaluator, fraction, seed=seed).problem

        config = Nsga2Config(population=16, generations=6)
        final, want = _assert_same_run(
            NSGA2(problem(), config, rng=seed), SpecNSGA2(problem(), config, rng=seed)
        )
        for a, b in zip(final, want):
            assert a.payload["evaluation"].d_score == b.payload["evaluation"].d_score
            assert a.payload["evaluation"].placement == b.payload["evaluation"].placement


def _tie_heavy():
    """Small integer objective matrices: many ties, many duplicate rows."""
    return st.tuples(st.integers(1, 40), st.integers(1, 3), st.integers(0, 2**31)).map(
        lambda shape: np.random.default_rng(shape[2])
        .integers(0, 4, size=shape[:2])
        .astype(float)
    )


class TestBoundedSelectionLaws:
    @settings(max_examples=120, deadline=None)
    @given(_tie_heavy(), st.integers(0, 45))
    def test_bounded_sort_is_the_leading_fronts(self, points, bound):
        full = non_dominated_sort(points)
        covered = np.cumsum([len(front) for front in full])
        leading = 0 if bound == 0 else min(int(np.searchsorted(covered, bound)) + 1, len(full))
        want = [front.tolist() for front in full[:leading]]
        assert [front.tolist() for front in non_dominated_sort(points, bound)] == want
        spec = spec_pareto.non_dominated_sort(points, bound)
        assert [list(front) for front in spec] == want

    @settings(max_examples=120, deadline=None)
    @given(_tie_heavy(), st.data())
    def test_select_keeps_what_environmental_selection_keeps(self, points, data):
        size = data.draw(st.integers(1, len(points)))
        population = [
            Individual(genome=np.asarray([i]), objectives=row) for i, row in enumerate(points)
        ]
        want = environmental_selection(population, size)
        rows, rank, crowding = select(points, size)
        assert rows.tolist() == [int(ind.genome[0]) for ind in want]
        assert rank.tolist() == [ind.rank for ind in want]
        assert crowding.tolist() == [ind.crowding for ind in want]
        spec = spec_search.environmental_selection(population, size)
        assert [int(ind.genome[0]) for ind in spec] == rows.tolist()


class _TableProblem(Problem):
    """Genomes of two genes in [0, 5]; tie-heavy objectives of their
    gene values, with a payload naming the genome."""

    def evaluate(self, genome):
        return np.asarray([genome[0] % 3, genome[1] % 2, -genome[0]], dtype=float), {
            "genome": tuple(genome.tolist())
        }


class TestTableArchive:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=6), st.integers(0, 2**31))
    def test_table_archive_is_the_history_archive(self, sizes, seed):
        """Generations with repeated genomes, within and across them."""
        rng = np.random.default_rng(seed)
        engine = NSGA2(_TableProblem(), Nsga2Config(population=2, generations=1))
        for size in sizes:
            engine.evaluate(rng.integers(0, 6, size=(size, 2)))
        want = ParetoArchive(engine.history)
        got = ParetoArchive(engine.table.individuals(pareto_rows(engine.table.objectives)))
        _assert_same_members(list(got), list(want))
        assert np.array_equal(got.objectives(), want.objectives())
        assert [ind.payload for ind in got] == [ind.payload for ind in want]

    @pytest.mark.parametrize("seed", range(3))
    def test_ioe_archive_is_the_history_archive(self, seed, static_evaluator, surrogate):
        backbone = attentivenas_model("a3")
        result = InnerEngine(
            backbone,
            static_evaluator,
            surrogate.accuracy_fraction(backbone),
            nsga=Nsga2Config(population=12, generations=5),
            seed=seed,
        ).run()
        want = ParetoArchive(result.explored)
        _assert_same_members(list(result.pareto), list(want))
        assert np.array_equal(result.pareto.objectives(), want.objectives())
        assert len(result.explored) == 12 * 5


class _PoolRecordingSpec(SpecNSGA2):
    pools: list[int] = []

    def make_offspring(self, population):
        self.pools.append(len(population))
        return super().make_offspring(population)


class TestOuterEngineOnSpec:
    def test_single_candidate_fallback_matches(self, monkeypatch):
        config = HadasConfig(
            platform="tx2-gpu",
            seed=3,
            outer_population=6,
            outer_generations=3,
            inner_population=8,
            inner_generations=3,
            ioe_candidates=1,
            oracle_samples=256,
        )
        got = HadasSearch(config).run().outer
        monkeypatch.setattr(nsga2_module, "NSGA2", _PoolRecordingSpec)
        _PoolRecordingSpec.pools = []
        want = HadasSearch(config).run().outer
        # One survivor per generation: every mating pool is the population.
        assert _PoolRecordingSpec.pools == [config.outer_population] * 2

        _assert_same_members(got.explored, want.explored)
        _assert_same_members(list(got.static_archive), list(want.static_archive))
        _assert_same_members(list(got.dynamic_archive), list(want.dynamic_archive))
        assert got.num_static_evaluations == want.num_static_evaluations
        assert got.num_dynamic_evaluations == want.num_dynamic_evaluations
        assert list(got.inner_results) == list(want.inner_results)
