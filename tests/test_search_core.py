"""NSGA-II engine, genetic operators, and the Pareto archive."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.pareto import dominates
from repro.search import operators
from repro.search.archive import ParetoArchive
from repro.search.individual import Individual
from repro.search.nsga2 import (
    NSGA2,
    Nsga2Config,
    environmental_selection,
    rank_and_crowd,
)
from spec.search import SequentialArchive, ZdtLikeProblem


class TestOperators:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 2**31))
    def test_uniform_crossover_preserves_multiset(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 5, size=n)
        ca, cb = operators.uniform_crossover(a.copy(), b.copy(), rng)
        np.testing.assert_array_equal(np.sort(np.concatenate([ca, cb])),
                                      np.sort(np.concatenate([a, b])))

    def test_two_point_crossover_segments(self):
        rng = np.random.default_rng(0)
        a = np.zeros(10, dtype=np.int64)
        b = np.ones(10, dtype=np.int64)
        ca, cb = operators.two_point_crossover(a, b, rng)
        np.testing.assert_array_equal(ca + cb, np.ones(10))

    def test_crossover_shape_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            operators.uniform_crossover(np.zeros(3), np.zeros(4), rng)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_reset_mutation_in_bounds(self, seed):
        rng = np.random.default_rng(seed)
        bounds = np.asarray([2, 5, 9, 3])
        genome = np.asarray([0, 4, 8, 2])
        mutated = operators.reset_mutation(genome, bounds, rng, prob=1.0)
        assert (mutated >= 0).all() and (mutated < bounds).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_creep_mutation_steps_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        bounds = np.full(6, 10, dtype=np.int64)
        genome = np.full(6, 5, dtype=np.int64)
        mutated = operators.creep_mutation(genome, bounds, rng, prob=1.0)
        assert np.abs(mutated - genome).max() <= 1

    def test_creep_clips_at_bounds(self):
        rng = np.random.default_rng(1)
        bounds = np.asarray([3, 3])
        for _ in range(20):
            out = operators.creep_mutation(np.asarray([0, 2]), bounds, rng, prob=1.0)
            assert (out >= 0).all() and (out < bounds).all()

    def test_bitflip(self):
        rng = np.random.default_rng(2)
        bits = np.zeros(50, dtype=np.int64)
        flipped = operators.bitflip_mutation(bits, rng, prob=1.0)
        assert flipped.sum() == 50

    def test_mutation_does_not_modify_input(self):
        rng = np.random.default_rng(3)
        genome = np.asarray([1, 2, 3])
        operators.reset_mutation(genome, np.asarray([5, 5, 5]), rng, prob=1.0)
        np.testing.assert_array_equal(genome, [1, 2, 3])


#: (rows, genes) of a generation-shaped genome matrix.
matrix_shapes = st.tuples(st.integers(1, 8), st.integers(1, 12))


class TestMatrixOperatorLaws:
    """The operators take whole ``(N, G)`` matrices, the last axis a genome."""

    @settings(max_examples=40, deadline=None)
    @given(matrix_shapes, st.integers(0, 2**31), st.sampled_from(["uniform", "two_point"]))
    def test_crossover_preserves_each_rows_multiset(self, shape, seed, kind):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 5, size=shape)
        b = rng.integers(0, 5, size=shape)
        a_in, b_in = a.copy(), b.copy()
        operator = getattr(operators, f"{kind}_crossover")
        ca, cb = operator(a, b, rng)
        assert ca.shape == cb.shape == a.shape and ca.dtype == np.int64
        np.testing.assert_array_equal(
            np.sort(np.concatenate([ca, cb], axis=1), axis=1),
            np.sort(np.concatenate([a, b], axis=1), axis=1),
        )
        np.testing.assert_array_equal(a, a_in)
        np.testing.assert_array_equal(b, b_in)

    @settings(max_examples=40, deadline=None)
    @given(matrix_shapes, st.integers(0, 2**31), st.floats(0.0, 1.0))
    def test_creep_steps_at_most_one_within_bounds(self, shape, seed, prob):
        rng = np.random.default_rng(seed)
        bounds = rng.integers(1, 6, size=shape[1])
        genomes = rng.integers(0, bounds, size=shape)
        before = genomes.copy()
        mutated = operators.creep_mutation(genomes, bounds, rng, prob=prob)
        np.testing.assert_array_equal(genomes, before)
        assert mutated.shape == shape
        assert np.abs(mutated - genomes).max() <= 1
        assert (mutated >= 0).all() and (mutated < bounds).all()

    @settings(max_examples=40, deadline=None)
    @given(matrix_shapes, st.integers(0, 2**31), st.floats(0.0, 1.0))
    def test_reset_stays_in_bounds(self, shape, seed, prob):
        rng = np.random.default_rng(seed)
        bounds = rng.integers(1, 9, size=shape[1])
        genomes = rng.integers(0, bounds, size=shape)
        before = genomes.copy()
        mutated = operators.reset_mutation(genomes, bounds, rng, prob=prob)
        np.testing.assert_array_equal(genomes, before)
        assert mutated.shape == shape
        assert (mutated >= 0).all() and (mutated < bounds).all()

    @settings(max_examples=30, deadline=None)
    @given(matrix_shapes, st.integers(0, 2**31))
    def test_bitflip_at_prob_one_flips_every_bit(self, shape, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=shape)
        before = bits.copy()
        flipped = operators.bitflip_mutation(bits, rng, prob=1.0)
        np.testing.assert_array_equal(bits, before)
        np.testing.assert_array_equal(flipped, 1 - bits)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(6, 20), st.integers(0, 2**31))
    def test_repair_leaves_no_empty_row(self, rows, total_layers, seed):
        from repro.exits.placement import ExitSpace

        space = ExitSpace(total_layers)
        rng = np.random.default_rng(seed)
        bits = (rng.random((rows, space.num_slots)) < 0.2).astype(np.int64)
        bits[rng.random(rows) < 0.5] = 0  # force empty rows
        before = bits.copy()
        repaired = space.repair(bits, rng)
        np.testing.assert_array_equal(bits, before)
        assert repaired.any(axis=1).all()
        full = before.any(axis=1)
        np.testing.assert_array_equal(repaired[full], before[full])
        assert (repaired[~full].sum(axis=1) == 1).all()

    def test_one_genome_is_a_population_of_one(self):
        rng = np.random.default_rng(5)
        genome = np.asarray([0, 4, 8, 2])
        bounds = np.asarray([2, 5, 9, 3])
        for mutated in (
            operators.reset_mutation(genome, bounds, rng, prob=0.5),
            operators.creep_mutation(genome, bounds, rng, prob=0.5),
            operators.bitflip_mutation(genome % 2, rng, prob=0.5),
            *operators.uniform_crossover(genome, genome[::-1], rng),
            *operators.two_point_crossover(genome, genome[::-1], rng),
        ):
            assert mutated.shape == genome.shape and mutated.dtype == np.int64


def _make_offspring_spec(population, config, rng):
    """Spec: :meth:`NSGA2.make_offspring` pair by pair and child by child,
    consuming the same draws in the same order, for :class:`ZdtLikeProblem`
    (uniform crossover, creep mutation at 0.3 over bounds of 11)."""
    size, count = len(population), config.population
    pairs = -(-count // 2)
    first = rng.integers(0, size, size=2 * pairs)
    second = rng.integers(0, size - 1, size=2 * pairs)
    coins = rng.random(pairs)

    def tournament(t):
        a, b = int(first[t]), int(second[t])
        b += b >= a
        ind_a, ind_b = population[a], population[b]
        if ind_a.rank != ind_b.rank:
            return ind_a if ind_a.rank < ind_b.rank else ind_b
        return ind_a if ind_a.crowding >= ind_b.crowding else ind_b

    genes = ZdtLikeProblem.length
    swaps = rng.random((pairs, genes))  # every pair recombines; coins pick
    children = []
    for i in range(pairs):
        a, b = tournament(2 * i).genome, tournament(2 * i + 1).genome
        if coins[i] < config.crossover_prob:
            mask = swaps[i] < 0.5
            a, b = np.where(mask, b, a), np.where(mask, a, b)
        children += [a, b]
    children = children[:count]
    mutate = rng.random((count, genes)) < 0.3
    steps = rng.choice([-1, 1], size=(count, genes))
    mutated = []
    for child, flags, step in zip(children, mutate, steps):
        child = [
            min(max(int(g) + int(d), 0), 10) if flag else int(g)
            for g, flag, d in zip(child, flags, step)
        ]
        mutated.append(child)
    return np.asarray(mutated, dtype=np.int64)


class TestMakeOffspring:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 9),
        st.integers(1, 13),
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        st.integers(0, 2**31),
        st.data(),
    )
    def test_matches_per_child_spec(self, size, count, crossover_prob, seed, data):
        """Tie-heavy ranks and crowding (inf included), odd and even
        populations, uncrossed pairs and two-member mating pools."""
        ranks = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        crowds = data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, np.inf]), min_size=size, max_size=size)
        )
        genomes = np.random.default_rng(seed).integers(0, 11, size=(size, ZdtLikeProblem.length))
        population = [
            Individual(genome=genome, rank=rank, crowding=crowd)
            for genome, rank, crowd in zip(genomes, ranks, crowds)
        ]
        config = Nsga2Config(population=count, generations=2, crossover_prob=crossover_prob)
        engine = NSGA2(ZdtLikeProblem(), config, rng=seed)
        spec_rng = np.random.default_rng(seed)
        children = engine.make_offspring(population)
        want = _make_offspring_spec(population, config, spec_rng)
        np.testing.assert_array_equal(np.stack([c.genome for c in children]), want)
        assert engine.rng.bit_generator.state == spec_rng.bit_generator.state
        assert all(c.evaluated for c in children)

    def test_two_member_pool_fills_the_population(self):
        """The OOE mates its two surviving backbones into a full generation."""
        population = [Individual(genome=np.full(8, g), rank=0, crowding=np.inf) for g in (2, 7)]
        engine = NSGA2(ZdtLikeProblem(), Nsga2Config(population=5, generations=2), rng=0)
        children = engine.make_offspring(population)
        assert len(children) == 5
        assert all(set(c.genome.tolist()) <= {1, 2, 3, 6, 7, 8} for c in children)

    def test_pool_of_one_raises(self):
        engine = NSGA2(ZdtLikeProblem(), Nsga2Config(population=4, generations=2), rng=0)
        with pytest.raises(ValueError):
            engine.make_offspring([Individual(genome=np.zeros(8, dtype=np.int64))])


class TestRankAndSelection:
    def _pop(self, objectives):
        pop = [Individual(genome=np.asarray([i])) for i in range(len(objectives))]
        for ind, obj in zip(pop, objectives):
            ind.objectives = np.asarray(obj, dtype=float)
        return pop

    def test_ranks_assigned(self):
        pop = self._pop([[2, 2], [1, 1], [3, 0]])
        rank_and_crowd(pop)
        assert pop[0].rank == 0 and pop[2].rank == 0
        assert pop[1].rank == 1

    def test_environmental_selection_keeps_best_front(self):
        pop = self._pop([[2, 2], [1, 1], [3, 0], [0, 3]])
        survivors = environmental_selection(pop, 3)
        ranks = [s.rank for s in survivors]
        assert all(r == 0 for r in ranks)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=30,
        ),
        st.integers(1, 30),
    )
    def test_selection_matches_sorted_rank_crowding(self, objectives, size):
        """One lexsort on (rank, -crowding) == the stable ``sorted`` spec."""
        population = self._pop(objectives)
        want = self._pop(objectives)
        rank_and_crowd(want)
        want = sorted(want, key=lambda ind: (ind.rank, -ind.crowding))[:size]
        got = environmental_selection(population, size)
        assert [int(ind.genome[0]) for ind in got] == [int(ind.genome[0]) for ind in want]
        assert [(ind.rank, ind.crowding) for ind in got] == [
            (ind.rank, ind.crowding) for ind in want
        ]

    def test_selection_truncates_by_crowding(self):
        pop = self._pop([[0, 4], [1, 3], [1.1, 2.9], [2, 2], [4, 0]])
        survivors = environmental_selection(pop, 4)
        xs = sorted(float(s.objectives[0]) for s in survivors)
        # The crowded middle point (1.1, 2.9) should be the one dropped.
        assert 1.1 not in xs


class TestParetoArchive:
    def _ind(self, objs, key=None):
        ind = Individual(genome=np.asarray(key if key is not None else objs))
        ind.objectives = np.asarray(objs, dtype=float)
        return ind

    def test_dominated_rejected(self):
        archive = ParetoArchive([self._ind([2, 2]), self._ind([1, 1])])
        assert len(archive) == 1
        np.testing.assert_array_equal(archive.items[0].objectives, [2, 2])

    def test_dominating_evicts(self):
        archive = ParetoArchive([self._ind([1, 1]), self._ind([2, 2])])
        assert len(archive) == 1
        np.testing.assert_array_equal(archive.items[0].objectives, [2, 2])

    def test_incomparable_coexist(self):
        archive = ParetoArchive([self._ind([2, 0]), self._ind([0, 2])])
        assert len(archive) == 2

    def test_duplicate_genome_skipped(self):
        first = self._ind([1, 0], key=[7])
        archive = ParetoArchive([first, self._ind([1, 0], key=[7])])
        assert archive.items == [first]

    def test_unevaluated_rejected(self):
        with pytest.raises(ValueError):
            ParetoArchive([self._ind([1, 1]), Individual(genome=np.asarray([1]))])

    def test_best_by(self):
        archive = ParetoArchive([self._ind([2, 0]), self._ind([0, 2])])
        best = archive.best_by(lambda ind: ind.objectives[1])
        assert best.objectives[1] == 2

    def test_best_by_empty(self):
        with pytest.raises(ValueError):
            ParetoArchive().best_by(lambda i: 0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=30))
    def test_archive_is_always_mutually_nondominated(self, points):
        archive = ParetoArchive(self._ind(list(p), key=[i]) for i, p in enumerate(points))
        objs = archive.objectives()
        for i in range(len(objs)):
            for j in range(len(objs)):
                if i != j:
                    assert not dominates(objs[i], objs[j])

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_block_merges_match_sequential_add(self, data):
        """Streams with repeated genomes, each genome's objectives fixed
        (as every search's are) and tie-heavy, longer than a merge block:
        the archive keeps the sequential spec's members in its order."""
        num_keys = data.draw(st.integers(1, 40))
        table = data.draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
                min_size=num_keys,
                max_size=num_keys,
            )
        )
        stream = data.draw(st.lists(st.integers(0, num_keys - 1), min_size=1, max_size=200))
        individuals = [self._ind(list(table[key]), key=[key]) for key in stream]
        archive, spec = ParetoArchive(individuals), SequentialArchive()
        for individual in individuals:
            spec.add(individual)
        assert [id(ind) for ind in archive] == [id(ind) for ind in spec.items]
        want = np.asarray([ind.objectives for ind in spec.items]).reshape(len(spec.items), -1)
        assert np.array_equal(archive.objectives().reshape(len(spec.items), -1), want)


class TestNsga2Engine:
    def test_iterations_accounting(self):
        config = Nsga2Config(population=10, generations=5)
        assert config.iterations == 50

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Nsga2Config(population=0, generations=1)

    def test_population_size_constant(self):
        engine = NSGA2(ZdtLikeProblem(), Nsga2Config(population=12, generations=4), rng=0)
        final = engine.run()
        assert len(final) == 12

    def test_deterministic_under_seed(self):
        def run(seed):
            engine = NSGA2(ZdtLikeProblem(), Nsga2Config(population=10, generations=4), rng=seed)
            pop = engine.table.individuals(engine.run())
            rank_and_crowd(pop)
            return sorted(tuple(ind.genome) for ind in pop)

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_evaluation_caching(self):
        engine = NSGA2(ZdtLikeProblem(), Nsga2Config(population=10, generations=5), rng=1)
        engine.run()
        assert engine.num_evaluations <= len(engine.history)
        assert engine.num_evaluations == len({ind.key() for ind in engine.history})

    def test_front_improves_over_random(self):
        """The evolved front covers more hypervolume than equal-budget
        random search (dominance counts are brittle on a continuous front,
        HV is the standard comparison)."""
        from repro.metrics.hypervolume import hypervolume
        from repro.metrics.pareto import pareto_front

        problem = ZdtLikeProblem()
        budget = 16 * 25
        engine = NSGA2(problem, Nsga2Config(population=16, generations=25), rng=2)
        engine.run()
        explored = np.stack([ind.objectives for ind in engine.history])
        rng = np.random.default_rng(3)
        random_points = np.stack(
            [problem.evaluate(problem.sample(rng))[0] for _ in range(budget)]
        )
        reference = np.asarray([-0.1, -0.1])
        hv_evolved = hypervolume(pareto_front(explored), reference)
        hv_random = hypervolume(pareto_front(random_points), reference)
        assert hv_evolved > hv_random

    def test_history_grows_per_generation(self):
        engine = NSGA2(ZdtLikeProblem(), Nsga2Config(population=8, generations=3), rng=4)
        engine.run()
        assert len(engine.history) == 8 * 3
