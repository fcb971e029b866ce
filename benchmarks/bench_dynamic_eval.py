"""Dynamic-evaluation kernel bench: cost tables vs the reference loop.

Replays the exact (placement, setting) stream a fast-budget IOE produces
through two evaluators — the vectorized cost-table kernel
(:class:`DynamicEvaluator`) and the per-layer reference loop — and reports
evaluations/sec before vs after.  Every "before" side is an executable
spec from ``tests/spec/evaluation.py`` (the reference loop is
``ReferenceEvaluator``).  Also records:

* a worst-case stream of all-distinct random (placement, setting) pairs
  (no table reuse at all);
* a warm-bank phase — new placements at already-seen DVFS settings — with
  call-count instrumentation proving the hot path performs **zero**
  per-layer timing-kernel invocations (neither ``layer_timing`` nor
  ``batch_timing`` runs once the tables exist);
* a population-scale phase — N distinct placements swept over a batch of
  settings through ``evaluate_population`` (one stacked gather over the
  bank's setting × layer grid per call) vs the per-call cost-table
  kernel, with the exit oracle pre-warmed on both sides so the comparison
  isolates the cost kernels, plus the oracle's column counters
  (``oracle_columns``: requests served from memory, columns built);
* an accuracy-side phase — the batched exit-oracle statistics kernel
  (one dense sweep over the oracle's packed column bank) vs one
  ``evaluate_placement`` call per placement, on column-prewarmed
  production oracles so the timed region isolates the ideal-mapping
  statistics, every field checked against the per-placement loop over
  boolean columns (``PerPlacementOracle``), with the batched oracle's
  column bank fill in the report;
* tiny- and fast-budget IOE wall-clock rows (full inner NSGA-II runs in
  all three modes: reference loop, per-call tables (``PerCallEvaluator``),
  population kernel);
* a paper-budget (50 x 70) IOE wall-clock row — the fused
  accuracy+cost kernel stack vs the PR-6 population mode (per-placement
  oracle, per-row objective means (``UnfusedEvaluator``), and Deb's pairwise
  non-dominated sort from ``tests/spec/pareto.py`` swapped in; archive
  bookkeeping stays vectorized, which makes the measured speedup
  conservative).

Asserts the acceptance contracts: ≥ 5x single-worker speedup on the
fast-budget IOE evaluation loop (tables vs reference), ≥ 5x
evaluations/sec at population scale (population kernel vs per-call
tables), ≥ 3x oracle statistics throughput (batched sweep vs
per-placement calls),
≥ 3x paper-budget IOE wall clock (fused vs PR-6 mode), bit-identical
results everywhere, and a table-driven (O(exits)) hot path.

Run directly::

    PYTHONPATH=src python benchmarks/bench_dynamic_eval.py --smoke --json dyneval-report.json
    PYTHONPATH=src python benchmarks/bench_dynamic_eval.py --platform carmel-cpu
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.accuracy.exit_model import BackboneExitOracle
from repro.accuracy.surrogate import AccuracySurrogate
from repro.arch.cost import estimate_cost
from repro.arch.space import BackboneSpace
from repro.baselines.attentivenas import attentivenas_model
from repro.eval.dynamic import DynamicEvaluator
from repro.eval.static import StaticEvaluator
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement, position_matrix
from repro.hardware.dvfs import DvfsSpace
from repro.hardware.energy import EnergyModel
from repro.hardware.platform import get_platform
from repro.obs import trace
from repro.obs.export import counter_rollup
from repro.obs.trace import Recorder
from repro.search.ioe import InnerEngine
from repro.search.nsga2 import Nsga2Config
from repro.utils.serialization import save_json

# The "before" sides are test code: executable specs under tests/spec/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from spec import pareto as spec_pareto  # noqa: E402
from spec.evaluation import (  # noqa: E402
    PerCallEvaluator,
    PerPlacementOracle,
    ReferenceEvaluator,
    SpecInnerEngine,
    UnfusedEvaluator,
)

#: The acceptance floor for the fast-budget IOE evaluation-loop speedup.
SPEEDUP_FLOOR = 5.0

#: Acceptance floors for the accuracy-side kernel: batched oracle
#: statistics throughput and the paper-budget fused-IOE wall clock.
ACCURACY_SPEEDUP_FLOOR = 3.0
PAPER_SPEEDUP_FLOOR = 3.0

BUDGETS = {"tiny": (10, 4), "fast": (16, 6), "paper": (50, 70)}


class _Workbench:
    """Shared heavy objects for one (platform, backbone, seed)."""

    def __init__(self, platform_key: str, model_name: str, seed: int):
        self.platform_key = platform_key
        self.seed = seed
        self.platform = get_platform(platform_key)
        self.space = BackboneSpace()
        self.surrogate = AccuracySurrogate(self.space, seed=seed)
        self.static = StaticEvaluator(self.platform, self.surrogate, seed=seed)
        self.config = attentivenas_model(model_name)
        self.cost = estimate_cost(self.config)
        self.dvfs = DvfsSpace(self.platform)
        self.energy_model = EnergyModel(self.platform)
        base = self.energy_model.network_report(self.cost, self.dvfs.default_setting())
        self.baseline_energy_j = base.energy_j
        self.baseline_latency_s = base.latency_s
        self.accuracy = self.surrogate.accuracy_fraction(self.config)

    def oracle(self, cls=BackboneExitOracle) -> BackboneExitOracle:
        """A fresh exit oracle (own columns, own memo caches)."""
        return cls(
            self.config.key,
            self.config.total_mbconv_layers,
            self.accuracy,
            seed=self.seed,
        )

    def evaluator(self, cls=DynamicEvaluator) -> DynamicEvaluator:
        """A fresh evaluator (own oracle, own caches, own table bank)."""
        return cls(
            config=self.config,
            cost=self.cost,
            oracle=self.oracle(),
            energy_model=self.energy_model,
            baseline_energy_j=self.baseline_energy_j,
            baseline_latency_s=self.baseline_latency_s,
        )

    def inner_engine(
        self,
        budget: str,
        evaluator_cls=DynamicEvaluator,
        oracle_cls=BackboneExitOracle,
    ) -> InnerEngine:
        """An IOE run at ``budget``; spec classes select a "before" mode."""
        population, generations = BUDGETS[budget]
        args = (self.config, self.static, self.accuracy)
        kwargs = dict(
            nsga=Nsga2Config(population=population, generations=generations),
            seed=self.seed,
        )
        if evaluator_cls is DynamicEvaluator and oracle_cls is BackboneExitOracle:
            return InnerEngine(*args, **kwargs)
        return SpecInnerEngine(
            *args, evaluator_cls=evaluator_cls, oracle_cls=oracle_cls, **kwargs
        )

    def record_ioe_stream(self, budget: str) -> list[tuple[ExitPlacement, object]]:
        """The exact evaluation stream one IOE run at ``budget`` performs:
        the (placement, setting) of every row of every generation
        ``evaluate_generation`` returns, duplicates included, in order.  A
        run is a lockstep group of one, so each call returns a list of one
        generation."""
        engine = self.inner_engine(budget)
        stream: list[tuple[ExitPlacement, object]] = []
        original = engine.evaluator.evaluate_generation

        def recording(*args):
            generations = original(*args)
            for generation in generations:
                stream.extend((row.placement, row.setting) for row in generation)
            return generations

        engine.evaluator.evaluate_generation = recording
        engine.run()
        return stream

    def random_placement(self, rng: np.random.Generator) -> ExitPlacement:
        """One random placement (1-6 exits over the legal position range)."""
        total = self.config.total_mbconv_layers
        width = int(rng.integers(1, 7))
        positions = tuple(
            sorted(
                rng.choice(
                    np.arange(MIN_EXIT_POSITION, total), size=width, replace=False
                ).tolist()
            )
        )
        return ExitPlacement(total, positions)

    def random_pairs(self, count: int) -> list[tuple[ExitPlacement, object]]:
        """All-distinct random (placement, setting) pairs (worst case)."""
        rng = np.random.default_rng(self.seed)
        return [
            (self.random_placement(rng), self.dvfs.sample(rng)) for _ in range(count)
        ]


def _replay_rate(bench: _Workbench, pairs, cls, reps: int) -> float:
    """Best-of-``reps`` evaluations/sec over ``pairs`` on fresh evaluators."""
    best = float("inf")
    for _ in range(reps):
        evaluator = bench.evaluator(cls)
        start = time.perf_counter()
        for placement, setting in pairs:
            evaluator.evaluate(placement, setting)
        best = min(best, time.perf_counter() - start)
    return len(pairs) / best


def _assert_bit_identity(bench: _Workbench, pairs) -> None:
    vectorized, reference = bench.evaluator(), bench.evaluator(ReferenceEvaluator)
    for placement, setting in pairs:
        fast = vectorized.evaluate(placement, setting)
        slow = reference.evaluate(placement, setting)
        assert np.array_equal(fast.exit_energy_j, slow.exit_energy_j)
        assert np.array_equal(fast.exit_latency_s, slow.exit_latency_s)
        assert fast.dynamic_energy_j == slow.dynamic_energy_j
        assert np.array_equal(fast.scores, slow.scores)
        assert fast.d_score == slow.d_score


def _warm_phase(bench: _Workbench, pairs) -> dict:
    """New placements at seen settings: zero timing-kernel invocations."""
    evaluator = bench.evaluator()
    for placement, setting in pairs:
        evaluator.evaluate(placement, setting)
    rng = np.random.default_rng(bench.seed + 1)
    fresh = [(bench.random_placement(rng), setting) for _, setting in pairs]
    latency = evaluator.energy_model.latency
    before = (latency.layer_timing_calls, latency.batch_timing_calls)
    start = time.perf_counter()
    for placement, setting in fresh:
        evaluator.evaluate(placement, setting)
    elapsed = time.perf_counter() - start
    after = (latency.layer_timing_calls, latency.batch_timing_calls)
    return {
        "evals": len(fresh),
        "evals_per_s": len(fresh) / elapsed,
        "layer_timing_calls": after[0] - before[0],
        "batch_timing_calls": after[1] - before[1],
    }


def _distinct_placements(bench: _Workbench, count: int, seed: int) -> list[ExitPlacement]:
    rng = np.random.default_rng(seed)
    placements: list[ExitPlacement] = []
    seen: set[tuple[int, ...]] = set()
    while len(placements) < count:
        placement = bench.random_placement(rng)
        if placement.positions not in seen:
            seen.add(placement.positions)
            placements.append(placement)
    return placements


def _distinct_settings(bench: _Workbench, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    settings: list = []
    seen: set[tuple[float, float]] = set()
    count = min(count, bench.dvfs.cardinality)
    while len(settings) < count:
        setting = bench.dvfs.sample(rng)
        if (setting.core_ghz, setting.emc_ghz) not in seen:
            seen.add((setting.core_ghz, setting.emc_ghz))
            settings.append(setting)
    return settings


def _population_phase(
    bench: _Workbench, population: int, num_settings: int, reps: int
) -> dict:
    """Population-scale sweep: stacked kernel vs the per-call table kernel.

    Both sides run on fresh evaluators with the exit oracle pre-warmed for
    the whole population — the per-placement statistics memo for per-call,
    the packed column bank for the population path, which sweeps its
    statistics on every call — so the timed region is the cost kernels
    plus what each path pays per call on the accuracy side: per-call pays
    N Python calls per setting, the population path one stacked sweep and
    gather.  Bit-identity of every field is asserted against the per-call
    kernel for all (placement, setting) pairs and against the pre-table
    reference loop for a subset.
    """
    placements = _distinct_placements(bench, population, bench.seed + 17)
    settings = _distinct_settings(bench, num_settings, bench.seed + 29)
    evals = len(placements) * len(settings)

    def per_call_pass() -> float:
        evaluator = bench.evaluator()
        for placement in placements:
            evaluator.oracle.evaluate_placement(placement)
        start = time.perf_counter()
        for setting in settings:
            for placement in placements:
                evaluator.evaluate(placement, setting)
        return time.perf_counter() - start

    def population_pass() -> tuple[float, DynamicEvaluator]:
        evaluator = bench.evaluator()
        evaluator.oracle.evaluate_placements(placements)
        start = time.perf_counter()
        for setting in settings:
            evaluator.evaluate_population(placements, setting)
        return time.perf_counter() - start, evaluator

    per_call_wall = min(per_call_pass() for _ in range(reps))
    timings = [population_pass() for _ in range(reps)]
    population_wall = min(wall for wall, _ in timings)
    oracle_stats = dict(timings[-1][1].oracle.column_stats)

    # Bit-identity: population vs per-call on everything, both vs the
    # reference per-layer loop on a subset.
    per_call = bench.evaluator()
    stacked = bench.evaluator()
    reference = bench.evaluator(ReferenceEvaluator)
    for si, setting in enumerate(settings):
        batch = stacked.evaluate_population(placements, setting)
        for pi, (placement, fast) in enumerate(zip(placements, batch)):
            slow = per_call.evaluate(placement, setting)
            assert np.array_equal(fast.exit_energy_j, slow.exit_energy_j)
            assert np.array_equal(fast.exit_latency_s, slow.exit_latency_s)
            assert fast.dynamic_energy_j == slow.dynamic_energy_j
            assert fast.dynamic_latency_s == slow.dynamic_latency_s
            assert fast.energy_gain == slow.energy_gain
            assert fast.latency_gain == slow.latency_gain
            assert np.array_equal(fast.scores, slow.scores)
            assert fast.d_score == slow.d_score
            if si < 2 and pi < 24:
                loop = reference.evaluate(placement, setting)
                assert np.array_equal(fast.exit_energy_j, loop.exit_energy_j)
                assert fast.dynamic_energy_j == loop.dynamic_energy_j
                assert fast.d_score == loop.d_score

    return {
        "population": len(placements),
        "settings": len(settings),
        "evals": evals,
        "per_call_evals_per_s": evals / per_call_wall,
        "population_evals_per_s": evals / population_wall,
        "speedup": per_call_wall / population_wall,
        "oracle_columns": oracle_stats,
    }


def _accuracy_phase(bench: _Workbench, population: int, reps: int) -> dict:
    """Oracle statistics throughput: batched sweep vs per-placement calls.

    Both sides run on fresh production oracles with every correctness
    column materialised up front (column construction is identical work
    either way), so the timed region isolates the ideal-mapping
    statistics: the per-placement side is one
    :meth:`~BackboneExitOracle.evaluate_placement` call per placement, the
    batched side one dense sweep per exit level over the packed column
    bank.  Bit-identity of every statistics field is asserted across the
    whole population against the per-placement loop over boolean columns
    (``PerPlacementOracle``), and the batched oracle's column bank fill
    lands in the report.
    """
    placements = _distinct_placements(bench, population, bench.seed + 41)
    distinct = sorted({p for placement in placements for p in placement.positions})

    def fresh_oracle(cls=BackboneExitOracle) -> BackboneExitOracle:
        oracle = bench.oracle(cls)
        for position in distinct:
            oracle.exit_column(position)
        oracle.final_column()
        return oracle

    def batched_pass() -> tuple[float, BackboneExitOracle]:
        oracle = fresh_oracle()
        start = time.perf_counter()
        oracle.evaluate_placements(placements)
        return time.perf_counter() - start, oracle

    def per_placement_pass() -> float:
        oracle = fresh_oracle()
        start = time.perf_counter()
        [oracle.evaluate_placement(placement) for placement in placements]
        return time.perf_counter() - start

    batched_runs = [batched_pass() for _ in range(reps)]
    per_placement_wall = min(per_placement_pass() for _ in range(reps))
    batched_wall = min(wall for wall, _ in batched_runs)
    batched_oracle = batched_runs[-1][1]

    got = batched_oracle.evaluate_placements(placements)
    want = fresh_oracle(PerPlacementOracle).evaluate_placements(placements)
    for fast, slow in zip(got, want):
        assert np.array_equal(fast.n_i, slow.n_i)
        assert np.array_equal(fast.usage, slow.usage)
        assert np.array_equal(fast.dissimilarity, slow.dissimilarity)
        assert fast.dynamic_accuracy == slow.dynamic_accuracy
        assert fast.final_accuracy == slow.final_accuracy

    return {
        "population": len(placements),
        "per_placement_evals_per_s": len(placements) / per_placement_wall,
        "batched_evals_per_s": len(placements) / batched_wall,
        "speedup": per_placement_wall / batched_wall,
        "oracle_bank": {
            "rows": len(batched_oracle._banked),
            "filled": int(batched_oracle._banked.sum()),
            "columns": dict(batched_oracle.column_stats),
        },
    }


def _paper_ioe_row(bench: _Workbench) -> dict:
    """Paper-budget (50 x 70) IOE wall: fused stack vs the PR-6 mode.

    The PR-6 comparator is the population cost kernel *without* the
    accuracy-side kernels — the per-placement oracle
    (``PerPlacementOracle``), objective means one row at a time
    (``UnfusedEvaluator``), and Deb's pairwise sort from
    ``tests/spec/pareto.py`` swapped into the NSGA-II module (the scalar
    ``dominates`` loop dominated the PR-6 profile).  Archive bookkeeping
    stays vectorized in both modes, so the measured speedup understates the
    true against-PR-6 ratio.  Both runs must agree on the best candidate's
    D score (full histories are identical; the equivalence tests assert
    that member by member).
    """
    import repro.search.nsga2 as nsga2_module

    def timed_run(fused: bool) -> tuple[float, float, int]:
        if fused:
            engine = bench.inner_engine("paper")
        else:
            engine = bench.inner_engine(
                "paper", UnfusedEvaluator, PerPlacementOracle
            )
        vectorized_sort = nsga2_module.non_dominated_sort
        if not fused:
            nsga2_module.non_dominated_sort = spec_pareto.non_dominated_sort
        try:
            start = time.perf_counter()
            result = engine.run()
            wall = time.perf_counter() - start
        finally:
            nsga2_module.non_dominated_sort = vectorized_sort
        best = result.best.payload["evaluation"].d_score
        return wall, best, result.num_evaluations

    fused_wall, fused_best, evaluations = timed_run(True)
    pr6_wall, pr6_best, _ = timed_run(False)
    assert fused_best == pr6_best, (
        f"paper-budget IOE modes diverged: fused {fused_best} vs pr6 {pr6_best}"
    )
    return {
        "budget": "paper",
        "population": BUDGETS["paper"][0],
        "generations": BUDGETS["paper"][1],
        "evaluations": evaluations,
        "pr6_wall_s": pr6_wall,
        "fused_wall_s": fused_wall,
        "speedup": pr6_wall / fused_wall,
    }


def _observability_pass(bench: _Workbench, pairs, placements_hint: int) -> dict:
    """Counter rollup from a short instrumented replay (untimed, so the
    recorder's lock never touches the benchmark's timed loops).

    Replays the IOE stream through both kernels and one population sweep
    under a live recorder; the rollup lands in the JSON report so a CI
    artifact shows memo-hit rates, table builds and population-kernel call
    counts next to the throughput numbers.
    """
    recorder = Recorder()
    trace.install(recorder)
    try:
        evaluator = bench.evaluator()
        for placement, setting in pairs:
            evaluator.evaluate(placement, setting)
        for placement, setting in pairs:  # second pass: all memo hits
            evaluator.evaluate(placement, setting)
        reference = bench.evaluator(ReferenceEvaluator)
        for placement, setting in pairs[:40]:
            reference.evaluate(placement, setting)
        population = bench.evaluator()
        placements = _distinct_placements(bench, placements_hint, bench.seed + 17)
        population.evaluate_population(placements, bench.dvfs.default_setting())
        # A mixed-setting generation batch: surfaces the oracle's batch
        # counters; it is one population call.
        generation = bench.evaluator()
        settings = _distinct_settings(bench, 4, bench.seed + 53)
        positions, _ = position_matrix([placement.positions for placement in placements])
        generation.evaluate_generation(
            positions, [settings[i % len(settings)] for i in range(len(placements))]
        )
    finally:
        trace.uninstall()
    return counter_rollup(recorder)


def _ioe_wall_row(bench: _Workbench, budget: str) -> dict:
    modes = {
        "reference": ReferenceEvaluator,
        "per_call": PerCallEvaluator,
        "population": DynamicEvaluator,
    }
    walls, best_scores = {}, {}
    for mode, evaluator_cls in modes.items():
        engine = bench.inner_engine(budget, evaluator_cls)
        start = time.perf_counter()
        result = engine.run()
        walls[mode] = time.perf_counter() - start
        best_scores[mode] = result.best.payload["evaluation"].d_score
    assert len(set(best_scores.values())) == 1, (
        f"IOE modes diverged at {budget} budget: {best_scores}"
    )
    return {
        "budget": budget,
        "population": BUDGETS[budget][0],
        "generations": BUDGETS[budget][1],
        "evaluations": result.num_evaluations,
        "reference_wall_s": walls["reference"],
        "vectorized_wall_s": walls["per_call"],
        "population_wall_s": walls["population"],
        "speedup": walls["reference"] / walls["per_call"],
        "population_speedup": walls["reference"] / walls["population"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fewer reps (CI)")
    parser.add_argument("--platform", default="tx2-gpu")
    parser.add_argument("--model", default="a3")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=None,
                        help="worst-case distinct-pair stream length")
    parser.add_argument("--json", default="dyneval-report.json")
    args = parser.parse_args(argv)

    reps = 3 if args.smoke else 5
    pair_count = args.pairs or (400 if args.smoke else 800)
    bench = _Workbench(args.platform, args.model, args.seed)

    ioe_stream = bench.record_ioe_stream("fast")
    _assert_bit_identity(bench, ioe_stream[:40])

    reference_rate = _replay_rate(bench, ioe_stream, ReferenceEvaluator, reps=reps)
    vectorized_rate = _replay_rate(bench, ioe_stream, DynamicEvaluator, reps=reps)
    speedup = vectorized_rate / reference_rate

    unique_pairs = bench.random_pairs(pair_count)
    unique_reference = _replay_rate(bench, unique_pairs, ReferenceEvaluator, reps=1)
    unique_vectorized = _replay_rate(bench, unique_pairs, DynamicEvaluator, reps=1)

    warm = _warm_phase(bench, ioe_stream)
    population = _population_phase(
        bench,
        population=256 if args.smoke else 384,
        num_settings=10 if args.smoke else 12,
        reps=reps,
    )
    # Grid-sweep scale: the exhaustive DVFS artifacts stream thousands of
    # placements per oracle through one batch.
    accuracy = _accuracy_phase(
        bench, population=1024 if args.smoke else 2048, reps=reps
    )
    ioe_rows = [_ioe_wall_row(bench, budget) for budget in ("tiny", "fast")]
    paper_row = _paper_ioe_row(bench)
    observability = _observability_pass(
        bench, ioe_stream, placements_hint=64 if args.smoke else 128
    )

    print(f"platform {args.platform}, backbone {args.model}, seed {args.seed}")
    print(f"{'stream':>28} {'evals':>6} {'ref/s':>8} {'vec/s':>8} {'speedup':>8}")
    print("-" * 64)
    print(
        f"{'fast-budget IOE replay':>28} {len(ioe_stream):>6} "
        f"{reference_rate:>8.0f} {vectorized_rate:>8.0f} {speedup:>7.1f}x"
    )
    print(
        f"{'distinct random pairs':>28} {len(unique_pairs):>6} "
        f"{unique_reference:>8.0f} {unique_vectorized:>8.0f} "
        f"{unique_vectorized / unique_reference:>7.1f}x"
    )
    print(
        f"{'warm bank (seen settings)':>28} {warm['evals']:>6} {'':>8} "
        f"{warm['evals_per_s']:>8.0f} {'':>8}"
    )
    print(
        f"{'population kernel':>28} {population['evals']:>6} "
        f"{population['per_call_evals_per_s']:>8.0f} "
        f"{population['population_evals_per_s']:>8.0f} "
        f"{population['speedup']:>7.1f}x"
    )
    print(
        f"{'oracle statistics (batched)':>28} {accuracy['population']:>6} "
        f"{accuracy['per_placement_evals_per_s']:>8.0f} "
        f"{accuracy['batched_evals_per_s']:>8.0f} "
        f"{accuracy['speedup']:>7.1f}x"
    )
    print(
        f"\nwarm hot path: {warm['layer_timing_calls']} layer_timing / "
        f"{warm['batch_timing_calls']} batch_timing calls (must be 0/0)"
    )
    print(
        f"population phase: {population['population']} placements x "
        f"{population['settings']} settings; oracle columns "
        f"{population['oracle_columns']}"
    )
    bank = accuracy["oracle_bank"]
    print(
        f"oracle column bank: {bank['filled']}/{bank['rows']} rows filled, "
        f"columns {bank['columns']}"
    )
    for row in ioe_rows:
        print(
            f"IOE {row['budget']:>4} budget ({row['population']}x{row['generations']}): "
            f"reference {row['reference_wall_s']:.3f}s, per-call "
            f"{row['vectorized_wall_s']:.3f}s ({row['speedup']:.1f}x), population "
            f"{row['population_wall_s']:.3f}s ({row['population_speedup']:.1f}x)"
        )
    print(
        f"IOE paper budget ({paper_row['population']}x{paper_row['generations']}): "
        f"pr6 mode {paper_row['pr6_wall_s']:.3f}s, fused "
        f"{paper_row['fused_wall_s']:.3f}s ({paper_row['speedup']:.1f}x)"
    )
    obs_counters = observability["counters"]
    population_calls = obs_counters.get("dyneval.population_calls", 0)
    rows_per_call = (
        obs_counters.get("dyneval.population_rows", 0) / population_calls
        if population_calls
        else 0.0
    )
    print(
        "observability rollup: "
        f"{obs_counters.get('dyneval.evaluations', 0):.0f} evaluations / "
        f"{obs_counters.get('dyneval.memo_hits', 0):.0f} memo hits, "
        f"{obs_counters.get('dyneval.population_rows', 0):.0f} population rows, "
        f"{obs_counters.get('cost_table.builds', 0):.0f} table builds, "
        f"{obs_counters.get('oracle.batch_rows', 0):.0f} oracle batch rows / "
        f"{obs_counters.get('oracle.batch_calls', 0):.0f} batch calls, "
        f"{rows_per_call:.1f} rows per population call"
    )

    report = {
        "platform": args.platform,
        "model": args.model,
        "seed": args.seed,
        "ioe_replay": {
            "evals": len(ioe_stream),
            "reference_evals_per_s": reference_rate,
            "vectorized_evals_per_s": vectorized_rate,
            "speedup": speedup,
        },
        "distinct_pairs": {
            "evals": len(unique_pairs),
            "reference_evals_per_s": unique_reference,
            "vectorized_evals_per_s": unique_vectorized,
            "speedup": unique_vectorized / unique_reference,
        },
        "warm_bank": warm,
        "population_kernel": population,
        "accuracy_kernel": accuracy,
        "ioe_rows": ioe_rows,
        "paper_ioe": paper_row,
        "observability": observability,
        "summary": {
            "speedup_floor": SPEEDUP_FLOOR,
            "speedup_ok": bool(speedup >= SPEEDUP_FLOOR),
            "population_speedup_floor": SPEEDUP_FLOOR,
            "population_speedup_ok": bool(population["speedup"] >= SPEEDUP_FLOOR),
            "accuracy_speedup_floor": ACCURACY_SPEEDUP_FLOOR,
            "accuracy_speedup_ok": bool(
                accuracy["speedup"] >= ACCURACY_SPEEDUP_FLOOR
            ),
            "paper_ioe_speedup_floor": PAPER_SPEEDUP_FLOOR,
            "paper_ioe_speedup_ok": bool(
                paper_row["speedup"] >= PAPER_SPEEDUP_FLOOR
            ),
            "hot_path_table_driven": warm["layer_timing_calls"] == 0
            and warm["batch_timing_calls"] == 0,
        },
    }
    save_json(report, args.json)
    print(f"\nreport written to {args.json}")

    assert warm["layer_timing_calls"] == 0 and warm["batch_timing_calls"] == 0, (
        "warm-bank evaluations re-entered the timing kernel: "
        f"{warm['layer_timing_calls']} layer / {warm['batch_timing_calls']} batch calls"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast-budget IOE evaluation loop speedup {speedup:.1f}x below the "
        f"{SPEEDUP_FLOOR:.0f}x acceptance floor"
    )
    assert population["speedup"] >= SPEEDUP_FLOOR, (
        f"population-kernel speedup {population['speedup']:.1f}x below the "
        f"{SPEEDUP_FLOOR:.0f}x acceptance floor at population scale"
    )
    assert accuracy["speedup"] >= ACCURACY_SPEEDUP_FLOOR, (
        f"batched oracle statistics speedup {accuracy['speedup']:.1f}x below "
        f"the {ACCURACY_SPEEDUP_FLOOR:.0f}x acceptance floor"
    )
    assert paper_row["speedup"] >= PAPER_SPEEDUP_FLOOR, (
        f"paper-budget fused IOE speedup {paper_row['speedup']:.1f}x below "
        f"the {PAPER_SPEEDUP_FLOOR:.0f}x acceptance floor"
    )
    for row in ioe_rows:
        assert row["speedup"] >= 1.0, (
            f"vectorized IOE slower than reference at {row['budget']} budget"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
