"""The four benchmark workloads: inputs from a seed, one timed call, checks.

Each workload is a small class with three steps, run by ``child.py`` in a
fresh process:

* ``build(seed)`` imports what the workload needs and constructs the search
  or serving objects (counted in ``setup_s``);
* ``run()`` is the timed call (``ops_per_ref_cpu_s``);
* ``finish()`` runs the output checks and returns an :class:`Outcome`.

The program only ever receives generated inputs: a search seed for the
searches, a seeded Poisson trace for the serving runs.  Everything is
called through public module attributes, so the traced pass (``layers.py``)
sees every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Reference energy per platform (mJ) for ``dynn_hv``: the hypervolume is
#: the share of the box [0, 1] accuracy x [0, E_ref] energy that a front
#: dominates.  Fixed constants, well above every design on the platform.
ENERGY_REF_MJ = {
    "agx-gpu": 1000.0,
    "tx2-gpu": 1000.0,
    "carmel-cpu": 4000.0,
    "denver-cpu": 4000.0,
}

QUAD_FLEET = ("agx-gpu", "carmel-cpu", "tx2-gpu", "denver-cpu")

#: Serving model seed: the stack (model, ladder, offered rate) is fixed;
#: the workload seed drives the traffic.
STACK_SEED = 7


@dataclass
class Outcome:
    """What one run of a workload produced, as plain data."""

    attempted: int
    failed: int
    ops: float  # evaluations (searches) or offered requests (serving)
    dynn_hv: float
    latency_ms: float
    energy_mj: float
    digest: str
    problems: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)


# ---------------------------------------------------------------- helpers
def digest(payload) -> str:
    """Stable digest of a JSON-able result (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def hypervolume(points, energy_ref_mj: float) -> float:
    """Share of [0, 1] x [0, E_ref] dominated by (accuracy, energy mJ) points.

    Accuracy is maximised and energy minimised; points at or beyond the
    reference energy contribute nothing.
    """
    kept = sorted((e, a) for a, e in points if e < energy_ref_mj and a > 0)
    if not kept:
        return 0.0
    area, best, previous = 0.0, 0.0, kept[0][0]
    for energy, accuracy in kept:
        area += best * (energy - previous)
        best, previous = max(best, accuracy), energy
    area += best * (energy_ref_mj - previous)
    return area / energy_ref_mj


def mutually_non_dominated(objectives: np.ndarray) -> bool:
    """True when no row dominates another (all objectives maximised)."""
    geq = np.all(objectives[:, None, :] >= objectives[None, :, :], axis=2)
    gt = np.any(objectives[:, None, :] > objectives[None, :, :], axis=2)
    return not np.any(geq & gt)


def check_report(report, offered: int, where: str) -> list[str]:
    """Serving output checks: conservation and sane latency statistics."""
    problems = []
    if report.num_requests != offered:
        problems.append(f"{where}: report covers {report.num_requests} of {offered} offered")
    if report.num_served + report.num_dropped != report.num_requests:
        problems.append(
            f"{where}: served {report.num_served} + dropped {report.num_dropped} "
            f"!= offered {report.num_requests}"
        )
    latencies = [
        report.latency_ms_mean,
        report.latency_ms_p50,
        report.latency_ms_p95,
        report.latency_ms_p99,
    ]
    for device in getattr(report, "devices", ()):
        latencies += [device.latency_ms_p50, device.latency_ms_p95, device.latency_ms_p99]
    if not all(math.isfinite(v) and v >= 0 for v in latencies):
        problems.append(f"{where}: negative or non-finite latency statistic {latencies}")
    if not report.latency_ms_p50 <= report.latency_ms_p95 <= report.latency_ms_p99:
        problems.append(f"{where}: latency percentiles out of order")
    if not report.energy_per_request_j > 0:
        problems.append(f"{where}: non-positive energy per request")
    return problems


def unserved(report) -> int:
    """Offered requests that were dropped or never served."""
    return report.num_requests - report.num_served


def geometric_mean(values) -> float:
    """Geometric mean: every platform's relative change weighs the same."""
    return float(np.exp(np.mean(np.log(values))))


def ladder_hv(stack) -> float:
    """``dynn_hv`` of a serving stack: its runtime-config ladder's front."""
    points = [(c.expected_accuracy, c.expected_energy_j * 1e3) for c in stack.ladder]
    return hypervolume(points, ENERGY_REF_MJ[stack.spec.platform])


def dynn_front(result) -> list[tuple[float, float]]:
    """(dynamic accuracy, dynamic energy mJ) of a search's DyNN archive."""
    return [
        (
            ind.payload["evaluation"].dynamic_accuracy,
            ind.payload["evaluation"].dynamic_energy_j * 1e3,
        )
        for ind in result.dynn_pareto()
    ]


def efficient_end(result) -> tuple[float, float]:
    """(latency ms, energy mJ) of the front's lowest-energy DyNN.

    The front's energy end moves little from seed to seed, unlike the
    utopia pick of ``deployed_design()``, which jumps along the front.
    """
    best = min(
        (ind.payload["evaluation"] for ind in result.dynn_pareto()),
        key=lambda evaluation: evaluation.dynamic_energy_j,
    )
    return best.dynamic_latency_s * 1e3, best.dynamic_energy_j * 1e3


def check_search(result, where: str) -> list[str]:
    """A non-empty, mutually non-dominated DyNN front."""
    members = result.dynn_pareto()
    if not members:
        return [f"{where}: empty DyNN front"]
    objectives = np.stack([np.asarray(ind.objectives, dtype=float) for ind in members])
    if not mutually_non_dominated(objectives):
        return [f"{where}: DyNN front holds a dominated member"]
    return []


def search_digest(result) -> dict:
    return {
        "evaluations": list(result.num_evaluations),
        "front": sorted(
            [float(v) for v in ind.objectives] for ind in result.dynn_pareto()
        ),
    }


# -------------------------------------------------------------- workloads
class Workload:
    """Shared defaults: platforms, processes that work at once, a no-op close."""

    name = ""
    platforms: tuple[str, ...] = ()
    workers = 1

    def close(self) -> None:
        """Release what ``build`` made outside the process (temp dirs)."""


class SearchPaper(Workload):
    """HadasSearch with the paper's populations, tx2-gpu, serial, no cache.

    The ``repro search --budget paper`` preset's populations and IOE
    candidates (30 OOE, 50 IOE, 5 candidates) keep the per-call shape of
    the search kernels, but one paper-budget search's work moves with its
    seed from 23 to 38 CPU seconds.  A run therefore covers
    :attr:`SUBSEEDS` sub-seeds of the workload seed at
    :attr:`GENERATIONS` (OOE, IOE) generations, one after another, and
    reports their total work and mean quality.
    """

    name = "search-paper"
    platforms = ("tx2-gpu",)
    SUBSEEDS = 4
    GENERATIONS = (5, 10)

    def __init__(self, smoke: bool):
        self.smoke = smoke

    @staticmethod
    def import_modules():
        from repro.search import cli, hadas  # noqa: F401

    def build(self, seed: int, root: Path) -> None:
        from repro.search.cli import BUDGETS
        from repro.search.hadas import HadasConfig, HadasSearch

        outer_pop, outer_gen, inner_pop, inner_gen, candidates, samples = BUDGETS[
            "tiny" if self.smoke else "paper"
        ]
        if not self.smoke:
            outer_gen, inner_gen = self.GENERATIONS
        self.configs = [
            HadasConfig(
                platform=self.platforms[0],
                seed=seed * self.SUBSEEDS + sub,
                outer_population=outer_pop,
                outer_generations=outer_gen,
                inner_population=inner_pop,
                inner_generations=inner_gen,
                ioe_candidates=candidates,
                oracle_samples=samples,
                workers=1,
                executor="serial",
                cache_dir=None,
            )
            for sub in range(self.SUBSEEDS)
        ]
        self.searches = [HadasSearch(config) for config in self.configs]

    def run(self) -> None:
        self.results, self.designs = [], []
        for search in self.searches:
            try:
                self.results.append(search.run())
                self.designs.append(self.results[-1].deployed_design())
            finally:
                search.close()

    def finish(self) -> Outcome:
        problems, hvs, latencies, energies, digests = [], [], [], [], []
        attempted = failed = 0
        for config, search, result, design in zip(
            self.configs, self.searches, self.results, self.designs
        ):
            stats = search.service.stats
            attempted += stats.tasks
            failed += stats.failed + stats.cancelled
            problems += check_search(result, f"{self.name} seed {config.seed}")
            hvs.append(hypervolume(dynn_front(result), ENERGY_REF_MJ[config.platform]))
            latency_ms, energy_mj = efficient_end(result)
            latencies.append(latency_ms)
            energies.append(energy_mj)
            digests.append({**search_digest(result), "deployed": design.describe()})
        return Outcome(
            attempted=attempted,
            failed=failed,
            ops=float(sum(sum(result.num_evaluations) for result in self.results)),
            dynn_hv=float(np.mean(hvs)),
            latency_ms=geometric_mean(latencies),
            energy_mj=geometric_mean(energies),
            digest=digest(digests),
            problems=problems,
            config={"searches": [dataclasses.asdict(config) for config in self.configs]},
        )


class Fig5Sharded(Workload):
    """Four-platform fast fig5 over 2 process workers: cold pass, warm pass.

    One fast-budget search moves a lot with its seed (its wall time by
    ~15 %, its front's energy end by 10-15 % per platform), so a run covers
    :attr:`SUBSEEDS` sub-seeds of the workload seed, each with its own fresh
    cache directory, and reports their total time and mean quality.
    """

    name = "fig5-sharded"
    platforms = QUAD_FLEET
    workers = 2
    SUBSEEDS = 4

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.cache_dirs: list[str] = []

    @staticmethod
    def import_modules():
        from repro.experiments import config, fig5, runner  # noqa: F401

    def build(self, seed: int, root: Path) -> None:
        from repro.experiments.config import Profile

        scratch = root / ".perfbench" / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        self.profiles = []
        for sub in range(self.SUBSEEDS):
            cache_dir = tempfile.mkdtemp(prefix="fig5-cache-", dir=scratch)
            self.cache_dirs.append(cache_dir)
            engine = {"workers": self.workers, "executor": "process", "cache_dir": cache_dir}
            sub_seed = seed * self.SUBSEEDS + sub
            if self.smoke:
                profile = Profile("tiny", 6, 2, 6, 3, 1, 256, seed=sub_seed, **engine)
            else:
                profile = Profile.fast(seed=sub_seed, **engine)
            self.profiles.append(profile)

    def run(self) -> None:
        from repro.experiments import fig5, runner

        self.passes = []  # (cold, warm, cache files after the cold pass)
        for profile in self.profiles:
            cold = fig5.run(profile)
            files = sum(1 for path in Path(profile.cache_dir).rglob("*") if path.is_file())
            runner.clear_memo()
            self.passes.append((cold, fig5.run(profile), files))

    def finish(self) -> Outcome:
        problems = []
        hvs, latencies, energies, digests, ops = [], [], [], [], 0.0
        for profile, (cold, warm, files) in zip(self.profiles, self.passes):
            where = f"{self.name} seed {profile.seed}"
            results = {p: panel.experiment.hadas for p, panel in cold.panels.items()}
            cold_digest = {p: search_digest(r) for p, r in results.items()}
            digests.append(cold_digest)
            if cold_digest != {
                p: search_digest(panel.experiment.hadas) for p, panel in warm.panels.items()
            }:
                problems.append(f"{where}: warm pass differs from cold pass")
            if not files:
                problems.append(f"{where}: cold pass wrote no cache entries")
            for platform, result in results.items():
                problems += check_search(result, f"{where} {platform}")
                hvs.append(hypervolume(dynn_front(result), ENERGY_REF_MJ[platform]))
                latency_ms, energy_mj = efficient_end(result)
                latencies.append(latency_ms)
                energies.append(energy_mj)
                ops += sum(result.num_evaluations)
        return Outcome(
            attempted=2 * len(hvs),  # one platform shard per platform and pass
            failed=0,
            ops=ops,
            dynn_hv=float(np.mean(hvs)),
            latency_ms=geometric_mean(latencies),
            energy_mj=geometric_mean(energies),
            digest=digest(digests),
            problems=problems,
            config={
                "profiles": [
                    {**dataclasses.asdict(profile), "cache_dir": None}  # fresh per run
                    for profile in self.profiles
                ],
            },
        )

    def close(self) -> None:
        for cache_dir in self.cache_dirs:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.cache_dirs.clear()


class Serve1M(Workload):
    """Single-device tx2-gpu serving, adaptive governor, Poisson, 10^6 requests."""

    name = "serve-1m"
    platforms = ("tx2-gpu",)

    def __init__(self, smoke: bool):
        self.requests = 10_000 if smoke else 1_000_000

    @staticmethod
    def import_modules():
        from repro.serving import governor, harness, simulator, workload  # noqa: F401

    def build(self, seed: int, root: Path) -> None:
        from repro.serving import harness

        self.seed = seed
        self.spec = harness.ServingSpec(
            platform=self.platforms[0], policy="adaptive", pattern="poisson", seed=STACK_SEED
        )
        self.stack = harness.build_serving_stack(self.spec)

    def run(self) -> None:
        """``harness.run_serving_cell`` on the built stack, with the run's traffic."""
        from repro.serving import harness
        from repro.serving.governor import AdaptiveGovernor
        from repro.serving.simulator import ServingSimulator

        spec = dataclasses.replace(
            self.spec, seed=self.seed, duration_s=self.requests / self.stack.rate_hz
        )
        stack = dataclasses.replace(self.stack, spec=spec)
        self.trace, stream = harness.build_trace_and_stream(stack)
        simulator = ServingSimulator(
            evaluator=stack.evaluator,
            placement=stack.placement,
            policy=AdaptiveGovernor(stack.ladder, stack.batch_policy),
            ladder=stack.ladder,
            scenario=stack.scenario,
            slo_s=spec.slo_ms / 1e3,
            batch_policy=stack.batch_policy,
            window_s=spec.window_ms / 1e3,
            battery_budget_j=stack.battery_budget_j(self.trace.num_requests),
            admission=spec.admission_policy(),
        )
        self.report = simulator.run(
            self.trace, stream, platform=spec.platform, model=spec.model_label, seed=spec.seed
        )

    def finish(self) -> Outcome:
        report = self.report
        return Outcome(
            attempted=report.num_requests,
            failed=unserved(report),
            ops=float(report.num_requests),
            dynn_hv=ladder_hv(self.stack),
            latency_ms=report.latency_ms_p95,
            energy_mj=report.energy_per_request_j * 1e3,
            digest=digest(dataclasses.asdict(report)),
            problems=check_report(report, self.trace.num_requests, self.name),
            config={"spec": dataclasses.asdict(self.spec), "requests": self.requests},
        )


class FleetQuad1M(Workload):
    """Quad fleet, difficulty-aware router, adaptive, Poisson, 10^6 requests."""

    name = "fleet-quad-1m"
    platforms = QUAD_FLEET

    def __init__(self, smoke: bool):
        self.requests = 10_000 if smoke else 1_000_000

    @staticmethod
    def import_modules():
        from repro.serving import fleet, workload  # noqa: F401

    def build(self, seed: int, root: Path) -> None:
        from repro.serving import fleet

        self.seed = seed
        self.spec = fleet.FleetSpec(
            platforms=self.platforms,
            router="difficulty_aware",
            policy="adaptive",
            pattern="poisson",
            seed=STACK_SEED,
        )
        self.stacks = fleet.build_fleet_stacks(self.spec)

    def run(self) -> None:
        """``fleet.run_fleet_cell`` on the built stacks, with the run's traffic."""
        from repro.serving import fleet

        rate_hz = sum(stack.rate_hz for stack in self.stacks)
        spec = dataclasses.replace(
            self.spec, seed=self.seed, duration_s=self.requests / rate_hz
        )
        self.trace, stream = fleet.build_fleet_trace_and_stream(spec, self.stacks)
        self.report = fleet.FleetSimulator(spec, self.stacks).run(self.trace, stream)

    def finish(self) -> Outcome:
        report = self.report
        return Outcome(
            attempted=report.num_requests,
            failed=unserved(report),
            ops=float(report.num_requests),
            dynn_hv=float(np.mean([ladder_hv(stack) for stack in self.stacks])),
            latency_ms=report.latency_ms_p95,
            energy_mj=report.energy_per_request_j * 1e3,
            digest=digest(dataclasses.asdict(report)),
            problems=check_report(report, self.trace.num_requests, self.name),
            config={"spec": dataclasses.asdict(self.spec), "requests": self.requests},
        )


WORKLOADS = {
    cls.name: cls for cls in (SearchPaper, Fig5Sharded, Serve1M, FleetQuad1M)
}
